"""The realize sweeps' driver: their independent items run on one process
per CPU, each process pinned to its own CPU, and the results are merged as
if one process had run them.

The pins are what make the fork pay: left to the scheduler, the worker of
a short sweep often shares its caller's CPU, and the sweep then takes about
as long as in one process (README, "Command line").
"""

import os
import pickle
from operator import itemgetter


class WorkerDied(RuntimeError):
    """A sweep worker process ended without sending its results."""


def run(items, run_item):
    """The messages of ``run_item(item)`` for every item, in item order.

    The items run in the interleaved shards ``items[k::n]``, one for each
    of the n CPUs ``cpus`` this process may run on: shard 0 here, and each
    other shard in a forked child, which pickles its (index, message) pairs
    back over a pipe.  Shard k runs pinned to ``cpus[k]``; the caller's CPU
    set is restored before the call ends, on every exit path.  The result,
    and the exception raised (that of the lowest item that raises), are
    those of running every item here in order, as happens when n is 1.  No
    child outlives the call: an error or an interrupt here kills them, and
    every child is reaped.
    """
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:  # no affinity, and no fork, on this platform
        allowed = ()
    cpus = sorted(allowed)
    n = min(len(cpus), len(items))
    if n <= 1:
        return [msg for item in items for msg in run_item(item)]
    pids, pipes, sent = [], [], None
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:  # the worker: send shard k, then exit whatever happened
                    status = 1
                    try:
                        _pin({cpus[k]})
                        with open(w, "wb") as out:
                            pickle.dump(_shard(items, k, n, run_item), out)
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(w)
            pids.append(pid)
        _pin({cpus[0]})
        own = _shard(items, 0, n, run_item)
        sent = [pipe.read() for pipe in pipes]
    finally:
        _pin(allowed)
        for pipe in pipes:
            pipe.close()
        codes = []
        for pid in pids:
            if sent is None:  # only on an error or an interrupt, so a clean sweep imports no signal
                import signal

                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for pid, code in zip(pids, codes):
        if code:
            raise WorkerDied(f"sweep worker {pid} exited with status {code}")
    shards = [own] + [pickle.loads(data) for data in sent]
    errors = [error for _, error in shards if error]
    if errors:
        raise min(errors, key=itemgetter(0))[1]
    return [msg for _, msg in sorted((pair for found, _ in shards for pair in found), key=itemgetter(0))]


def _pin(cpus):
    """Run the calling thread on ``cpus`` only; a set the kernel refuses
    (an offline CPU, or none this process may use) leaves it as it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _shard(items, k, n, run_item):
    """The (index, message) pairs of ``items[k::n]`` in order, and the
    (index, exception) of the item that raised, where the shard stopped, or None."""
    found = []
    for i in range(k, len(items), n):
        try:
            found += [(i, msg) for msg in run_item(items[i])]
        except Exception as exc:
            return found, (i, exc)
    return found, None
