"""The realize sweeps run one forked shard per CPU: their reports and the
exception they raise equal those of one process, and no worker outlives a
sweep, whether it returns, raises, loses a worker or is interrupted.

The CPUs a sweep sees are set by replacing ``os.sched_getaffinity``: one
CPU runs every item in-process, three fork two workers on any host.
"""

import os
import signal
import time
from contextlib import contextmanager

import pytest

from soctab import checks, realize
from soctab._shards import WorkerDied
from soctab.realize import ConditionStarViolated
from soctab.tableaux import SkewTableau, iter_tableaux

SWEEPS = (checks.realize_sweep, checks.realize_lr_sweep)
MODES = ("one-cpu", "host", "three-cpus")
CPUS = {"one-cpu": {0}, "three-cpus": {0, 1, 2}}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the test if the block runs longer; forked children get no alarm."""

    def expire(signum, frame):
        raise TimeoutError(f"sweep still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cpus(monkeypatch, mode):
    """Let the sweeps see the CPUs of ``mode``; return the list of forks made from now on."""
    if mode in CPUS:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CPUS[mode])
    fork, forks = os.fork, []

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def run_in_modes(monkeypatch, sweep, *args):
    """{mode: (to_json_dict(), render())} of the sweep; the driver forks n - 1 workers."""
    out = {}
    for mode in MODES:
        with monkeypatch.context() as m:
            forks = cpus(m, mode)
            with deadline(120):
                rep = sweep(*args)
            out[mode] = (rep.to_json_dict(), rep.render())
            if mode in CPUS:
                assert len(forks) == len(CPUS[mode]) - 1
    return out


def faulty_realizations(monkeypatch, primes):
    # the fault of test_realize_sweeps_report_every_wrong_realization, at the
    # given primes: each socle tableau of shape (21, 321, 21) is realized as
    # the other one, and the one of shape (1, 1, 0) as the empty tableau on (1)
    a, b = iter_tableaux((2, 1), (3, 2, 1), (2, 1), kind="socle")
    other = {a: b, b: a, SkewTableau((1,), (1,), (), {(1, 1): 1}): SkewTableau((), (1,), (1,), {})}
    real = checks._IntChain

    class Faulty:
        def __init__(self, t):
            self.built = {p: real(other.get(t, t) if p in primes else t) for p in (2, 3)}

        def embedding(self, p):
            return self.built[p].embedding(p)

        def certified_levels(self, p):
            return self.built[p].certified_levels(p)

    monkeypatch.setattr(checks, "_IntChain", Faulty)


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("faulty", [(), (3,), (2, 3)])
def test_reports_are_identical_in_every_mode(monkeypatch, sweep, faulty):
    # at both primes an item fails twice, and its messages keep their order
    faulty_realizations(monkeypatch, faulty)
    out = run_in_modes(monkeypatch, sweep, 6)
    assert out["host"] == out["one-cpu"] == out["three-cpus"]
    report = out["one-cpu"][0]
    assert report["cases"] == 295
    assert len(report["failures"]) == 3 * len(faulty)


def raised_in_modes(monkeypatch, sweep, *args):
    """{mode: (type, message)} of the exception the sweep raises."""
    out = {}
    for mode in MODES:
        with monkeypatch.context() as m:
            cpus(m, mode)
            with deadline(120), pytest.raises(Exception) as err:
                sweep(*args)
            out[mode] = (err.type, str(err.value))
    return out


@pytest.mark.parametrize("sweep", SWEEPS)
def test_uncorrected_construction_raises_the_first_violation(monkeypatch, sweep):
    # identity corrections break condition star on 65 of the 295 socle tableaux
    monkeypatch.setattr(realize, "_correction", lambda t, layer, offs, ell: [[r] for r in range(sum(layer))])
    out = raised_in_modes(monkeypatch, sweep, 6)
    assert set(out.values()) == {(ConditionStarViolated, "socle condition fails between stages 1,2")}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_the_lowest_raising_item_wins(monkeypatch, sweep):
    # every tableau with |beta| >= 3 raises with its own message, so every
    # shard raises, and in a worker first where the lowest such item is not in shard 0
    real = checks._IntChain

    def built(t):
        if sum(t.beta) >= 3:
            raise ConditionStarViolated(f"{t.shape} {sorted(t.entries.items())}")
        return real(t)

    monkeypatch.setattr(checks, "_IntChain", built)
    out = raised_in_modes(monkeypatch, sweep, 4)
    assert out["host"] == out["one-cpu"] == out["three-cpus"]
    assert out["one-cpu"][0] is ConditionStarViolated


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    parent = os.getpid()
    real = checks._IntChain

    def built(t):
        if os.getpid() != parent:
            raise ValueError("raised in a worker")
        return real(t)

    monkeypatch.setattr(checks, "_IntChain", built)
    cpus(monkeypatch, "three-cpus")
    with deadline(60), pytest.raises(ValueError, match=r"^raised in a worker$"):
        checks.realize_sweep(6)


@pytest.mark.parametrize("sweep", SWEEPS)
def test_a_dead_worker_makes_the_sweep_raise(monkeypatch, sweep):
    parent = os.getpid()
    real = checks._IntChain

    def built(t):
        if os.getpid() != parent:
            os._exit(1)
        return real(t)

    monkeypatch.setattr(checks, "_IntChain", built)
    cpus(monkeypatch, "three-cpus")
    with deadline(60), pytest.raises(WorkerDied, match=r"^sweep worker \d+ exited with status 1$"):
        sweep(6)


def test_an_interrupt_kills_the_running_workers(monkeypatch):
    # the workers would sleep for a minute; the interrupt in this process ends them
    parent = os.getpid()

    def built(t):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(checks, "_IntChain", built)
    cpus(monkeypatch, "three-cpus")
    start = time.monotonic()
    with deadline(30), pytest.raises(KeyboardInterrupt):
        checks.realize_sweep(6)
    assert time.monotonic() - start < 10


def test_no_affinity_runs_in_process(monkeypatch):
    # where the platform has no sched_getaffinity, nothing is forked
    forks = cpus(monkeypatch, "host")
    monkeypatch.delattr(os, "sched_getaffinity")
    rep = checks.realize_sweep(4)
    assert rep.ok and rep.cases > 0
    assert forks == []
