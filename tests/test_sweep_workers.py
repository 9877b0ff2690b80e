"""The realize sweeps and the switching conjecture sweep run one forked shard
per CPU: their reports and the exception they raise equal those of one
process, and no worker outlives a sweep, whether it returns, raises, loses a
worker or is interrupted.

The CPUs a sweep sees are set by replacing ``os.sched_getaffinity``: one
CPU runs every item in-process, three fork two workers on any host.  Each
shard runs pinned to its own CPU, and the caller's CPU set is the same after
a sweep as before it.
"""

import os
import signal
import time
from contextlib import contextmanager

import pytest

from soctab import _shards, checks, realize, switching
from soctab._shards import WorkerDied
from soctab.partitions import beta_triple_counts
from soctab.realize import ConditionStarViolated
from soctab.tableaux import SkewTableau, iter_tableaux

SWEEPS = (checks.realize_sweep, checks.realize_lr_sweep)
MODES = ("one-cpu", "host", "three-cpus")
CPUS = {"one-cpu": {0}, "three-cpus": {0, 1, 2}}
# the CPUs this process runs on, read with the function no test has replaced
real_affinity = os.sched_getaffinity
multi_cpu = pytest.mark.skipif(len(real_affinity(0)) < 2, reason="pinning needs at least 2 CPUs")
# a CPU id far above those a kernel supports, which no host has online
ABSENT_CPU = 1 << 16


def host():
    return sorted(real_affinity(0))


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


def reports_in_modes(monkeypatch, sweep, *args):
    """{mode: report} of the sweep; the driver forks n - 1 workers, and the
    host's run gives the caller its CPUs back."""
    out = {}
    for mode in MODES:
        before = real_affinity(0)
        with monkeypatch.context() as m:
            forks = cpus(m, mode)
            with deadline(120):
                out[mode] = sweep(*args)
            if mode in CPUS:
                assert len(forks) == len(CPUS[mode]) - 1
            else:
                assert real_affinity(0) == before
    return out


def run_in_modes(monkeypatch, sweep, *args):
    """{mode: (to_json_dict(), render())} of the sweep in every mode."""
    reports = reports_in_modes(monkeypatch, sweep, *args)
    return {mode: (rep.to_json_dict(), rep.render()) for mode, rep in reports.items()}


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

        def levels(self, p, kind):
            return self.built[p].levels(p, kind)

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
    """{mode: (type, message)} of the exception the sweep raises; the host's
    run gives the caller its CPUs back."""
    out = {}
    for mode in MODES:
        before = real_affinity(0)
        with monkeypatch.context() as m:
            cpus(m, mode)
            with deadline(120), pytest.raises(Exception) as err:
                sweep(*args)
            out[mode] = (err.type, str(err.value))
            if mode not in CPUS:
                assert real_affinity(0) == before
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


def dropping_first_layers(monkeypatch):
    # the fault of test_conjecture_sweep_records_mismatches_in_the_order_of_the_walk:
    # every run of a tableau whose chain sum is a multiple of 3 mismatches
    real = switching._socle_chain_to_duallr

    def dropping(chain):
        img = real(chain)
        return img[1:] if sum(map(sum, chain)) % 3 == 0 and len(img) > 1 else img

    monkeypatch.setattr(switching, "_socle_chain_to_duallr", dropping)


def test_conjecture_reports_are_identical_in_every_mode(monkeypatch):
    dropping_first_layers(monkeypatch)
    out = run_in_modes(monkeypatch, switching.check_conjecture, 6, 2, 4)
    assert out["host"] == out["one-cpu"] == out["three-cpus"]
    mismatches = out["one-cpu"][0]["mismatches"]
    assert len(mismatches) > 50
    # the betas are dealt out in turn, and every shard of two and of three records some
    betas = [beta for beta, _ in beta_triple_counts(6)]
    found = {betas.index(tuple(m["shape"][1])) for m in mismatches}
    assert all({i % n for i in found} == set(range(n)) for n in (2, 3))


def test_conjecture_states_are_counted_in_every_shard(monkeypatch):
    reports = reports_in_modes(monkeypatch, switching.check_conjecture, 8)
    assert {mode: rep.states for mode, rep in reports.items()} == dict.fromkeys(MODES, 13626)


def test_a_search_that_raises_in_a_worker_raises_in_every_mode(monkeypatch):
    # (2, 1) is the sixth beta: in shard 1 of two and in shard 2 of three
    betas = [beta for beta, _ in beta_triple_counts(6)]
    assert betas.index((2, 1)) % 2 == 1 and betas.index((2, 1)) % 3 == 2
    real = switching._search

    def search(geo, start):
        if geo.beta == (2, 1):
            raise ValueError(f"search failed on {geo.beta}")
        return real(geo, start)

    monkeypatch.setattr(switching, "_search", search)
    out = raised_in_modes(monkeypatch, switching.check_conjecture, 6)
    assert set(out.values()) == {(ValueError, "search failed on (2, 1)")}


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


def affinity(item):
    return [(item, sorted(real_affinity(0)))]


@multi_cpu
def test_each_shard_runs_pinned_to_its_own_cpu():
    mine = host()
    items = list(range(3 * len(mine)))
    assert _shards.run(items, affinity) == [(i, [mine[i % len(mine)]]) for i in items]


def exiting(how, parent):
    """A run_item that leaves the driver ``how``; ``parent`` runs shard 0."""

    def run_item(item):
        here = os.getpid() == parent
        if how == "item raises" and not here:
            raise ValueError(f"item {item}")
        if how == "worker died" and not here:
            os._exit(1)
        if how == "interrupt":
            if here:
                raise KeyboardInterrupt
            time.sleep(60)
        return affinity(item)

    return run_item


EXITS = {"return": None, "item raises": ValueError, "worker died": WorkerDied, "interrupt": KeyboardInterrupt}


@multi_cpu
@pytest.mark.parametrize("how", EXITS)
def test_the_callers_cpus_are_restored_on_every_exit(how):
    parent, seen = os.getpid(), []
    run_item = exiting(how, parent)

    def recorded(item):
        if os.getpid() == parent:
            seen.append(real_affinity(0))
        return run_item(item)

    before = real_affinity(0)
    first = min(before)
    with deadline(30):
        if EXITS[how] is None:
            _shards.run(list(range(8)), recorded)
        else:
            with pytest.raises(EXITS[how]):
                _shards.run(list(range(8)), recorded)
    # the caller ran its own shard on its one CPU, and has its CPUs back
    assert seen and all(cpus == {first} for cpus in seen)
    assert real_affinity(0) == before


def test_a_worker_that_cannot_be_pinned_runs_unpinned(monkeypatch):
    # the host's CPUs and one the kernel refuses: the last worker keeps every CPU
    mine = host()
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {*mine, ABSENT_CPU})
        with deadline(60):
            found = _shards.run(list(range(2 * len(mine) + 2)), affinity)
    n = len(mine) + 1
    assert found == [(i, mine if i % n == len(mine) else [mine[i % n]]) for i in range(2 * n)]
    assert real_affinity(0) == set(mine)
