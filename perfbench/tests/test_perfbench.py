"""Self-tests of the benchmark: tracer coverage and accounting, count
determinism, the no-linalg prediction, the output digest and the refusal
to run without sources.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402
from tracer import COUNT_ONLY, LAYERS, Tracer, public_functions  # noqa: E402

# Reduced sizes, so that the tests take seconds; the workloads keep their kind.
SMALL = {
    "enumerate": {"bound": 6},
    "realize": {"bound": 5},
    "analyze": {"bound": 6, "corpus": 4},
    "switch": {"bound": 6},
}


def small(name):
    return workloads.WORKLOADS[name]._replace(**SMALL[name])


def soctab_modules():
    return {n: m for n, m in sys.modules.items() if n == "soctab" or n.startswith("soctab.")}


def bindings():
    """Every (module.name, value) the package holds, including inside lists, tuples, sets and dicts."""
    for modname, mod in soctab_modules().items():
        for name, obj in vars(mod).items():
            yield f"{modname}.{name}", obj
            if isinstance(obj, dict):
                for key, value in obj.items():
                    yield f"{modname}.{name}[{key!r}]", value
            elif isinstance(obj, (list, tuple, set, frozenset)):
                for i, value in enumerate(obj):
                    yield f"{modname}.{name}[{i}]", value


def test_no_module_keeps_an_unwrapped_reference():
    with Tracer() as tr:
        originals = set(tr.wrapped)
        wrappers = {id(wrapper) for _, wrapper in tr.wrapped.values()}
        stale = [where for where, obj in bindings() if id(obj) in originals]
        assert stale == []
        for layer in LAYERS:
            module = sys.modules[f"soctab.{layer}"]
            unwrapped = [n for n, f in public_functions(module).items() if id(f) not in wrappers]
            assert unwrapped == [], layer
        import soctab.embeddings
        import soctab.modules

        # bound by `from .modules import quotient_type`
        assert soctab.embeddings.quotient_type is soctab.modules.quotient_type
        assert id(soctab.embeddings.quotient_type) in wrappers
    left = [where for where, obj in bindings() if id(obj) in wrappers]
    assert left == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_add_up_to_traced_wall_time(name):
    w = small(name)
    with Tracer() as tr:
        start = time.perf_counter()
        workloads.run_sweep(w, workloads.request_seed(3, 0))
        wall = time.perf_counter() - start
    s = tr.summary()
    self_sum = sum(s["layer_self_s"].values())
    assert s["layer_self_s"]["checks" if name != "switch" else "switching"] > 0
    assert self_sum + s["bookkeeping_s"] == pytest.approx(s["total_s"], rel=1e-9)
    assert 0.98 * wall <= s["total_s"] <= wall


TRACED_RUN = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
from tracer import Tracer
w = workloads.WORKLOADS[{name!r}]._replace(**{small!r})
with Tracer() as tr:
    workloads.run_sweep(w, workloads.request_seed(11, 0))
print(json.dumps(tr.summary()["functions"]))
"""


def traced_counts(name):
    code = TRACED_RUN.format(src=str(ROOT / "src"), bench=str(BENCH), name=name, small=SMALL[name])
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    fns = json.loads(out.stdout.strip().splitlines()[-1])
    return {fn: {k: v for k, v in row.items() if k != "self_s"} for fn, row in fns.items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_across_traced_runs(name):
    first, second = traced_counts(name), traced_counts(name)
    assert first == second
    rref_calls = first.get("linalg.rref", {}).get("calls", 0)
    if name in ("enumerate", "switch"):
        assert rref_calls == 0
    else:
        assert rref_calls > 0


def test_digest_matches_reference():
    assert workloads.digest() == workloads.load_reference()["digest"]


def test_declared_workloads_and_metrics_match_run_py():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in declared["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
    emitted = [name for name, _, _ in run.COUNTS] + [name for name, _ in run.FN_TIMES]
    emitted += [f"{layer}.self_s" for layer in LAYERS if layer not in COUNT_ONLY]
    emitted.append("trace.overhead_ratio")
    assert sorted(emitted) == sorted(m["name"] for m in declared["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(
        cmd + ["--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
