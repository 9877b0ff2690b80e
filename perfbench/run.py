"""soctab benchmark: the entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each request of the workload's
closed loop (one caller, the next request starts when the previous one
finished) is one sweep in a fresh single-threaded interpreter, so every
request pays what a ``soctab check`` run pays and no cache outlives it.
Requests repeat until ``--seconds`` have passed.  A final interpreter
recomputes the output digest.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced requests, which alternate
with untraced ones so that the tracing overhead is measured too.  A full
record, with the machine description, goes to ``perfbench/results/``.
See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 150  # the whole run must end well inside 180 s

# (metric, function, field) read from a traced request; the field is a
# counter of the function's spans.
COUNTS = [
    ("linalg.rref.calls", "linalg.rref", "calls"),
    ("linalg.rref.cells", "linalg.rref", "cells"),
    ("linalg.rref.p2_calls", "linalg.rref", "p2_calls"),
    ("linalg.rref.podd_calls", "linalg.rref", "podd_calls"),
    ("linalg.nullspace.calls", "linalg.nullspace", "calls"),
    ("linalg.rank.calls", "linalg.rank", "calls"),
    ("linalg.left_annihilator.calls", "linalg.left_annihilator", "calls"),
    ("linalg.left_annihilator.unique_ratio", "linalg.left_annihilator", "unique_ratio"),
    ("modules.quotient_type.calls", "modules.quotient_type", "calls"),
    ("modules.soc_layer.calls", "modules.soc_layer", "calls"),
    ("modules.standard_module.calls", "modules.standard_module", "calls"),
    ("embeddings.hom_matrix.calls", "embeddings.hom_matrix", "calls"),
    ("embeddings.socle_tableau.calls", "embeddings.socle_tableau", "calls"),
    ("embeddings.lr_tableau.calls", "embeddings.lr_tableau", "calls"),
    ("convert.defect.calls", "convert.defect", "calls"),
    ("convert.socle_to_duallr.calls", "convert.socle_to_duallr", "calls"),
    ("realize.build_chain.calls", "realize.build_chain", "calls"),
    ("tableaux.iter_tableaux.yielded", "tableaux.iter_tableaux", "yielded"),
    ("tableaux.count_tableaux.calls", "tableaux.count_tableaux", "calls"),
    ("tableaux.count_tableaux.unique_ratio", "tableaux.count_tableaux", "unique_ratio"),
    ("tableaux.check_socle.calls", "tableaux.check_socle", "calls"),
    ("partitions.partition.calls", "partitions.partition", "calls"),
    ("switching.run_switch.calls", "switching.run_switch", "calls"),
    ("switching.swaps", "switching.run_switch", "swaps"),
]
# Self times of single functions; layer self times are added per layer.
FN_TIMES = [
    ("linalg.rref.self_s", "linalg.rref"),
    ("modules.quotient_type.self_s", "modules.quotient_type"),
    ("embeddings.hom_matrix.self_s", "embeddings.hom_matrix"),
    ("convert.defect.self_s", "convert.defect"),
    ("realize.build_chain.self_s", "realize.build_chain"),
    ("tableaux.iter_tableaux.self_s", "tableaux.iter_tableaux"),
    ("switching.run_switch.self_s", "switching.run_switch"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def machine():
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = res.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "soctab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(ROOT).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(extra, deadline):
    """Start one fresh interpreter, wait for it, return its JSON line."""
    cmd = [sys.executable, str(HERE / "child.py"), "--spawned", repr(time.time()), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable result line {lines[-1][:200]!r}"}


def failed_cases(res, expected):
    """Failed cases of one request out of the ``expected`` attempted.

    A request fails as a whole when it raised, timed out, or reported a
    case total other than the reference; otherwise each reported failure
    or mismatch fails one case.
    """
    if res.get("error") or res.get("cases") != expected:
        return expected
    return min(res["failures"], expected)


def trace_metrics(traced, untraced):
    first = traced[0]["trace"]
    fns = first["functions"]
    m = {}
    for name, fn, field in COUNTS:
        m[name] = (fns.get(fn, {}).get(field, 0), "ratio" if field == "unique_ratio" else "count")
    med = statistics.median
    for layer in first["layer_self_s"]:
        m[f"{layer}.self_s"] = (med(t["trace"]["layer_self_s"][layer] for t in traced), "s")
    for name, fn in FN_TIMES:
        m[name] = (med(t["trace"]["functions"].get(fn, {}).get("self_s", 0.0) for t in traced), "s")
    ratio = med(t["sweep_s"] for t in traced) / med(t["sweep_s"] for t in untraced) - 1
    m["trace.overhead_ratio"] = (ratio, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "soctab" / "__init__.py").is_file():
        fail(f"no soctab sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    requests = []
    while not requests or time.monotonic() - began < args.seconds:
        traced = bool(args.trace) and len(requests) % 2 == 0
        res = run_child(base + ["--index", str(len(requests))] + (["--trace"] if traced else []), deadline)
        res["traced"] = traced
        requests.append(res)
        if time.monotonic() > deadline - 30:
            break
    if args.trace and len(requests) < 2:
        requests.append(run_child(base + ["--index", str(len(requests))], deadline))
        requests[-1]["traced"] = False
    check = run_child(["--digest"], deadline)

    expected = load_reference()["totals"][args.workload]
    attempted = expected * len(requests)
    failed = sum(failed_cases(res, expected) for res in requests)
    digest_ok = bool(check.get("digest_ok"))
    if not digest_ok:
        # a wrong digest means no output of this run can be trusted
        failed = attempted
    ok = [r for r in requests if not r.get("error")]
    if not ok:
        fail("every request failed: " + "; ".join(str(r.get("error")) for r in requests))
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]

    if args.trace:
        if not traced or not untraced:
            fail("trace run needs at least one traced and one untraced request")
        metrics = trace_metrics(traced, untraced)
    else:
        metrics = {
            "cases_per_s": (sum(r["cases"] for r in ok) / sum(r["sweep_s"] for r in ok), "1/s"),
            "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in ok), "MB"),
            "pass_ratio": (1 - failed / attempted, "ratio"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine(), "numpy": check.get("numpy")},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digest_ok": digest_ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "requests": requests,
    }
    outdir = HERE / "results"
    outdir.mkdir(exist_ok=True)
    path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    mach = record["machine"]
    print(
        f"machine: nproc={mach['nproc']} cpu={mach['cpu_model']!r} python={mach['python']} "
        f"numpy={mach['numpy']} commit={mach['git_commit']} source={mach['source_sha256'][:12]}"
    )
    print(
        f"{args.workload}: {len(requests)} requests, {attempted} cases attempted, "
        f"{failed} failed (fail_ratio={failed / attempted:.6g}), digest "
        f"{'ok' if digest_ok else 'MISMATCH'}; record {path.relative_to(ROOT)}"
    )
    result = {
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
