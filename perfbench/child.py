"""One request of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --index I --spawned T [--trace]
    python3 perfbench/child.py --digest --spawned T

``--spawned`` is the parent's wall clock just before it started this
process, so ``setup_s`` covers interpreter start, ``import soctab`` and
deriving the request's inputs.  The child prints one JSON line with its
measurements and exits 0 even when the sweep fails; a failure is data.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--digest", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import soctab
    import soctab.checks
    import soctab.switching

    if SRC.resolve() not in Path(soctab.__file__).resolve().parents:
        raise SystemExit(f"imported soctab from {soctab.__file__}, not from {SRC}")
    import workloads

    out = {"numpy": numpy.__version__, "error": None}
    if args.digest:
        out["setup_s"] = time.time() - args.spawned
        try:
            out["digest"] = workloads.digest()
        except Exception:
            traceback.print_exc()
            out["error"] = traceback.format_exc(limit=3)
        out["digest_ok"] = out.get("digest") == workloads.load_reference()["digest"]
        print(json.dumps(out), flush=True)
        return 0

    w = workloads.WORKLOADS[args.workload]
    req_seed = workloads.request_seed(args.seed, args.index) if w.seeded else None
    out["setup_s"] = time.time() - args.spawned

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    cases = failures = 0
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        cases, failures = workloads.run_sweep(w, req_seed)
    except Exception:
        traceback.print_exc()
        out["error"] = traceback.format_exc(limit=3)
    sweep_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()

    out.update(
        req_seed=req_seed,
        sweep_s=sweep_s,
        cpu_s=cpu_s,
        cases=cases,
        failures=failures,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
