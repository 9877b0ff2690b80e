"""Command-line interface.

Exit codes: 0 success, 1 invalid input or a usage error, 2 internal
assertion failure, 3 conjecture counterexample found by ``check``.  A
standard output closed by its reader (``soctab enum ... | head``) also
exits 1, silently: the rest of the output is discarded and no traceback is
printed.
"""

import argparse
import json
import os
import random
import sys

from . import checks
from .convert import (
    defect_table,
    duallr_to_hom,
    duallr_to_socle,
    hom_to_duallr,
    hom_to_socle,
    socle_to_duallr,
    socle_to_hom,
)
from .embeddings import (
    Embedding,
    HomMatrix,
    dual_embedding,
    embedding_from_json,
    embedding_to_json,
    hom_matrix,
    lr_tableau,
    socle_tableau,
)
from .partitions import parse_shape
from .realize import ConditionStarViolated, realize_lr, realize_socle
from .switching import check_conjecture, init_switch, run_switch, extract_duallr
from .tableaux import SkewTableau, enumerate_tableaux, lr_coefficient

# every typed input error of the library, and json.JSONDecodeError, is a ValueError
INPUT_ERRORS = (ValueError, KeyError, OSError)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(args, command, result, text):
    if args.format == "json":
        print(json.dumps({"version": 1, "command": command, "result": result}, indent=2))
    else:
        print(text)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")


def _side_by_side(blocks, labels, pad=4):
    rendered = [b.splitlines() or [""] for b in blocks]
    widths = [max((len(l) for l in lines), default=0) for lines in rendered]
    widths = [max(w, len(lab)) for w, lab in zip(widths, labels)]
    height = max(len(lines) for lines in rendered)
    out = []
    out.append((" " * pad).join(lab.ljust(w) for lab, w in zip(labels, widths)))
    for i in range(height):
        row = []
        for lines, w in zip(rendered, widths):
            cell = lines[i] if i < len(lines) else ""
            row.append(cell.ljust(w))
        out.append((" " * pad).join(row).rstrip())
    return "\n".join(out)


def cmd_enum(args):
    alpha, beta, gamma = parse_shape(args.shape)
    ts = enumerate_tableaux(alpha, beta, gamma, kind=args.kind)
    result = {
        "shape": [list(alpha), list(beta), list(gamma)],
        "kind": args.kind,
        "count": len(ts),
        "tableaux": [t.to_json_dict() for t in ts],
    }
    lines = [f"{len(ts)} {args.kind} tableaux of shape {args.shape}"]
    for t in ts:
        lines.append("")
        lines.append(t.render())
    _emit(args, "enum", result, "\n".join(lines))
    return 0


def cmd_lr_coeff(args):
    alpha, beta, gamma = parse_shape(args.shape)
    c = lr_coefficient(alpha, beta, gamma)
    result = {"shape": [list(alpha), list(beta), list(gamma)], "coefficient": c}
    _emit(args, "lr-coeff", result, str(c))
    return 0


def _analyze(x: Embedding):
    sigma = socle_tableau(x)
    gamma_t = lr_tableau(x)
    dual = dual_embedding(x)
    dual_sigma = socle_tableau(dual)
    dual_gamma = lr_tableau(dual)
    h = hom_matrix(x)
    defects = [[ell, m, d] for (ell, m), d in defect_table(x).items()]
    return sigma, gamma_t, dual_sigma, dual_gamma, h, defects


def cmd_analyze(args):
    data = _load_json(args.file)
    x = embedding_from_json(data, prime=args.prime)
    sigma, gamma_t, dual_sigma, dual_gamma, h, defects = _analyze(x)
    result = {
        "prime": x.prime,
        "shape": [list(x.alpha), list(x.beta), list(x.gamma)],
        "socle": sigma.to_json_dict(),
        "lr": gamma_t.to_json_dict(),
        "dual_socle": dual_sigma.to_json_dict(),
        "dual_lr": dual_gamma.to_json_dict(),
        "hom": h.to_json_dict(),
        "defects": defects,
    }
    lines = [
        f"embedding of shape alpha={list(x.alpha)} beta={list(x.beta)} gamma={list(x.gamma)} (p={x.prime})",
        "",
        _side_by_side(
            [sigma.render(), gamma_t.render(), dual_sigma.render(), dual_gamma.render()],
            ["socle", "lr", "dual socle", "dual lr"],
        ),
        "",
        "hom matrix:",
        h.render(),
        "",
        "defects (entry, row+entry, value), nonzero only:",
    ]
    nz = [d for d in defects if d[2]]
    lines.append("  " + "  ".join(f"d({a},{b})={c}" for a, b, c in nz) if nz else "  none")
    _emit(args, "analyze", result, "\n".join(lines))
    return 0


def cmd_realize(args):
    data = _load_json(args.file)
    t = SkewTableau.from_json_dict(data)
    prime = 2 if args.prime is None else args.prime
    realize = realize_socle if args.kind == "socle" else realize_lr
    x = realize(t, prime)
    result = embedding_to_json(x)
    text = (
        f"realized embedding with alpha={list(x.alpha)} beta={list(x.beta)} "
        f"gamma={list(x.gamma)} (p={x.prime})\n" + json.dumps(result, indent=2)
    )
    _emit(args, "realize", result, text)
    return 0


def cmd_convert(args):
    data = _load_json(args.file)
    src = HomMatrix.from_json_dict(data) if args.src == "hom" else SkewTableau.from_json_dict(data)
    convert = {
        ("socle", "hom"): socle_to_hom,
        ("socle", "duallr"): socle_to_duallr,
        ("duallr", "hom"): duallr_to_hom,
        ("duallr", "socle"): duallr_to_socle,
        ("hom", "socle"): hom_to_socle,
        ("hom", "duallr"): hom_to_duallr,
    }.get((args.src, args.dst))
    if convert is None:
        raise ValueError(f"cannot convert {args.src} -> {args.dst}")
    out = convert(src)
    _emit(args, "convert", out.to_json_dict(), out.render())
    return 0


def cmd_switch(args):
    data = _load_json(args.file)
    t = SkewTableau.from_json_dict(data)
    state = init_switch(t)
    if args.seed is not None:
        rng = random.Random(args.seed)
        final = run_switch(state, "seeded-random", rng)
    else:
        final = run_switch(state)
    out = extract_duallr(final, t.alpha)
    result = {"tableau": out.to_json_dict(), "swaps": len(final.history)}
    lines = [f"terminal after {len(final.history)} swaps", out.render()]
    if args.trace:
        replay = state.copy()
        trace = [replay.to_json_dict()]
        lines += ["", replay.render()]
        for s_e, t_e, sbox, tbox in final.history:
            replay.apply(sbox, tbox)
            trace.append(replay.to_json_dict())
            lines += [f"-- swap {s_e}-{t_e} at {sbox}/{tbox} -->", replay.render()]
        result["trace"] = trace
    _emit(args, "switch", result, "\n".join(lines))
    return 0


# the report sweeps of each suite, in the order ``check --suite all`` runs them;
# a suite's sweeps run only when it is selected
_REPORT_SUITES = (
    ("counts", lambda a: [checks.count_symmetry_sweep(a.max_beta)]),
    ("realize", lambda a: [checks.realize_sweep(a.max_beta), checks.realize_lr_sweep(a.max_beta)]),
    ("hom", lambda a: [
        checks.hom_triple_sweep(corpus_count=a.corpus_count, max_beta_weight=a.max_beta),
        checks.defect_sweep(corpus_count=a.corpus_count, max_beta_weight=a.max_beta),
    ]),
)


def cmd_check(args):
    for flag, value in (
        ("--max-beta", args.max_beta),
        ("--seeds", args.seeds),
        ("--corpus-count", args.corpus_count),
    ):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")

    def selected(name):
        return args.suite in ("all", name)

    reps = [rep for name, sweeps in _REPORT_SUITES if selected(name) for rep in sweeps(args)]
    texts = [rep.render() for rep in reps]
    result = {"reports": [rep.to_json_dict() for rep in reps]}
    conjecture = None
    if selected("switching"):
        conjecture = check_conjecture(args.max_beta, seeds=args.seeds, base_seed=args.seed or 0)
        texts.append(conjecture.render())
        result["conjecture"] = conjecture.to_json_dict()
    _emit(args, "check", result, "\n".join(texts))
    if conjecture is not None and not conjecture.ok:
        return 3
    if not all(rep.ok for rep in reps):
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, the invalid-input code.

    argparse itself exits 2, which this CLI reserves for internal
    assertion failures.  Subparsers inherit the class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(prog="soctab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, output=False, prime=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if prime:
            p.add_argument("--prime", type=int, default=None)
        if output:
            p.add_argument("-o", "--output", help="also write the raw result JSON here")

    p = sub.add_parser("enum", help="enumerate tableaux of a shape")
    p.add_argument("--shape", required=True, help="alpha/beta/gamma, e.g. 42/532/31")
    p.add_argument("--kind", choices=("socle", "lr"), default="socle")
    common(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("lr-coeff", help="Littlewood-Richardson coefficient of a shape")
    p.add_argument("--shape", required=True)
    common(p)
    p.set_defaults(func=cmd_lr_coeff)

    p = sub.add_parser("analyze", help="all four tableaux, Hom matrix, defects of an embedding")
    p.add_argument("file", help="embedding JSON file")
    common(p, prime=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("realize", help="build an embedding with the given tableau")
    p.add_argument("file", help="tableau JSON file")
    p.add_argument("--kind", choices=("socle", "lr"), default="socle")
    common(p, output=True, prime=True)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("convert", help="convert between tableaux and Hom matrices")
    p.add_argument("--from", dest="src", required=True, choices=("socle", "duallr", "hom"))
    p.add_argument("--to", dest="dst", required=True, choices=("socle", "duallr", "hom"))
    p.add_argument("file")
    common(p, output=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("switch", help="run tableau switching on a socle tableau")
    p.add_argument("file", help="socle tableau JSON file")
    p.add_argument("--trace", action="store_true", help="include every intermediate grid")
    p.add_argument("--seed", type=int, default=None, help="use a seeded random swap order")
    common(p, output=True)
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("check", help="run verification sweeps")
    p.add_argument("--max-beta", type=int, default=9)
    p.add_argument(
        "--suite", choices=("counts", "realize", "hom", "switching", "all"), default="all"
    )
    p.add_argument("--seeds", type=int, default=5, help="random switch orders per tableau")
    p.add_argument("--seed", type=int, default=0, help="base seed for random orders")
    p.add_argument("--corpus-count", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_check)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return rc
    except BrokenPipeError:
        # send the unwritten rest to devnull so the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ConditionStarViolated, AssertionError) as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
