"""The benchmark workloads, the output digest and the reference data.

Each workload drives one of soctab's own sweep entry points.  One call of
``run_sweep`` is one request of the closed loop; ``run.py`` runs each
request in a fresh interpreter (see ``child.py``).

Run as a script to recompute the reference data that ``reference.json``
holds: the case total of one request of each workload and the digest.
"""

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
PRIMES = (2, 3)

# The digest covers the bundled fixtures and the first few embeddings of a
# fixed analyze corpus.  The corpus seed is fixed so that one stored digest
# serves every --seed.
DIGEST_FIXTURES = ("m1", "m2", "m3")
DIGEST_SEED = 20260810
DIGEST_CORPUS = 8


class Workload(NamedTuple):
    name: str
    why: str
    bound: int  # max |beta| of the sweep, or of the corpus for analyze
    corpus: int = 0  # analyze: random embeddings per request
    orders: int = 0  # switch: random swap orders per tableau
    seeded: bool = False  # whether a request's input depends on the seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate",
            "count/bijection laws: pure enumeration in tableaux, no linalg calls",
            bound=8,
        ),
        Workload(
            "realize",
            "realization round trip at p=2,3: many tiny rref calls per case",
            bound=6,
        ),
        Workload(
            "analyze",
            "Hom-triple and defect sweeps on a seeded corpus: fewer, larger kernel calls",
            bound=6,
            corpus=60,
            seeded=True,
        ),
        Workload(
            "switch",
            "switching conjecture with 5 seeded swap orders: switching layer, no linalg",
            bound=8,
            orders=5,
            seeded=True,
        ),
    )
}


def request_seed(seed: int, index: int) -> int:
    """Seed of the index-th request of a run; depends only on (seed, index)."""
    return random.Random(f"soctab-bench:{seed}:{index}").randrange(2**31)


class Outcome(NamedTuple):
    cases: int
    failures: int


def run_sweep(w: Workload, req_seed: int) -> Outcome:
    """One request: the workload's sweep, through the package's public modules."""
    from soctab import checks, switching

    if w.name == "enumerate":
        rep = checks.count_symmetry_sweep(w.bound)
        return Outcome(rep.cases, len(rep.failures))
    if w.name == "realize":
        rep = checks.realize_sweep(w.bound, primes=PRIMES)
        return Outcome(rep.cases, len(rep.failures))
    if w.name == "analyze":
        reps = [
            sweep(corpus_seed=req_seed, corpus_count=w.corpus, max_beta_weight=w.bound, primes=PRIMES)
            for sweep in (checks.hom_triple_sweep, checks.defect_sweep)
        ]
        return Outcome(sum(r.cases for r in reps), sum(len(r.failures) for r in reps))
    if w.name == "switch":
        rep = switching.check_conjecture(w.bound, seeds=w.orders, base_seed=req_seed)
        return Outcome(rep.runs, len(rep.mismatches))
    raise ValueError(f"unknown workload {w.name!r}")


def digest_records():
    """Four tableaux and the Hom-matrix of every digest embedding at p = 2 and 3."""
    from soctab import (
        dual_embedding,
        embedding_from_spec,
        hom_matrix,
        load_fixture,
        lr_tableau,
        random_corpus,
        socle_tableau,
    )

    sources = [(name, lambda p, name=name: load_fixture(name, prime=p)) for name in DIGEST_FIXTURES]
    specs = random_corpus(DIGEST_SEED, DIGEST_CORPUS, WORKLOADS["analyze"].bound)
    sources += [
        (f"corpus[{i}]", lambda p, spec=spec: embedding_from_spec(spec, p))
        for i, spec in enumerate(specs)
    ]
    out = []
    for name, make in sources:
        for p in PRIMES:
            x = make(p)
            d = dual_embedding(x)
            out.append(
                {
                    "embedding": name,
                    "p": p,
                    "socle": socle_tableau(x).to_json_dict(),
                    "lr": lr_tableau(x).to_json_dict(),
                    "dual_socle": socle_tableau(d).to_json_dict(),
                    "dual_lr": lr_tableau(d).to_json_dict(),
                    "hom": hom_matrix(x).to_json_dict(),
                }
            )
    return out


def digest() -> str:
    text = json.dumps(digest_records(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def compute_reference() -> dict:
    totals = {name: run_sweep(w, request_seed(0, 0)).cases for name, w in WORKLOADS.items()}
    return {"totals": totals, "digest": digest()}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    print(json.dumps(compute_reference(), indent=2))
