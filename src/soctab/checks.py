"""Exhaustive and randomized verification sweeps.

Each sweep returns a small report with counters and a list of failure
descriptions; an empty list means the property held everywhere.  The
switching sweep lives in the switching module because a mismatch there
is a reportable result rather than a bug.
"""

from itertools import groupby

from .convert import (
    _duallr_chain_to_socle,
    _socle_chain_to_duallr,
    defect_table,
    duallr_to_hom,
    entry_multiplicities,
    hom_to_duallr,
    hom_to_socle,
    socle_to_hom,
)
from .embeddings import (
    _filtration_chain,
    dual_embedding,
    embedding_from_spec,
    hom_matrix,
    load_fixture,
    lr_tableau,
    random_corpus,
    socle_tableau,
)
from .modules import _radical_quotient_type, _socle_quotient_type
from .partitions import shape_triples
from .realize import _IntChain
from .tableaux import (
    MatchingFailed,
    _beta_chains,
    _chain_tableau,
    build_matching,
    check_lr,
    check_socle,
    check_st3_prime,
    iter_st12_fillings,
)


class SweepReport:
    def __init__(self, name, **params):
        self.name = name
        self.params = params
        self.cases = 0
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def fail(self, msg):
        self.failures.append(msg)

    def to_json_dict(self):
        return {
            "name": self.name,
            "params": self.params,
            "cases": self.cases,
            "failures": self.failures,
        }

    def render(self):
        status = "ok" if self.ok else f"{len(self.failures)} failures"
        head = f"{self.name} ({', '.join(f'{k}={v}' for k, v in self.params.items())}): {self.cases} cases, {status}"
        return "\n".join([head] + [f"  {f}" for f in self.failures[:20]])


def count_symmetry_sweep(max_beta_weight: int) -> SweepReport:
    """Socle and LR counts agree, swapping the end shapes preserves the LR
    count, and the direct conversion maps the socle set bijectively onto the
    swapped LR set."""
    rep = SweepReport("count-symmetry", max_beta=max_beta_weight)
    for beta, group in groupby(shape_triples(max_beta_weight), key=lambda s: s.beta):
        # one search per kind finds every tableau on beta; absent means none
        socle, lr = _beta_chains(beta, "socle"), _beta_chains(beta, "lr")
        for alpha, _, gamma in group:
            rep.cases += 1
            chains = socle.get((alpha, gamma), ())
            n_lr = len(lr.get((alpha, gamma), ()))
            swapped = lr.get((gamma, alpha), ())
            if not (len(chains) == n_lr == len(swapped)):
                rep.fail(
                    f"{(alpha, beta, gamma)}: socle={len(chains)} lr={n_lr} swapped={len(swapped)}"
                )
                continue
            # the images must be enumerated LR chains of the swapped shape
            targets = set(swapped)
            images = set()
            for chain in chains:
                img = _socle_chain_to_duallr(chain)
                if img not in targets:
                    rep.fail(f"{(alpha, beta, gamma)}: conversion left the target set")
                    break
                images.add(img)
            if len(images) != len(chains):
                rep.fail(f"{(alpha, beta, gamma)}: conversion is not injective")
    return rep


def realize_sweep(max_beta_weight: int, primes=(2, 3)) -> SweepReport:
    """Every socle tableau is realized exactly by its constructed embedding.
    The tableaux are checked on every CPU this process may use (``_shards``)."""
    # imported here: without cached bytecode, every import of the package
    # would compile the driver, and a sweep that does not use it would pay
    from . import _shards

    rep = SweepReport("realize-roundtrip", max_beta=max_beta_weight, primes=list(primes))
    items = []
    for beta, group in groupby(shape_triples(max_beta_weight), key=lambda s: s.beta):
        chains = _beta_chains(beta, "socle")
        for alpha, _, gamma in group:
            shape = (alpha, beta, gamma)
            items += [(shape, chain) for chain in chains.get((alpha, gamma), ())]

    def realize(item):
        shape, chain = item
        # the enumerator's chains are valid, so nothing is checked again
        built = _IntChain(_chain_tableau(chain, "socle"))
        out = []
        for p in primes:
            x = built.embedding(p)
            if x.shape != shape:
                out.append(f"{shape} p={p}: wrong shape {tuple(x.shape)}")
            # canonical chains: equal iff the tableaux are
            elif tuple(_filtration_chain(x, _socle_quotient_type, shape[1], shape[2])) != chain:
                out.append(f"{shape} p={p}: socle tableau differs")
        return out

    rep.cases = len(items)
    rep.failures = _shards.run(items, realize)
    return rep


def realize_lr_sweep(max_beta_weight: int, primes=(2, 3)) -> SweepReport:
    """Dual counterpart of realize_sweep for LR tableaux; each mirrored socle
    chain must be one of those enumerated, which replaces its axiom check."""
    from . import _shards

    rep = SweepReport("realize-lr-roundtrip", max_beta=max_beta_weight, primes=list(primes))
    items = []
    for beta, group in groupby(shape_triples(max_beta_weight), key=lambda s: s.beta):
        chains = _beta_chains(beta, "lr")
        mirrors = {key: set(found) for key, found in _beta_chains(beta, "socle").items()}
        for alpha, _, gamma in group:
            shape, targets = (alpha, beta, gamma), mirrors.get((gamma, alpha), ())
            items += [(shape, chain, targets) for chain in chains.get((alpha, gamma), ())]

    def realize(item):
        shape, chain, targets = item
        mirror = _duallr_chain_to_socle(chain)
        if mirror not in targets:
            return [f"{shape}: mirror is not an enumerated socle chain"]
        built = _IntChain(_chain_tableau(mirror, "socle"))
        out = []
        for p in primes:
            x = dual_embedding(built.embedding(p))
            if tuple(_filtration_chain(x, _radical_quotient_type, x.gamma, x.beta)) != chain:
                out.append(f"{shape} p={p}: lr tableau differs")
        return out

    rep.cases = len(items)
    rep.failures = _shards.run(items, realize)
    return rep


def _corpus_embeddings(corpus_seed, corpus_count, max_beta_weight, primes):
    out = [(name, {p: load_fixture(name, prime=p) for p in primes}) for name in ("m1", "m2", "m3")]
    for i, spec in enumerate(random_corpus(corpus_seed, corpus_count, max_beta_weight)):
        out.append((f"corpus[{i}]", {p: embedding_from_spec(spec, p) for p in primes}))
    return out


def hom_triple_sweep(
    corpus_seed=20260810, corpus_count=200, max_beta_weight=10, primes=(2, 3)
) -> SweepReport:
    """Engine Hom-matrix equals both closed forms; inverses reconstruct; all
    integer outputs are independent of the prime."""
    rep = SweepReport(
        "hom-triple",
        seed=corpus_seed,
        count=corpus_count,
        max_beta=max_beta_weight,
        primes=list(primes),
    )
    for name, per_prime in _corpus_embeddings(corpus_seed, corpus_count, max_beta_weight, primes):
        rep.cases += 1
        results = {}
        for p, x in per_prime.items():
            sigma = socle_tableau(x)
            dlr = lr_tableau(dual_embedding(x))
            if not check_socle(sigma):
                rep.fail(f"{name} p={p}: socle tableau fails its axioms")
            if not check_lr(dlr):
                rep.fail(f"{name} p={p}: dual LR tableau fails its axioms")
            h = hom_matrix(x)
            if socle_to_hom(sigma) != h:
                rep.fail(f"{name} p={p}: socle closed form differs from engine")
            if duallr_to_hom(dlr) != h:
                rep.fail(f"{name} p={p}: dual LR closed form differs from engine")
            if hom_to_socle(h) != sigma:
                rep.fail(f"{name} p={p}: socle reconstruction differs")
            if hom_to_duallr(h) != dlr:
                rep.fail(f"{name} p={p}: dual LR reconstruction differs")
            results[p] = (sigma, dlr, h)
        first = results[primes[0]]
        for p in primes[1:]:
            if results[p] != first:
                rep.fail(f"{name}: outputs differ between primes {primes[0]} and {p}")
    return rep


def defect_sweep(
    corpus_seed=20260810, corpus_count=200, max_beta_weight=10, primes=(2, 3)
) -> SweepReport:
    """Defect equals the tableau multiplicity and the four-term Hom expression."""
    rep = SweepReport(
        "defect",
        seed=corpus_seed,
        count=corpus_count,
        max_beta=max_beta_weight,
        primes=list(primes),
    )
    for name, per_prime in _corpus_embeddings(corpus_seed, corpus_count, max_beta_weight, primes):
        rep.cases += 1
        tables = {}
        for p, x in per_prime.items():
            mu = entry_multiplicities(socle_tableau(x))
            h = hom_matrix(x)
            table = defect_table(x)
            for (ell, m), d in table.items():
                expected_mu = mu.get((ell, m - ell), 0)
                expected_h = (
                    h.value(ell, m - 1)
                    - h.value(ell, m)
                    - h.value(ell - 1, m - 2)
                    + h.value(ell - 1, m - 1)
                )
                if not (d == expected_mu == expected_h):
                    rep.fail(
                        f"{name} p={p} ({ell},{m}): defect={d} mu={expected_mu} hom={expected_h}"
                    )
            tables[p] = table
        first = tables[primes[0]]
        for p in primes[1:]:
            if tables[p] != first:
                rep.fail(f"{name}: defect tables differ between primes")
    return rep


def lattice_validator_sweep(max_beta_weight: int = 8) -> SweepReport:
    """The three socle-lattice validators agree on every row/column-monotone filling."""
    rep = SweepReport("lattice-equivalence", max_beta=max_beta_weight)
    for alpha, beta, gamma in shape_triples(max_beta_weight):
        for t in iter_st12_fillings(alpha, beta, gamma):
            rep.cases += 1
            a = check_socle(t)
            b = check_st3_prime(t)
            try:
                for level in range(1, t.max_entry()):
                    build_matching(t, level)
                c = True
            except MatchingFailed:
                c = False
            if not (a == b == c):
                rep.fail(f"{(alpha, beta, gamma)}: validators disagree ({a},{b},{c})")
    return rep
