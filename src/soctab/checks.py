"""Exhaustive and randomized verification sweeps.

Each sweep returns a small report with counters and a list of failure
descriptions; an empty list means the property held everywhere.  The
switching sweep lives in the switching module because a mismatch there
is a reportable result rather than a bug.
"""

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
from .modules import _radical_quotient_type, _socle_quotient_type, standard_module
from .partitions import beta_triple_counts, triple_order
from .realize import _IntChain
from .tableaux import _beta_chains, _chain_tableau, check_lr, check_socle


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
    for beta, n in beta_triple_counts(max_beta_weight):
        rep.cases += n
        # one search per kind finds every tableau on beta; a shape that no
        # search found has no tableau of either kind, so its counts agree
        socle, lr = _beta_chains(beta, "socle"), _beta_chains(beta, "lr")
        keys = {*socle, *lr, *((gamma, alpha) for alpha, gamma in lr)}
        for alpha, gamma in sorted(keys, key=triple_order):
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


def _check_primes(primes):
    """The primes as a tuple, checked before a sweep starts: ValueError if
    there are none, and ``BadPrime`` for a modulus that is not a prime."""
    primes = tuple(primes)
    if not primes:
        raise ValueError("a sweep needs at least one prime")
    for p in primes:
        standard_module(p, ())  # raises BadPrime
    return primes


def realize_sweep(max_beta_weight: int, primes=(2, 3)) -> SweepReport:
    """Every socle tableau is realized exactly by its constructed embedding.
    The tableaux are checked on every CPU this process may use (``_shards``)."""
    # imported here: without cached bytecode, every import of the package
    # would compile the driver, and a sweep that does not use it would pay
    from . import _shards

    primes = _check_primes(primes)
    rep = SweepReport("realize-roundtrip", max_beta=max_beta_weight, primes=list(primes))
    items = []
    for beta, _ in beta_triple_counts(max_beta_weight):
        chains = _beta_chains(beta, "socle")
        for alpha, gamma in sorted(chains, key=triple_order):
            shape = (alpha, beta, gamma)
            items += [(shape, chain) for chain in chains[alpha, gamma]]

    def realize(item):
        shape, chain = item
        # the enumerator's chains are valid, so nothing is checked again
        built = _IntChain(_chain_tableau(chain, "socle"))
        size = sum(shape[0])
        out = []
        for p in primes:
            # layer l has weight |beta| - dim soc^l U, so layers 1..s fix each
            # dim soc^l U; with dim U = |alpha| = dim soc^s U they fix the type
            # of U, and layer s is M/U.  So this holds iff the shape and the
            # chain match, and only a miss reads both, to word its failure.
            # The levels certified over the integers serve every prime; the
            # embedding at p is built only where they are missing or miss
            if built.certified_levels(p) == (size, chain[1:]):
                continue
            x = built.embedding(p)
            if x.sub.dim == size and all(
                _socle_quotient_type(x.ambient, x.sub, ell) == chain[ell] for ell in range(1, len(chain))
            ):
                continue
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

    primes = _check_primes(primes)
    rep = SweepReport("realize-lr-roundtrip", max_beta=max_beta_weight, primes=list(primes))
    items = []
    for beta, _ in beta_triple_counts(max_beta_weight):
        chains = _beta_chains(beta, "lr")
        mirrors = {key: set(found) for key, found in _beta_chains(beta, "socle").items()}
        for alpha, gamma in sorted(chains, key=triple_order):
            shape, targets = (alpha, beta, gamma), mirrors.get((gamma, alpha), ())
            items += [(shape, chain, targets) for chain in chains[alpha, gamma]]

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
    primes = _check_primes(primes)
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
    primes = _check_primes(primes)
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

