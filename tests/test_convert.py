import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import DUAL_LR_M2, SOCLE_M2
import oracles
from oracles import basis, intersection, is_horizontal_strip, is_subspace, rank, row_space, to_chain
from soctab import checks, convert
from soctab.convert import (
    InconsistentMatrix,
    defect,
    defect_table,
    duallr_to_hom,
    duallr_to_socle,
    entry_multiplicities,
    hom_to_duallr,
    hom_to_socle,
    socle_to_duallr,
    socle_to_hom,
    tableau_from_mu,
)
from soctab.embeddings import (
    BadIndex,
    HomMatrix,
    direct_sum,
    dual_embedding,
    embedding_from_spec,
    embedding_spec,
    hom_matrix,
    load_fixture,
    lr_tableau,
    picket,
    random_corpus,
    socle_tableau,
)
from soctab.modules import BadPrime, Subspace, quotient_type
from soctab.partitions import contains, partitions_of, subdiagrams, transpose, weight
from soctab.tableaux import InvalidTableau, SkewTableau, _beta_chains, iter_tableaux


def test_socle_to_hom_examples():
    h = socle_to_hom(socle_tableau(picket(2, 4, 5)))
    assert h.value(4, 5) == 5
    m2 = load_fixture("m2")
    hm = socle_to_hom(SOCLE_M2)
    assert hm == hom_matrix(m2)
    # row 0 accumulates the row lengths of the ambient shape
    beta_rows = transpose((5, 3, 2))
    for m in range(hm.M + 1):
        assert hm.value(0, m) == sum(beta_rows[:m])


def test_hom_to_socle_round_trip():
    h = hom_matrix(load_fixture("m2"))
    assert hom_to_socle(h) == SOCLE_M2
    h1 = hom_matrix(load_fixture("m1"))
    assert hom_to_socle(h1) == socle_tableau(load_fixture("m1"))
    z = hom_matrix(picket(2, 0, 0))
    t = hom_to_socle(z)
    assert t.beta == () and t.entries == {}


def test_hom_to_socle_rejects_tampered():
    h = hom_matrix(load_fixture("m2")).to_json_dict()
    h["h"][0][0] = 1
    with pytest.raises(InconsistentMatrix):
        hom_to_socle(HomMatrix.from_json_dict(h))
    h2 = hom_matrix(load_fixture("m2")).to_json_dict()
    h2["h"][2][3] += 1
    with pytest.raises(InconsistentMatrix):
        hom_to_socle(HomMatrix.from_json_dict(h2))


def test_duallr_to_hom():
    assert duallr_to_hom(DUAL_LR_M2) == socle_to_hom(SOCLE_M2)
    # picket: single column dual LR tableau
    g = lr_tableau(dual_embedding(picket(2, 4, 5)))
    assert duallr_to_hom(g) == hom_matrix(picket(2, 4, 5))
    # whole-subspace case: every entry of a row equals the accumulated
    # ambient row lengths, independent of the picket subspace length
    full = picket(2, 3, 3)
    gfull = lr_tableau(dual_embedding(full))
    hf = duallr_to_hom(gfull)
    beta_rows = transpose((3,))
    for r in range(hf.L + 1):
        for m in range(r, hf.M + 1):
            assert hf.value(r, m) == sum(beta_rows[:m])


def test_hom_to_duallr():
    h = hom_matrix(load_fixture("m2"))
    assert hom_to_duallr(h) == DUAL_LR_M2
    z = hom_matrix(picket(2, 0, 0))
    t = hom_to_duallr(z)
    assert t.beta == () and t.entries == {}


def test_direct_conversions():
    assert socle_to_duallr(SOCLE_M2) == DUAL_LR_M2
    assert duallr_to_socle(DUAL_LR_M2) == SOCLE_M2
    empty = SkewTableau((), (2, 1), (2, 1), {})
    out = socle_to_duallr(empty)
    assert out.shape == ((2, 1), (2, 1), ())
    back = duallr_to_socle(out)
    assert back == empty


def test_direct_conversions_check_the_swapped_shape(monkeypatch):
    # the shape check is a raised error, so it holds under python -O too
    import soctab.convert as convert

    monkeypatch.setattr(convert, "_chain_tableau", lambda chain, view: SOCLE_M2)
    with pytest.raises(InvalidTableau, match="swapped shape"):
        socle_to_duallr(SOCLE_M2)
    # a valid socle tableau of another shape
    monkeypatch.setattr(convert, "_chain_tableau", lambda chain, view: SkewTableau((), (2, 1), (2, 1), {}))
    with pytest.raises(InvalidTableau, match="swapped shape"):
        duallr_to_socle(DUAL_LR_M2)


def test_triangle_coherence_exhaustive():
    # all six conversion paths commute on every socle tableau up to weight 10
    for wgt in range(0, 11):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                for alpha in partitions_of(weight(beta) - weight(gamma)):
                    for t in iter_tableaux(alpha, beta, gamma, kind="socle"):
                        h = socle_to_hom(t)
                        g = socle_to_duallr(t)
                        assert hom_to_duallr(h) == g
                        assert duallr_to_hom(g) == h
                        assert hom_to_socle(h) == t
                        assert duallr_to_socle(g) == t


def test_bijection_small():
    for wgt in range(0, 9):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                for alpha in partitions_of(weight(beta) - weight(gamma)):
                    socle = list(iter_tableaux(alpha, beta, gamma, kind="socle"))
                    lr_swapped = set(iter_tableaux(gamma, beta, alpha, kind="lr"))
                    images = {socle_to_duallr(t) for t in socle}
                    assert len(images) == len(socle)
                    assert images == lr_swapped


# a triple with two tableaux of each kind, the only alpha of its
# (beta, gamma) whose chains have three members
TWO = ((2, 1), (3, 2, 1), (2, 1))


def _in_two(chain):
    return (chain[0], chain[-1], len(chain)) == (TWO[1], TWO[2], 3)


def test_count_sweep_reports_an_image_outside_the_target_set(monkeypatch):
    from soctab import checks

    real = checks._socle_chain_to_duallr
    monkeypatch.setattr(
        checks, "_socle_chain_to_duallr", lambda c: real(c)[::-1] if _in_two(c) else real(c)
    )
    assert checks.count_symmetry_sweep(6).failures == [
        f"{TWO}: conversion left the target set",
        f"{TWO}: conversion is not injective",
    ]


def test_count_sweep_reports_a_non_injective_conversion(monkeypatch):
    from soctab import checks

    real = checks._socle_chain_to_duallr
    first = []

    def merged(chain):
        if _in_two(chain):
            first.append(chain)
            chain = first[0]
        return real(chain)

    monkeypatch.setattr(checks, "_socle_chain_to_duallr", merged)
    assert checks.count_symmetry_sweep(6).failures == [f"{TWO}: conversion is not injective"]
    assert len(first) == 2


def test_count_sweep_reports_a_lost_socle_tableau(monkeypatch):
    from soctab import checks

    real = checks._beta_chains

    def dropping(beta, kind):
        got = real(beta, kind)
        if kind == "socle" and beta == TWO[1]:
            got[TWO[0], TWO[2]] = got[TWO[0], TWO[2]][1:]
        return got

    monkeypatch.setattr(checks, "_beta_chains", dropping)
    assert checks.count_symmetry_sweep(6).failures == [f"{TWO}: socle=1 lr=2 swapped=2"]


def test_count_sweep_equals_the_walk_over_every_shape_triple():
    # the sweep visits only the shapes its searches found
    from soctab import checks

    for bound in range(10):
        got, want = checks.count_symmetry_sweep(bound), oracles.count_symmetry_walk(bound)
        assert got.to_json_dict() == want.to_json_dict(), bound


def test_count_sweep_reports_a_faulty_conversion_in_the_order_of_the_walk(monkeypatch):
    # the first layer of the image dropped on some chains
    from soctab import checks

    real = checks._socle_chain_to_duallr
    monkeypatch.setattr(
        checks, "_socle_chain_to_duallr", lambda chain: real(chain)[1:] if sum(map(sum, chain)) % 3 == 0 else real(chain)
    )
    got, want = checks.count_symmetry_sweep(7), oracles.count_symmetry_walk(7)
    assert len(got.failures) > 100
    assert {f.split(": ")[1] for f in got.failures} == {
        "conversion left the target set",
        "conversion is not injective",
    }
    assert got.to_json_dict() == want.to_json_dict()


def test_count_sweep_visits_a_shape_that_only_one_lookup_holds(monkeypatch):
    # on (3,2,1) no socle chain is found, and only the LR keys with alpha >= gamma
    # are: a shape with alpha > gamma is then held by the LR lookup alone, one
    # with alpha < gamma by the swapped LR lookup alone; on (4,2,1) no LR chain
    # is found, so each shape is held by the socle lookup alone
    from soctab import checks

    real = checks._beta_chains

    def dropping(beta, kind):
        got = real(beta, kind)
        if (beta, kind) in (((3, 2, 1), "socle"), ((4, 2, 1), "lr")):
            return {}
        if beta == (3, 2, 1):
            return {key: chains for key, chains in got.items() if key[0] >= key[1]}
        return got

    monkeypatch.setattr(checks, "_beta_chains", dropping)
    got, want = checks.count_symmetry_sweep(7), oracles.count_symmetry_walk(7)
    assert "((2, 1), (3, 2, 1), (1, 1, 1)): socle=0 lr=1 swapped=0" in got.failures
    assert "((1, 1, 1), (3, 2, 1), (2, 1)): socle=0 lr=0 swapped=1" in got.failures
    assert "((3, 1), (4, 2, 1), (1, 1, 1)): socle=1 lr=0 swapped=0" in got.failures
    assert got.to_json_dict() == want.to_json_dict()


def test_socle_chain_conversion_equals_the_per_chain_oracle():
    for wgt in range(11):
        for beta in partitions_of(wgt):
            for chains in _beta_chains(beta, "socle").values():
                for chain in chains:
                    assert convert._socle_chain_to_duallr(chain) == oracles.socle_chain_to_duallr(chain)


def _outcome(conversion, chain):
    try:
        return conversion(chain)
    except InvalidTableau as exc:
        return str(exc)


def test_socle_chain_conversion_equals_the_oracle_on_every_chain_of_strips():
    # strip chains that are no socle chains raise the oracle's error, and
    # padding zeros on the members below beta change nothing
    parts = [p for wgt in range(6) for p in partitions_of(wgt)]
    chains = [(p,) for p in parts]
    seen = 0
    while chains:
        chain = chains.pop()
        seen += 1
        got = _outcome(convert._socle_chain_to_duallr, chain)
        assert got == _outcome(oracles.socle_chain_to_duallr, chain), chain
        padded = chain[:1] + tuple(p + (0,) for p in chain[1:])
        assert _outcome(convert._socle_chain_to_duallr, padded) == got, chain
        if len(chain) < 4:
            chains += [chain + (p,) for p in parts if contains(chain[-1], p) and is_horizontal_strip(chain[-1], p)]
    assert seen == 968


def test_socle_chain_conversion_raises_on_bad_chains_every_time():
    # an empty strip first: the one layer of the first chain is (), not beta,
    # and layer 0 of the second has the rows (0, 1)
    for chain, msg in [
        (((1,), (1,), ()), "does not reach the ambient shape"),
        (((2,), (2,), (1,)), "derived layer is not a partition"),
    ]:
        for _ in range(2):  # the layer cache does not remember errors
            with pytest.raises(InvalidTableau, match=msg):
                convert._socle_chain_to_duallr(chain)
            with pytest.raises(InvalidTableau, match=msg):
                oracles.socle_chain_to_duallr(chain)


def test_conversion_caches_are_bounded():
    # socle_to_duallr takes any valid tableau, so no cache may grow without limit
    for cached in (convert._dual_layer, convert._boxes_below):
        assert cached.cache_info().maxsize is not None


def test_socle_chain_conversion_is_socle_to_duallr():
    # the chain core on canonical chains gives the tableau conversion's chain
    for wgt in range(0, 8):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                for alpha in partitions_of(wgt - weight(gamma)):
                    for t in iter_tableaux(alpha, beta, gamma, kind="socle"):
                        chain = convert._socle_chain_to_duallr(to_chain(t, "socle"))
                        assert chain == to_chain(socle_to_duallr(t), "lr")


def test_defect():
    m2 = load_fixture("m2")
    assert defect(m2, 2, 4) == 1
    mu = entry_multiplicities(SOCLE_M2)
    h = hom_matrix(m2)
    for ell in range(1, 5):
        for m in range(ell + 1, 10):
            d = defect(m2, ell, m)
            assert d == mu.get((ell, m - ell), 0)
            assert d == (
                h.value(ell, m - 1)
                - h.value(ell, m)
                - h.value(ell - 1, m - 2)
                + h.value(ell - 1, m - 1)
            )
    # row sums reproduce the content
    acols = transpose((4, 2))
    for ell in range(1, 5):
        assert sum(defect(m2, ell, ell + r) for r in range(1, 7)) == acols[ell - 1]
    z = picket(2, 0, 0)
    assert all(defect(z, ell, m) == 0 for ell in (1, 2) for m in (2, 3, 4) if m > ell)
    with pytest.raises(BadIndex):
        defect(m2, 2, 2)
    with pytest.raises(BadIndex):
        defect(m2, 0, 3)


def test_defect_table_matches_defect():
    xs = [load_fixture(name, prime=p) for name in ("m1", "m2", "m3") for p in (2, 3)]
    xs += [embedding_from_spec(spec, 2) for spec in random_corpus(32, 20, 8)]
    for x in xs + [picket(2, 0, 0)]:
        a1 = x.alpha[0] if x.alpha else 0
        b1 = x.beta[0] if x.beta else 0
        cells = [(ell, m) for ell in range(1, a1 + 1) for m in range(ell + 1, a1 + b1 + 1)]
        table = defect_table(x)
        assert list(table) == cells
        assert table == {(ell, m): defect(x, ell, m) for ell, m in cells}


def test_defect_table_solves_each_picket_space_once(monkeypatch):
    calls = []
    solve = convert._picket_constraints
    monkeypatch.setattr(
        convert, "_picket_constraints", lambda x, ell, m: calls.append((ell, m)) or solve(x, ell, m)
    )
    m2 = load_fixture("m2")
    assert len(defect_table(m2)) == 26
    # the 26 defects of m2 need 38 distinct picket spaces, each solved once
    assert len(calls) == len(set(calls)) == 38


def test_defect_at_a_large_prime():
    # a 3-dimensional module admits p = 1000000007; the defect builds no
    # larger module, so the int64 bound of a bigger one cannot refuse it
    spec = {"beta": [3], "generators": [[[1, 0, 0]]]}
    x2, xbig = embedding_from_spec(spec, 2), embedding_from_spec(spec, 1000000007)
    assert hom_matrix(xbig) == hom_matrix(x2)
    assert defect_table(xbig) == defect_table(x2)
    assert defect_table(x2)[(1, 4)] == 1
    for ell in range(1, 4):
        for m in range(ell + 1, 8):
            assert defect(xbig, ell, m) == defect(x2, ell, m)


def test_a_corpus_spec_of_rank_depending_on_p_fails_both_sweeps(monkeypatch):
    # the three generators sum to 0 mod 2 only, so the subspace has dimension
    # 2 at p = 2 and 3 at p = 3, and its invariants differ between the primes
    spec = embedding_spec([1, 1, 1], [[[1], [0], [1]], [[0], [1], [1]], [[1], [1], [0]]])
    monkeypatch.setattr(checks, "random_corpus", lambda seed, count, weight: [spec])
    assert [embedding_from_spec(spec, p).sub.dim for p in (2, 3)] == [2, 3]
    rep = checks.hom_triple_sweep(corpus_count=1, max_beta_weight=3)
    assert rep.failures == ["corpus[0]: outputs differ between primes 2 and 3"]
    rep = checks.defect_sweep(corpus_count=1, max_beta_weight=3)
    assert rep.failures == ["corpus[0]: defect tables differ between primes"]


@pytest.mark.parametrize("sweep", [checks.hom_triple_sweep, checks.defect_sweep], ids=["hom", "defect"])
def test_the_corpus_sweeps_check_their_primes_before_any_embedding(monkeypatch, sweep):
    # no prime is an error, not an IndexError; a modulus that is not a prime
    # is refused before any embedding is built
    monkeypatch.setattr(checks, "_corpus_embeddings", lambda *args: pytest.fail("an embedding was built"))
    with pytest.raises(ValueError, match=r"^a sweep needs at least one prime$"):
        sweep(corpus_count=1, max_beta_weight=3, primes=())
    for primes in ((4,), (2, 3, 9)):
        with pytest.raises(BadPrime, match=r"is not a prime$"):
            sweep(corpus_count=1, max_beta_weight=3, primes=primes)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_random_corpora_agree_at_two_large_primes(seed):
    # a 0/1 spec of weight <= 5 spans the same dimension at both primes, and
    # dim * (p - 1)**2 stays below the BadPrime bound for every module there
    primes = (1000003, 100000007)
    for sweep in (checks.hom_triple_sweep, checks.defect_sweep):
        rep = sweep(corpus_seed=seed, corpus_count=30, max_beta_weight=5, primes=primes)
        assert rep.failures == [], rep.failures[:3]
        assert rep.cases == 33


# The defect sequence depends only on (p, ell, m).  The analysis of an
# embedding reaches m <= alpha_1 + beta_1 <= 2 beta_1, which is at most 10
# on the bundled fixtures and at most 20 on the weight-10 corpus of the
# acceptance sweeps.
DEFECT_SEQUENCE_MAX_M = 20


def test_defect_sequence_bound_covers_the_sweeps():
    specs = random_corpus(20260810, 200, 10)
    b1s = [load_fixture(name).beta[0] for name in ("m1", "m2", "m3")]
    b1s += [spec["beta"][0] for spec in specs]
    assert 2 * max(b1s) <= DEFECT_SEQUENCE_MAX_M


def check_defect_sequence(prime, ell, m):
    """Structural check of the short exact sequence behind the defect.

    The map from the length-(m-1) picket into the direct sum of the
    length-m and length-(m-2) pickets is injective, compatible with the
    subspaces, and has cokernel of type (m-1).
    """
    top = picket(prime, ell, m - 1)
    mid = direct_sum(picket(prime, ell, m), picket(prime, ell - 1, m - 2))
    f = np.zeros((mid.ambient.dim, m - 1), dtype=np.int64)
    for i in range(m - 1):
        f[i + 1, i] = 1  # multiplication by the uniformizer into the first block
    for i in range(m - 2):
        f[m + i, i] = (-1) % prime  # negated canonical surjection into the second
    assert rank(f, prime) == m - 1, "picket map is not injective"
    img_sub = row_space((basis(top.sub) @ f.T) % prime, prime)
    assert is_subspace(img_sub, basis(mid.sub), prime), "picket map does not respect the subspaces"
    img = Subspace(mid.ambient, (np.eye(m - 1, dtype=np.int64) @ f.T) % prime)
    assert quotient_type(mid.ambient, img) == (m - 1,), "cokernel of the picket map has the wrong type"
    # sub-level exactness: the middle subspace meets the image exactly in the
    # image of the top subspace, so the quotient carries a length-(ell-1) sub
    met = intersection(basis(mid.sub), basis(img), prime)
    assert met.shape[0] == ell, "picket map subs are not exact in the middle"


@pytest.mark.parametrize("prime", [2, 3, 5, 7])
def test_defect_sequence_is_exact(prime):
    for m in range(2, DEFECT_SEQUENCE_MAX_M + 1):
        for ell in range(1, m):
            check_defect_sequence(prime, ell, m)


def test_tampered_matrices_never_crash():
    import random as _random

    from soctab.convert import InconsistentMatrix as IM

    rng = _random.Random(31)
    base = hom_matrix(load_fixture("m2")).to_json_dict()
    for _ in range(200):
        data = {"L": base["L"], "M": base["M"], "h": [list(r) for r in base["h"]]}
        for _ in range(rng.randint(1, 3)):
            ell = rng.randrange(data["L"] + 1)
            m = rng.randrange(ell, data["M"] + 1)
            data["h"][ell][m] = max(0, data["h"][ell][m] + rng.choice((-2, -1, 1, 2)))
        h = HomMatrix.from_json_dict(data)
        for fn in (hom_to_socle, hom_to_duallr):
            try:
                out = fn(h)
            except (IM, BadIndex):
                continue
            # a tampered matrix that still converts must round-trip exactly
            back = socle_to_hom(out) if fn is hom_to_socle else duallr_to_hom(out)
            assert back == h


def test_tableau_from_mu_rejects():
    with pytest.raises(InconsistentMatrix):
        tableau_from_mu("socle", (2, 1), {(1, 1): 5})
    with pytest.raises(InconsistentMatrix):
        tableau_from_mu("socle", (2, 1), {(1, 1): -1})
