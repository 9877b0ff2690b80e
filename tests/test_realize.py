from math import isqrt

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import DUAL_LR_M2, SOCLE_M1, SOCLE_M2
from oracles import soc_layer
from soctab import checks, linalg, switching
from soctab.embeddings import (
    embedding_from_json,
    embedding_to_json,
    lr_tableau,
    picket,
    socle_tableau,
)
from soctab.modules import (
    Subspace,
    _is_prime,
    block_offsets,
    module_type,
    quotient_type,
    standard_module,
)
from soctab.partitions import (
    partition,
    partitions_of,
    shape_triples,
    subdiagrams,
    transpose,
    weight,
)
from soctab.realize import (
    ConditionStarViolated,
    EpiChain,
    _IntChain,
    _socle_condition,
    build_chain,
    realize_lr,
    realize_socle,
)
from soctab.tableaux import InvalidTableau, SkewTableau, iter_tableaux


def verify_epi_chain(epi, expected_alpha=None):
    """Every violation of the properties of a realizing chain, as messages.

    Each map is onto with a semisimple kernel, consecutive maps satisfy
    the socle condition soc(Ker f2 f1) = Ker f1, the kernel lengths are
    the columns of ``expected_alpha``, and the quotients along the socle
    filtration of the composite kernel are the stages.  Empty when clean.
    """
    p = epi.prime
    problems = []
    kernels = [linalg.nullspace(f, p) for f in epi.maps]
    for i, (f, ker) in enumerate(zip(epi.maps, kernels), 1):
        src, dst = epi.stages[i - 1], epi.stages[i]
        if f.shape != (dst.dim, src.dim):
            problems.append(f"map {i} has shape {f.shape}, expected {(dst.dim, src.dim)}")
            continue
        if src.dim - ker.shape[0] != dst.dim:
            problems.append(f"map {i} is not surjective")
        if src.shift(ker, 1).any():
            problems.append(f"kernel of map {i} is not semisimple")
    for i in range(1, len(epi.maps)):
        f1, f2 = epi.maps[i - 1], epi.maps[i]
        src = epi.stages[i - 1]
        ker12 = Subspace(src, linalg.nullspace((f2 @ f1) % p, p))
        if soc_layer(src, ker12, 1) != Subspace(src, kernels[i - 1]):
            problems.append(f"socle condition fails between maps {i} and {i + 1}")
    if expected_alpha is not None:
        acols = transpose(partition(expected_alpha))
        for i, (f, ker) in enumerate(zip(epi.maps, kernels), 1):
            # rank(f) = f.shape[1] - dim ker f
            kdim = epi.stages[i - 1].dim - (f.shape[1] - ker.shape[0])
            want = acols[i - 1] if i <= len(acols) else 0
            if kdim != want:
                problems.append(f"kernel of map {i} has length {kdim}, expected {want}")
    # quotients along the socle filtration of the composite kernel
    if not problems and epi.maps:
        amb = epi.stages[0]
        sub = Subspace(amb, linalg.nullspace(oracles.composite(epi), p))
        for ell in range(len(epi.stages)):
            got = quotient_type(amb, soc_layer(amb, sub, ell))
            want = module_type(epi.stages[ell])
            if got != want:
                problems.append(
                    f"quotient by socle layer {ell} has type {got}, expected {want}"
                )
    return problems


def test_build_chain_shape():
    epi = build_chain(SOCLE_M2, 2)
    assert [c.dim for c in epi.stages] == [10, 8, 6, 5, 4]
    assert [module_type(c) for c in epi.stages] == [
        (5, 3, 2), (4, 2, 2), (3, 2, 1), (3, 1, 1), (3, 1),
    ]
    # kernel lengths along the chain are the entry counts
    for f, want in zip(epi.maps, transpose((4, 2))):
        assert f.shape[1] - linalg.rank(f, 2) == want
    assert verify_epi_chain(epi, (4, 2)) == []


def test_single_column_chain():
    col = socle_tableau(picket(2, 4, 5))
    epi = build_chain(col, 2)
    assert [c.dim for c in epi.stages] == [5, 4, 3, 2, 1]
    # every map is the canonical surjection; no correction blocks appear
    for f in epi.maps:
        rows, cols = f.shape
        assert np.array_equal(f, np.eye(rows, cols, dtype=np.int64))
    assert verify_epi_chain(epi, (4,)) == []


def test_empty_chain():
    t = SkewTableau((), (3, 1), (3, 1), {})
    epi = build_chain(t, 2)
    assert len(epi.maps) == 0
    assert verify_epi_chain(epi) == []
    x = realize_socle(t, 2)
    assert x.sub.dim == 0
    assert x.shape == ((), (3, 1), (3, 1))


def test_uncorrected_chain_reports_violations(monkeypatch):
    from soctab import realize

    # identity corrections leave the canonical surjections; keep the chain
    # that build_chain refuses, to read every violation off it
    monkeypatch.setattr(realize, "_correction", lambda t, layer, offs, ell: [[r] for r in range(sum(layer))])
    built = []
    monkeypatch.setattr(realize, "EpiChain", lambda *args: built.append(EpiChain(*args)) or built[-1])
    with pytest.raises(ConditionStarViolated, match=r"^socle condition fails between stages 1,2$"):
        build_chain(SOCLE_M2, 2)
    problems = verify_epi_chain(built[0], (4, 2))
    assert problems == [
        "socle condition fails between maps 1 and 2",
        "socle condition fails between maps 2 and 3",
        "socle condition fails between maps 3 and 4",
    ]


def test_build_chain_checks_every_map(monkeypatch):
    from soctab import realize

    # identity corrections: every map stays surjective, condition star fails first at 1,2
    monkeypatch.setattr(realize, "_correction", lambda t, layer, offs, ell: [[r] for r in range(sum(layer))])
    with pytest.raises(ConditionStarViolated, match=r"^socle condition fails between stages 1,2$"):
        build_chain(SOCLE_M2, 2)
    # zero corrections: the first corrected map is not onto
    monkeypatch.setattr(realize, "_correction", lambda t, layer, offs, ell: [[] for _ in range(sum(layer))])
    with pytest.raises(ConditionStarViolated, match=r"^stage 1 map is not surjective$"):
        build_chain(SOCLE_M2, 2)


def test_condition_star_fails_where_the_layer_check_fails(monkeypatch):
    from soctab import realize

    # identity corrections break condition star on some chains and not on others
    monkeypatch.setattr(realize, "_correction", lambda t, layer, offs, ell: [[r] for r in range(sum(layer))])
    built = []
    monkeypatch.setattr(realize, "EpiChain", lambda *args: built.append(EpiChain(*args)) or built[-1])
    builds = violated = 0
    for sh in shape_triples(7):
        for t in iter_tableaux(*sh, kind="socle"):
            for p in (2, 3):
                try:
                    build_chain(t, p)
                    got = None
                except ConditionStarViolated as exc:
                    got = str(exc)
                # the first pair that the nullspace and socle-layer check rejects
                layer_check = [
                    msg.split()[-3:] for msg in verify_epi_chain(built[-1])
                    if msg.startswith("socle condition fails")
                ]
                want = None
                if layer_check:
                    i, _, j = layer_check[0]
                    want = f"socle condition fails between stages {i},{j}"
                assert got == want, (t.to_json_dict(), p)
                builds += 1
                violated += got is not None
    assert (builds, violated) == (1274, 376)


@st.composite
def map_pairs(draw):
    """Matrices f1: C -> F_p^k and f2: F_p^k -> F_p^m on a random stage C, |C| <= 7."""
    p = draw(st.sampled_from([2, 3, 5]))
    stage = standard_module(p, draw(st.sampled_from([b for w in range(8) for b in partitions_of(w)])))
    k, m = draw(st.integers(0, stage.dim)), draw(st.integers(0, stage.dim))
    entry = st.sampled_from([0, 0, 1, p - 1])

    def matrix(rows, cols):
        cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)

    return stage, matrix(k, stage.dim), matrix(m, k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(map_pairs())
def test_socle_condition_agrees_with_the_socle_layer_check(case):
    stage, f1, f2 = case
    p = stage.prime
    ker1 = linalg.nullspace(f1, p)
    ker12 = Subspace(stage, linalg.nullspace((f2 @ f1) % p, p))
    # Ker f1 need not lie in the socle here, nor Ker f2 f1 be invariant
    expected = soc_layer(stage, ker12, 1) == Subspace(stage, ker1)
    # the arguments as the construction holds them: |S|, high(1), (f2 f1)[:, S] mod p
    socle = [o + n - 1 for o, n in zip(block_offsets(stage.parts), stage.parts)]
    prod = ((f2 @ f1[:, socle]) % p).tolist()
    assert _socle_condition(len(socle), stage._high_cols(1), prod, ker1.tolist(), p) == expected


def test_realize_fixtures():
    for t in (SOCLE_M2, SOCLE_M1):
        for p in (2, 3):
            x = realize_socle(t, p)
            assert x.shape == ((4, 2), (5, 3, 2), (3, 1))
            assert socle_tableau(x) == t
    y = realize_socle(socle_tableau(picket(2, 4, 5)), 2)
    assert socle_tableau(y) == socle_tableau(picket(2, 4, 5))
    assert lr_tableau(y) == lr_tableau(picket(2, 4, 5))


def test_realize_rejects_invalid():
    bad = dict(SOCLE_M2.entries)
    bad[(4, 1)], bad[(5, 1)] = 1, 2
    t = SkewTableau((4, 2), (5, 3, 2), (3, 1), bad)
    with pytest.raises(InvalidTableau):
        realize_socle(t, 2)


def test_realize_dimensions():
    x = realize_socle(SOCLE_M2, 2)
    assert x.sub.dim == weight((4, 2))
    assert x.gamma == (3, 1)


def test_realize_lr():
    w = realize_lr(DUAL_LR_M2, 2)
    assert lr_tableau(w) == DUAL_LR_M2
    assert w.shape == ((3, 1), (5, 3, 2), (4, 2))
    g45 = lr_tableau(picket(2, 4, 5))
    v = realize_lr(g45, 2)
    assert lr_tableau(v) == g45
    assert socle_tableau(v) == socle_tableau(picket(2, 4, 5))
    empty = SkewTableau((), (2, 1), (2, 1), {})
    z = realize_lr(empty, 2)
    assert z.sub.dim == 0


def test_realize_lr_rejects_non_lr_tableaux():
    for t in (SOCLE_M2, SOCLE_M1):
        with pytest.raises(InvalidTableau, match=r"^LR tableau expected$"):
            realize_lr(t, 2)


def test_exhaustive_round_trip_small():
    for wgt in range(0, 8):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                for alpha in partitions_of(weight(beta) - weight(gamma)):
                    for t in iter_tableaux(alpha, beta, gamma, kind="socle"):
                        x = realize_socle(t, 2)
                        assert socle_tableau(x) == t
                        assert x.shape == (alpha, beta, gamma)
                    for t in iter_tableaux(alpha, beta, gamma, kind="lr"):
                        assert lr_tableau(realize_lr(t, 2)) == t


def test_realize_lr_sweep():
    # every LR tableau with |beta| <= 6 at p = 2 and 3; as many as socle tableaux
    rep = checks.realize_lr_sweep(6)
    assert rep.ok, rep.failures[:5]
    assert rep.cases == 295


def _count_check_socle(monkeypatch):
    """Calls of check_socle, wherever the package binds it, from now on."""
    import sys

    from soctab import tableaux

    check_socle = tableaux.check_socle
    calls = []

    def counting(t):
        calls.append(t)
        return check_socle(t)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "soctab" and getattr(module, "check_socle", None) is check_socle:
            monkeypatch.setattr(module, "check_socle", counting)
    return calls


def test_sweeps_do_not_revalidate_enumerated_tableaux(monkeypatch):
    # the enumerator builds socle tableaux from valid chains
    calls = _count_check_socle(monkeypatch)
    rep = checks.realize_sweep(5)
    assert rep.ok and rep.cases > 0
    assert calls == []
    assert switching.check_conjecture(5).tableaux > 0
    assert calls == []


def test_realize_lr_checks_the_mirrored_socle_tableau_once(monkeypatch):
    calls = _count_check_socle(monkeypatch)
    ts = [t for sh in shape_triples(6) for t in iter_tableaux(*sh, kind="lr")]
    for t in ts:
        before = len(calls)
        realize_lr(t, 2)
        assert len(calls) == before + 1
    assert len(ts) == 295
    # the public socle entry point keeps its own check
    realize_socle(SOCLE_M2, 2)
    assert len(calls) == 296


def test_realize_lr_sweep_validates_no_enumerated_or_mirrored_tableau(monkeypatch):
    # the mirror of each LR chain is checked by membership among the enumerated
    # socle chains, so neither check_lr nor check_socle runs
    from soctab import tableaux

    check_axioms = tableaux._check_axioms
    calls = []
    monkeypatch.setattr(
        tableaux, "_check_axioms", lambda t, increasing: calls.append(increasing) or check_axioms(t, increasing)
    )
    rep = checks.realize_lr_sweep(6)
    assert rep.ok and rep.cases == 295
    assert calls == []
    # the public conversion keeps both checks
    realize_lr(DUAL_LR_M2, 2)
    assert calls == [True, False]


def test_realize_lr_sweep_reports_a_mirror_that_is_not_a_socle_chain(monkeypatch):
    # a mirror cut short of its last layer (wherever the mirror has two) ends
    # at the wrong shape: each LR shape with gamma != () is reported, none built
    mirror = checks._duallr_chain_to_socle
    monkeypatch.setattr(checks, "_duallr_chain_to_socle", lambda chain: mirror(chain)[:-1] or mirror(chain))
    rep = checks.realize_lr_sweep(2)
    assert rep.cases == 9
    assert rep.failures == [
        f"{shape}: mirror is not an enumerated socle chain"
        for shape in [
            ((), (1,), (1,)),
            ((1,), (1, 1), (1,)),
            ((), (1, 1), (1, 1)),
            ((1,), (2,), (1,)),
            ((), (2,), (2,)),
        ]
    ]


def test_realize_sweeps_report_every_wrong_realization(monkeypatch):
    # at p = 3 only, realize each socle tableau of shape (21, 321, 21) as the
    # other one, and the one of shape (1, 1, 0) as the empty tableau on (1)
    a, b = iter_tableaux((2, 1), (3, 2, 1), (2, 1), kind="socle")
    other = {a: b, b: a, SkewTableau((1,), (1,), (), {(1, 1): 1}): SkewTableau((), (1,), (1,), {})}
    real = checks._IntChain

    class Faulty:
        def __init__(self, t):
            self.built = {2: real(t), 3: real(other.get(t, t))}

        def embedding(self, p):
            return self.built[p].embedding(p)

    monkeypatch.setattr(checks, "_IntChain", Faulty)
    shape = ((2, 1), (3, 2, 1), (2, 1))
    assert checks.realize_sweep(6).failures == [
        "((1,), (1,), ()) p=3: wrong shape ((), (1,), (1,))",
        f"{shape} p=3: socle tableau differs",
        f"{shape} p=3: socle tableau differs",
    ]
    # the LR tableaux whose mirrors those are
    assert checks.realize_lr_sweep(6).failures == [
        "((), (1,), (1,)) p=3: lr tableau differs",
        f"{shape} p=3: lr tableau differs",
        f"{shape} p=3: lr tableau differs",
    ]


def test_construction_matches_the_numpy_oracle():
    # every socle tableau with |beta| <= 7: the integer-row construction has the
    # stages and maps of the numpy one, built again at each prime, and its
    # kernel the identical reduced echelon basis
    n = 0
    for sh in shape_triples(7):
        for t in iter_tableaux(*sh, kind="socle"):
            for p in (2, 3, 5):
                want = oracles.build_chain(t, p)
                got = build_chain(t, p)
                assert got.stages == want.stages and len(got.maps) == len(want.maps)
                for f, g in zip(got.maps, want.maps):
                    assert f.dtype == np.int64 and np.array_equal(f, g)
                assert np.array_equal(realize_socle(t, p).sub.basis, oracles.realized_basis(want))
                n += 1
    assert n == 3 * 637
    # the first tableau whose integer composite holds an entry 2, which p = 2 reduces to 0
    t = SkewTableau.from_json_dict(
        {"alpha": [4, 2], "beta": [4, 3, 2], "gamma": [2, 1], "grid": [[0, 0, 4], [0, 3, 2], [2, 1], [1]]}
    )
    assert max(map(max, _IntChain(t).composite)) == 2
    for p in (2, 3):
        want = oracles.realized_basis(oracles.build_chain(t, p))
        assert np.array_equal(realize_socle(t, p).sub.basis, want)


def test_round_trip_at_a_prime_near_the_int64_bound():
    # 999999937 is prime and 5 * (p - 1)**2 < 2**63, so modules of dimension
    # <= 5 accept it; every entry of every row stays an exact Python int
    p = 999999937
    for sh in shape_triples(5):
        for t in iter_tableaux(*sh, kind="socle"):
            x = realize_socle(t, p)
            assert x.prime == p and socle_tableau(x) == t and x.shape == t.shape
        for t in iter_tableaux(*sh, kind="lr"):
            x = realize_lr(t, p)
            assert x.prime == p and lr_tableau(x) == t and x.shape == t.shape


def test_realize_lr_lands_in_the_standard_module():
    # no change of basis is needed to serialize an LR realization
    for sh in shape_triples(6):
        for t in iter_tableaux(*sh, kind="lr"):
            for p in (2, 3):
                x = realize_lr(t, p)
                assert x.ambient is standard_module(p, t.beta)
                assert lr_tableau(embedding_from_json(embedding_to_json(x))) == t


# every socle and LR tableau with |beta| <= 6, with its kind
TABLEAUX_TO_6 = [
    (kind, t)
    for kind in ("socle", "lr")
    for sh in shape_triples(6)
    for t in iter_tableaux(*sh, kind=kind)
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(TABLEAUX_TO_6), p=st.sampled_from([2, 3, 5, 7, 11]))
def test_round_trip_at_random_primes(case, p):
    kind, t = case
    if kind == "socle":
        x = realize_socle(t, p)
        assert socle_tableau(x) == t
    else:
        x = realize_lr(t, p)
        assert lr_tableau(x) == t
    assert x.shape == t.shape and x.prime == p


TABLEAUX_TO_5 = [(kind, t) for kind, t in TABLEAUX_TO_6 if weight(t.beta) <= 5]


@st.composite
def tableaux_at_random_primes(draw):
    """A socle or LR tableau with |beta| <= 5 and a prime its module accepts:
    below 100, or anywhere up to the bound dim * (p - 1)**2 < 2**63."""
    kind, t = draw(st.sampled_from(TABLEAUX_TO_5))
    top = isqrt((2**63 - 1) // max(weight(t.beta), 1)) + 1
    p = draw(st.one_of(st.integers(2, 100), st.integers(2, top)))
    while not _is_prime(p):
        p -= 1
    return kind, t, p


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tableaux_at_random_primes())
def test_round_trip_at_any_accepted_prime(case):
    kind, t, p = case
    if kind == "socle":
        x = realize_socle(t, p)
        assert socle_tableau(x) == t
    else:
        x = realize_lr(t, p)
        assert lr_tableau(x) == t
    assert x.shape == t.shape and x.prime == p


def test_verify_rejects_bad_chains():
    from soctab.modules import standard_module

    # kernel of the zero map out of a length-2 block is not semisimple
    chain = EpiChain(
        2,
        [standard_module(2, (2,)), standard_module(2, ())],
        [np.zeros((0, 2), dtype=np.int64)],
    )
    assert any("not semisimple" in p for p in verify_epi_chain(chain))
    # a non-surjective stage map
    chain = EpiChain(
        2,
        [standard_module(2, (1,)), standard_module(2, (1,))],
        [np.zeros((1, 1), dtype=np.int64)],
    )
    assert any("not surjective" in p for p in verify_epi_chain(chain))


def test_realization_builds_no_array(monkeypatch):
    def refuse(rows, ncols):
        raise AssertionError("an int64 array was built")

    monkeypatch.setattr(linalg, "_to_array", refuse)
    assert SOCLE_M2.alpha
    for p in (2, 3, 1000003):
        assert socle_tableau(realize_socle(SOCLE_M2, p)) == SOCLE_M2


def test_the_basis_array_is_a_read_only_view_of_the_rows():
    m = standard_module(3, (3, 2))
    for sub in (Subspace(m, [[1, 2, 0, 0, 1]]), realize_socle(SOCLE_M2, 3).sub):
        assert sub.basis.tolist() == sub.rows
        with pytest.raises(ValueError):
            sub.basis[0, 0] = 2
        assert sub.basis.tolist() == sub.rows
