import json
import os
from math import isqrt

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import DUAL_LR_M2, SOCLE_M1, SOCLE_M2
from oracles import nullspace, rank, soc_layer
from soctab import checks, linalg, modules, switching
from soctab.convert import (
    defect_table,
    duallr_to_hom,
    entry_multiplicities,
    hom_to_socle,
    socle_to_duallr,
    socle_to_hom,
)
from soctab.embeddings import (
    Embedding,
    dual_embedding,
    embedding_from_json,
    embedding_to_json,
    hom_matrix,
    lr_tableau,
    picket,
    socle_tableau,
)
from soctab.modules import (
    BadPrime,
    Subspace,
    _is_prime,
    _socle_quotient_type,
    block_offsets,
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
    maps = oracles.map_arrays(epi)
    kernels = [nullspace(f, p) for f in maps]
    for i, (f, ker) in enumerate(zip(maps, kernels), 1):
        src, dst = epi.stages[i - 1], epi.stages[i]
        if f.shape != (dst.dim, src.dim):
            problems.append(f"map {i} has shape {f.shape}, expected {(dst.dim, src.dim)}")
            continue
        if src.dim - ker.shape[0] != dst.dim:
            problems.append(f"map {i} is not surjective")
        if oracles.shift(src, ker, 1).any():
            problems.append(f"kernel of map {i} is not semisimple")
    for i in range(1, len(maps)):
        f1, f2 = maps[i - 1], maps[i]
        src = epi.stages[i - 1]
        ker12 = Subspace(src, nullspace((f2 @ f1) % p, p))
        if soc_layer(src, ker12, 1) != Subspace(src, kernels[i - 1]):
            problems.append(f"socle condition fails between maps {i} and {i + 1}")
    if expected_alpha is not None:
        acols = transpose(partition(expected_alpha))
        for i, (f, ker) in enumerate(zip(maps, kernels), 1):
            # rank(f) = f.shape[1] - dim ker f
            kdim = epi.stages[i - 1].dim - (f.shape[1] - ker.shape[0])
            want = acols[i - 1] if i <= len(acols) else 0
            if kdim != want:
                problems.append(f"kernel of map {i} has length {kdim}, expected {want}")
    # quotients along the socle filtration of the composite kernel
    if not problems and epi.maps:
        amb = epi.stages[0]
        sub = Subspace(amb, nullspace(oracles.composite(epi), p))
        for ell in range(len(epi.stages)):
            got = quotient_type(amb, soc_layer(amb, sub, ell))
            want = epi.stages[ell].parts
            if got != want:
                problems.append(
                    f"quotient by socle layer {ell} has type {got}, expected {want}"
                )
    return problems


def test_build_chain_shape():
    epi = build_chain(SOCLE_M2, 2)
    assert [c.dim for c in epi.stages] == [10, 8, 6, 5, 4]
    assert [c.parts for c in epi.stages] == [
        (5, 3, 2), (4, 2, 2), (3, 2, 1), (3, 1, 1), (3, 1),
    ]
    # kernel lengths along the chain are the entry counts
    for f, want in zip(oracles.map_arrays(epi), transpose((4, 2))):
        assert f.shape[1] - rank(f, 2) == want
    assert verify_epi_chain(epi, (4, 2)) == []


def test_single_column_chain():
    col = socle_tableau(picket(2, 4, 5))
    epi = build_chain(col, 2)
    assert [c.dim for c in epi.stages] == [5, 4, 3, 2, 1]
    # every map is the canonical surjection; no correction blocks appear
    for f, src in zip(epi.maps, epi.stages):
        assert f == [[int(i == j) for j in range(src.dim)] for i in range(len(f))]
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
    ker1 = nullspace(f1, p)
    ker12 = Subspace(stage, nullspace((f2 @ f1) % p, p))
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


@pytest.mark.parametrize("sweep", [checks.realize_sweep, checks.realize_lr_sweep], ids=["socle", "lr"])
def test_the_realize_sweeps_check_their_primes_before_any_tableau(monkeypatch, sweep):
    # no prime is an error, not 23 cases that check nothing; a modulus that is
    # not a prime is refused before a construction is built, not only by the
    # tableaux with alpha = ()
    _one_cpu(monkeypatch)
    monkeypatch.setattr(checks, "_IntChain", lambda t: pytest.fail("a construction was built"))
    with pytest.raises(ValueError, match=r"^a sweep needs at least one prime$"):
        sweep(3, primes=())
    for primes in ((4,), (2, 3, 9)):
        with pytest.raises(BadPrime, match=r"is not a prime$"):
            sweep(3, primes=primes)


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


def _one_cpu(monkeypatch):
    """Run the realize sweeps' items in this process, where patched calls are counted:
    a forked shard's calls would be lost with it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def test_sweeps_do_not_revalidate_enumerated_tableaux(monkeypatch):
    # the enumerator builds socle tableaux from valid chains
    _one_cpu(monkeypatch)
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

    _one_cpu(monkeypatch)
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


@pytest.mark.parametrize(
    "sweep, chain",
    [(checks.realize_sweep, ((1,), ())), (checks.realize_lr_sweep, ((1,),))],
    ids=["realize_sweep", "realize_lr_sweep"],
)
def test_call_counts_see_a_revalidation_in_the_items_of_a_worker_shard(monkeypatch, sweep, chain):
    # item 1 of each sweep, of shape ((1,), (1,), ()), is the only one that builds
    # the socle tableau of ``chain``; with two shards item 1 runs in the forked
    # worker, whose calls this process never sees
    build = checks._chain_tableau

    def revalidating(got, view):
        t = build(got, view)
        if got == chain:
            checks.check_socle(t)
        return t

    monkeypatch.setattr(checks, "_chain_tableau", revalidating)
    calls = _count_check_socle(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert sweep(3).ok and calls == []
    _one_cpu(monkeypatch)
    assert sweep(3).ok and len(calls) == 1


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

        def certified_levels(self, p):
            return self.built[p].certified_levels(p)

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


def test_a_larger_subspace_with_the_socle_layers_of_the_chain_has_the_wrong_shape(monkeypatch):
    # at p = 3 only, realize the tableau of shape (1, 2, 1) as the whole module:
    # M / soc M has the type (1) of its layer 1, but dim M = 2 is not |alpha| = 1
    (t,) = iter_tableaux((1,), (2,), (1,), kind="socle")
    real = checks._IntChain

    class Faulty:
        def __init__(self, u):
            self.whole, self.built = u == t, real(u)

        def embedding(self, p):
            if p == 3 and self.whole:
                amb = standard_module(3, (2,))
                return Embedding(amb, Subspace(amb, [[1, 0], [0, 1]]))
            return self.built.embedding(p)

        def certified_levels(self, p):
            # the planted subspace has no certificate
            return None if p == 3 and self.whole else self.built.certified_levels(p)

    monkeypatch.setattr(checks, "_IntChain", Faulty)
    assert checks.realize_sweep(2).failures == ["((1,), (2,), (1,)) p=3: wrong shape ((2,), (2,), ())"]


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
                    assert f == g.tolist()
                assert realize_socle(t, p).sub.rows == oracles.realized_basis(want).tolist()
                n += 1
    assert n == 3 * 637
    # the first tableau whose integer composite holds an entry 2, which p = 2 reduces to 0
    t = SkewTableau.from_json_dict(
        {"alpha": [4, 2], "beta": [4, 3, 2], "gamma": [2, 1], "grid": [[0, 0, 4], [0, 3, 2], [2, 1], [1]]}
    )
    assert max(map(max, _IntChain(t).composite)) == 2
    for p in (2, 3):
        want = oracles.realized_basis(oracles.build_chain(t, p))
        assert realize_socle(t, p).sub.rows == want.tolist()


@pytest.mark.parametrize("corrected", [True, False], ids=["corrected", "identity-corrections"])
def test_the_integer_verdict_and_kernel_are_those_of_every_prime(monkeypatch, corrected):
    # every socle tableau with |beta| <= 8 certifies; identity corrections give
    # constructions that violate condition star, certified as well
    from soctab import realize

    if not corrected:
        monkeypatch.setattr(realize, "_correction", lambda t, layer, offs, ell: [[r] for r in range(sum(layer))])
    verdicts = {}
    for sh in shape_triples(8):
        for t in iter_tableaux(*sh, kind="socle"):
            built = _IntChain(t)
            for p in (2, 3, 5, 1000003):
                want = built._violation(p)  # the per-prime path
                try:
                    x = built.embedding(p)
                    got = ""
                except ConditionStarViolated as exc:
                    got = str(exc)
                assert got == want, (t.to_json_dict(), p)
                if not got and built.maps:
                    composite = [[v % p for v in r] for r in built.composite]
                    assert x.sub.rows == linalg._null_rows(composite, x.ambient.dim, p)
            if built.maps:
                assert built._certified[0] == want and (want or built._certified[1] is not None)
            verdicts[want] = verdicts.get(want, 0) + 1
    # identity corrections break condition star on 489 tableaux, at stages 1,2 to 6,7
    assert sum(verdicts.values()) == 1351 and verdicts[""] == (1351 if corrected else 862)


def _count_eliminations(monkeypatch):
    """The modulus of every forward pass from now on, None for one over the
    integers: each elimination and each rank runs one."""
    calls = []
    run = linalg._pivot_rows
    monkeypatch.setattr(linalg, "_pivot_rows", lambda rows, ncols, p: calls.append(p) or run(rows, ncols, p))
    return calls


def test_a_certified_construction_eliminates_nothing_at_its_second_prime(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    n = 0
    for sh in shape_triples(6):
        for t in iter_tableaux(*sh, kind="socle"):
            built = _IntChain(t)
            if not built.maps:
                continue  # the zero subspace: no construction
            built.embedding(2)
            assert calls and set(calls) == {None}
            for p in (3, 5):
                del calls[:]
                x = built.embedding(p)
                assert calls == []
                assert socle_tableau(x) == t
            del calls[:]
            n += 1
    assert n == 295 - 30  # every beta of weight <= 6 has one tableau with alpha = ()
    # the first composite that holds an entry 2 is eliminated at each prime
    # alone; the checks stay certified
    t = SkewTableau.from_json_dict(
        {"alpha": [4, 2], "beta": [4, 3, 2], "gamma": [2, 1], "grid": [[0, 0, 4], [0, 3, 2], [2, 1], [1]]}
    )
    built = _IntChain(t)
    built.embedding(2)
    assert built._certified[0] == "" and built._certified[1] is None
    for p in (3, 5):
        del calls[:]
        built.embedding(p)
        assert calls == [p]


def test_the_integer_levels_and_invariance_are_those_of_every_prime():
    # every socle tableau with |beta| <= 8: the levels and the invariance
    # certified over the integers are those read off the embedding at p
    n = 0
    for sh in shape_triples(8):
        for t in iter_tableaux(*sh, kind="socle"):
            built = _IntChain(t)
            for p in (2, 3, 5, 1000003):
                x, found = built.embedding(p), built.certified_levels(p)
                if not built.maps:
                    assert found is None
                    continue
                assert built._invariant == x.sub.is_invariant()
                s = len(built.layers) - 1
                read = tuple(_socle_quotient_type(x.ambient, x.sub, ell) for ell in range(1, s + 1))
                assert found == (x.sub.dim, read), (t.to_json_dict(), p)
            n += found is not None
    # every tableau with maps certifies; the 67 with alpha = () have none
    assert n == 1351 - 67


def test_a_certified_invariance_is_not_tested_again_at_any_prime(monkeypatch):
    calls = []
    is_invariant = Subspace.is_invariant
    monkeypatch.setattr(Subspace, "is_invariant", lambda sub: calls.append(sub.module.prime) or is_invariant(sub))
    for sh in shape_triples(5):
        for t in iter_tableaux(*sh, kind="socle"):
            built = _IntChain(t)
            for p in (2, 3):
                assert socle_tableau(built.embedding(p)) == t
            # the zero subspace is built by Subspace and checked by Embedding
            assert calls == ([] if built.maps else [2, 3])
            del calls[:]
    # a composite that holds an entry 2 has no integer kernel: each prime tests its own
    t = SkewTableau.from_json_dict(
        {"alpha": [4, 2], "beta": [4, 3, 2], "gamma": [2, 1], "grid": [[0, 0, 4], [0, 3, 2], [2, 1], [1]]}
    )
    built = _IntChain(t)
    for p in (2, 3):
        built.embedding(p)
    assert calls == [2, 3] and built.certified_levels(5) is None


def test_an_integer_residual_that_vanishes_at_one_prime_only_certifies_nothing():
    # in the module (2, 2), T (1, 0, -1, 0) = (0, 1, 0, -1) leaves the residual
    # (0, 0, 0, -2) against the second row: 0 mod 2 alone
    rows, m = [[1, 0, -1, 0], [0, 1, 0, 1]], standard_module(2, (2, 2))
    assert not modules._is_invariant(rows, m._high_cols(1), None)
    for p, invariant in ((2, True), (3, False)):
        m = standard_module(p, (2, 2))
        assert Subspace._canonical(m, [[x % p for x in r] for r in rows]).is_invariant() == invariant


@pytest.mark.parametrize("gives_up", ["_read_levels", "_is_invariant", "_units"])
def test_the_sweep_falls_back_to_every_prime_when_the_integer_read_off_gives_up(monkeypatch, gives_up):
    # the level read-off gives up, or no invariance certifies, or every
    # forward pass over the integers (p None) gives up, and with it every
    # integer elimination, so each prime builds and reads its embedding, and
    # the report is byte-identical
    from soctab import realize

    want = json.dumps(checks.realize_sweep(8).to_json_dict())
    _one_cpu(monkeypatch)
    calls = []
    if gives_up == "_read_levels":
        monkeypatch.setattr(_IntChain, "_read_levels", lambda self: calls.append(self) or ())
    elif gives_up == "_is_invariant":
        monkeypatch.setattr(realize, "_is_invariant", lambda rows, high, p: calls.append(p) or False)
    else:
        run = linalg._pivot_rows
        monkeypatch.setattr(
            linalg, "_pivot_rows", lambda rows, ncols, p: run(rows, ncols, p) if p else calls.append(ncols)
        )
    embedding = _IntChain.embedding
    built = []
    monkeypatch.setattr(_IntChain, "embedding", lambda self, p: built.append(p) or embedding(self, p))
    rep = checks.realize_sweep(8)
    assert json.dumps(rep.to_json_dict()) == want
    assert calls and len(built) == 2 * 1351


def _planted_column_chain():
    """The one socle tableau of shape (111)/(222)/(111), with its map replaced by
    one of rank 3 at p = 3 and rank 2 at p = 2: its rows (0,4), (2,4), (0,2) add
    the canonical ones, unit rows at 0, 2 and 4, as the spec (101), (011), (110)."""
    (t,) = iter_tableaux((1, 1, 1), (2, 2, 2), (1, 1, 1), kind="socle")
    built = _IntChain(t)
    assert built.maps == [[[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]]]
    built.maps[0] = built.composite = [[1, 0, 0, 0, 1, 0], [0, 0, 1, 0, 1, 0], [1, 0, 1, 0, 0, 0]]
    return built


@pytest.mark.parametrize("first", [2, 3])
def test_a_map_onto_at_one_prime_only_is_checked_at_each_prime(monkeypatch, first):
    calls = _count_eliminations(monkeypatch)
    built = _planted_column_chain()
    for p in (first, 5 - first):
        del calls[:]
        if p == 2:
            with pytest.raises(ConditionStarViolated, match=r"^stage 1 map is not surjective$"):
                built.embedding(2)
            at_p = [2]
        else:
            x = built.embedding(3)
            # the kernel at p = 3 is the socle of the stage
            assert x.sub.rows == [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]
            at_p = [3, 3]  # the map's kernel and the composite's
        # the integer elimination runs once, at the first prime, and gives up
        assert calls == ([None] if p == first else []) + at_p
        assert built._certified == (None, None)
    with pytest.raises(ConditionStarViolated, match=r"^stage 1 map is not surjective$"):
        built.check(2)
    built.check(3)


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
def tableaux_at_random_primes(draw, cases=TABLEAUX_TO_5):
    """A socle or LR tableau with |beta| <= 5, from ``cases``, and a prime its
    module accepts: below 100, or anywhere up to the bound dim * (p - 1)**2 < 2**63."""
    kind, t = draw(st.sampled_from(cases))
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


@pytest.mark.parametrize("p", [2, 3])
def test_hom_matrix_and_defects_of_every_realization_to_6(p):
    for kind, t in TABLEAUX_TO_6:
        if kind != "socle":
            continue
        x = realize_socle(t, p)
        assert hom_matrix(x) == socle_to_hom(t), t
        mu = entry_multiplicities(t)
        table = defect_table(x)
        assert {(ell, ell + r) for ell, r in mu} <= table.keys(), t
        for (ell, m), d in table.items():
            assert d == mu.get((ell, m - ell), 0), (t, ell, m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tableaux_at_random_primes([case for case in TABLEAUX_TO_5 if case[0] == "socle"]))
def test_hom_path_of_a_realization_at_any_accepted_prime(case):
    _, t, p = case
    x = realize_socle(t, p)
    h, dual = hom_matrix(x), socle_to_duallr(t)
    assert h == socle_to_hom(t) == duallr_to_hom(dual)
    assert hom_to_socle(h) == t
    assert lr_tableau(dual_embedding(x)) == dual


def test_verify_rejects_bad_chains():
    from soctab.modules import standard_module

    # kernel of the zero map out of a length-2 block is not semisimple
    chain = EpiChain(
        2,
        [standard_module(2, (2,)), standard_module(2, ())],
        [[]],
    )
    assert any("not semisimple" in p for p in verify_epi_chain(chain))
    # a non-surjective stage map
    chain = EpiChain(
        2,
        [standard_module(2, (1,)), standard_module(2, (1,))],
        [[[0]]],
    )
    assert any("not surjective" in p for p in verify_epi_chain(chain))


def test_realization_builds_no_array(monkeypatch):
    def refuse(rows, ncols):
        raise AssertionError("an int64 array was built")

    monkeypatch.setattr(linalg, "_to_array", refuse)
    assert SOCLE_M2.alpha
    for p in (2, 3, 1000003):
        assert socle_tableau(realize_socle(SOCLE_M2, p)) == SOCLE_M2
        assert build_chain(SOCLE_M2, p).maps == _IntChain(SOCLE_M2).maps
