import json
import random
from collections import Counter
from itertools import combinations, groupby, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import DUAL_LR_M2, SOCLE_M1, SOCLE_M2, SOCLE_642
from oracles import beta_chains, from_chain, iter_st12_fillings, lr_chain_shape, monotone_chains, to_chain
from soctab.checks import count_symmetry_sweep
from soctab.partitions import (
    partitions_of,
    shape_triples,
    skew_boxes,
    subdiagrams,
    transpose,
    weight,
)
from soctab.tableaux import (
    ChainNotNested,
    InvalidTableau,
    MatchingFailed,
    NotHorizontalStrip,
    SkewTableau,
    _beta_chains,
    _chain_start,
    _chain_tableau,
    _chains,
    _lattice_bound,
    _strip_columns,
    _strip_moves,
    _strips,
    build_matching,
    check_lr,
    check_socle,
    check_st3_prime,
    count_tableaux,
    enumerate_tableaux,
    iter_tableaux,
    lr_coefficient,
)


def brute_tableaux(alpha, beta, gamma, checker):
    """Oracle: filter every content-respecting filling through the validator."""
    boxes = skew_boxes(beta, gamma)
    content = []
    for level, k in enumerate(transpose(alpha), 1):
        content += [level] * k
    out = set()
    for perm in set(permutations(content)):
        t = SkewTableau(alpha, beta, gamma, dict(zip(boxes, perm)))
        if checker(t):
            out.add(t)
    return out


def test_wellformedness():
    with pytest.raises(InvalidTableau):
        SkewTableau((4, 2), (5, 3, 2), (3, 1), {})  # missing boxes
    bad = dict(SOCLE_M2.entries)
    bad[(1, 3)] = 5  # content no longer matches the transpose
    with pytest.raises(InvalidTableau):
        SkewTableau((4, 2), (5, 3, 2), (3, 1), bad)


def test_check_socle_fixtures():
    assert check_socle(SOCLE_M2)
    assert check_socle(SOCLE_M1)
    for t in SOCLE_642:
        assert check_socle(t)
    # single-column picket tableau: rows 2..5 hold 4,3,2,1
    col = SkewTableau((4,), (5,), (1,), {(r, 1): 6 - r for r in range(2, 6)})
    assert check_socle(col)
    # violate the strict column decrease
    bad = dict(SOCLE_M2.entries)
    bad[(4, 1)], bad[(5, 1)] = 1, 2
    assert not check_socle(SkewTableau((4, 2), (5, 3, 2), (3, 1), bad))


def test_check_lr_fixtures():
    assert check_lr(DUAL_LR_M2)
    col = SkewTableau((4,), (5,), (1,), {(r, 1): r - 1 for r in range(2, 6)})
    assert check_lr(col)
    bad = dict(DUAL_LR_M2.entries)
    bad[(1, 3)], bad[(2, 3)] = 2, 1  # breaks the strict column increase
    assert not check_lr(SkewTableau((3, 1), (5, 3, 2), (4, 2), bad))


def test_st3_prime():
    assert check_st3_prime(SOCLE_M2)
    assert check_st3_prime(SkewTableau((), (2, 1), (2, 1), {}))
    col = SkewTableau((4,), (5,), (1,), {(r, 1): 6 - r for r in range(2, 6)})
    assert check_st3_prime(col)


def test_build_matching():
    m1 = build_matching(SOCLE_M2, 1)
    assert m1.pairs == {(2, 3): (3, 2), (4, 1): (5, 1)}
    m3 = build_matching(SOCLE_M2, 3)
    assert m3.pairs == {(1, 3): (2, 2)}
    m4 = build_matching(SOCLE_M2, 4)
    assert m4.pairs == {}
    # a filling with entry 2 left of every entry 1 has no matching
    bad = SkewTableau((2, 2), (2, 2, 1, 1), (1, 1), {(2, 1): 2, (2, 2): 2, (1, 3): 1, (1, 4): 1})
    with pytest.raises(MatchingFailed):
        build_matching(bad, 1)


def test_matching_is_nearest_column():
    for t in [SOCLE_M2, SOCLE_M1] + SOCLE_642:
        for level in range(1, t.max_entry()):
            pairs = build_matching(t, level).pairs
            hi = [b for b, v in t.entries.items() if v == level + 1]
            assert sorted(pairs) == sorted(hi)
            assert len(set(pairs.values())) == len(pairs)
            for b, b2 in pairs.items():
                same_col = [c for c, v in t.entries.items() if v == level and c[1] == b[1]]
                if same_col:
                    assert b2 == same_col[0]
                else:
                    assert b2[1] < b[1]


def test_to_chain_socle():
    # frozen by stripping entries 1..4 off the fixture grid, one value at a time
    assert to_chain(SOCLE_M2, "socle") == (
        (5, 3, 2), (4, 2, 2), (3, 2, 1), (3, 1, 1), (3, 1),
    )
    col = SkewTableau((4,), (5,), (1,), {(r, 1): 6 - r for r in range(2, 6)})
    assert to_chain(col, "socle") == ((5,), (4,), (3,), (2,), (1,))
    empty = SkewTableau((), (3, 1), (3, 1), {})
    assert to_chain(empty, "socle") == ((3, 1),)


def test_chain_round_trip():
    for t in [SOCLE_M2, SOCLE_M1] + SOCLE_642:
        assert from_chain(to_chain(t, "socle"), "socle") == t
    assert from_chain(to_chain(DUAL_LR_M2, "lr"), "lr") == DUAL_LR_M2
    rng = random.Random(4)
    for _ in range(30):
        beta = tuple(sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 4))), reverse=True))
        gammas = list(subdiagrams(beta))
        gamma = gammas[rng.randrange(len(gammas))]
        for alpha in partitions_of(weight(beta) - weight(gamma)):
            for t in iter_tableaux(alpha, beta, gamma, kind="socle"):
                assert from_chain(to_chain(t, "socle"), "socle") == t
            for t in iter_tableaux(alpha, beta, gamma, kind="lr"):
                assert from_chain(to_chain(t, "lr"), "lr") == t


def test_to_chain_rejects_invalid_fillings():
    # rows fail to decrease, so some layer is not a partition
    bad = SkewTableau((2, 2), (2, 2), (), {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 2})
    with pytest.raises(InvalidTableau):
        to_chain(bad, "socle")


def test_from_chain_trailing_repeats():
    chain = ((5,), (4,), (3,), (2,), (1,), (1,), (1,))
    t = from_chain(chain, "socle")
    assert t.alpha == (4,)
    assert to_chain(t, "socle") == ((5,), (4,), (3,), (2,), (1,))


def test_from_chain_rejects_invalid_chains():
    for chain, view, exc, msg in (
        ([], "socle", InvalidTableau, "at least one partition"),
        ([(3, 1)], "both", ValueError, "view must be"),
        ([(3, 1), (2, 2)], "socle", ChainNotNested, "not contained"),
        ([(2, 2), (3, 1)], "lr", ChainNotNested, "not contained"),
        ([(3,), (1,)], "socle", NotHorizontalStrip, "two boxes"),
        ([(1,), (3,)], "lr", NotHorizontalStrip, "two boxes"),
        ([(1, 1, 1), (1, 1), ()], "socle", InvalidTableau, "not weakly decreasing"),
        ([(), (1,), (1, 1, 1)], "lr", InvalidTableau, "not weakly decreasing"),
        # an empty strip inside the chain is followed by a larger one
        ([(2, 1), (2, 1), (2,)], "socle", InvalidTableau, "not weakly decreasing"),
    ):
        with pytest.raises(exc, match=msg):
            from_chain(chain, view)


def test_chain_tableaux_pass_the_filling_check():
    # derived tableaux skip the filling check of SkewTableau(...), and pass it
    for sh in shape_triples(6):
        for kind in ("socle", "lr"):
            for t in iter_tableaux(*sh, kind):
                assert SkewTableau(t.alpha, t.beta, t.gamma, t.entries) == t


def test_enumerate_counts():
    assert len(enumerate_tableaux((4, 2), (5, 3, 2), (3, 1), kind="socle")) == 2
    assert len(enumerate_tableaux((4, 2), (5, 3, 2), (3, 1), kind="lr")) == 2
    assert len(enumerate_tableaux((4, 2), (6, 4, 2), (4, 2), kind="socle")) == 3
    assert len(enumerate_tableaux((4, 2), (6, 4, 2), (4, 2), kind="lr")) == 3
    # a single column forces the filling
    assert len(enumerate_tableaux((3,), (5,), (2,), kind="socle")) == 1
    assert len(enumerate_tableaux((3,), (5,), (2,), kind="lr")) == 1


def test_enumerate_exact_sets():
    got = set(enumerate_tableaux((4, 2), (5, 3, 2), (3, 1), kind="socle"))
    assert got == {SOCLE_M1, SOCLE_M2}
    assert set(enumerate_tableaux((4, 2), (6, 4, 2), (4, 2), kind="socle")) == set(SOCLE_642)
    assert DUAL_LR_M2 in enumerate_tableaux((3, 1), (5, 3, 2), (4, 2), kind="lr")


def test_enumerate_against_brute_force():
    for alpha, beta, gamma in shape_triples(6):
        assert set(iter_tableaux(alpha, beta, gamma, kind="socle")) == brute_tableaux(
            alpha, beta, gamma, check_socle
        )
        assert set(iter_tableaux(alpha, beta, gamma, kind="lr")) == brute_tableaux(
            alpha, beta, gamma, check_lr
        )


def test_enumerate_order_and_validity():
    ts = enumerate_tableaux((4, 2), (6, 4, 2), (4, 2), kind="socle")
    keys = [t.row_sequence() for t in ts]
    assert keys == sorted(keys)
    assert len(set(ts)) == len(ts)
    for t in ts:
        assert check_socle(t)


def test_lr_coefficient():
    assert lr_coefficient((4, 2), (5, 3, 2), (3, 1)) == 2
    assert lr_coefficient((4, 2), (6, 4, 2), (4, 2)) == 3
    assert lr_coefficient((4, 2), (5, 3, 2), (3, 2)) == 0  # weight mismatch
    assert lr_coefficient((1,), (3, 1), (5,)) == 0  # containment failure


def test_single_column_content_pieri():
    # with content a single column, a filling exists (and is unique) exactly
    # when the skew diagram has at most one box per row
    for wgt in range(0, 9):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                k = weight(beta) - weight(gamma)
                if k == 0:
                    continue
                rows = transpose(beta)
                grows = transpose(gamma)
                vertical = all(
                    rows[r] - (grows[r] if r < len(grows) else 0) <= 1
                    for r in range(len(rows))
                )
                expect = 1 if vertical else 0
                assert lr_coefficient((k,), beta, gamma) == expect, (beta, gamma)
                assert count_tableaux((k,), beta, gamma, kind="socle") == expect


def test_lattice_equivalence_small():
    cases = 0
    for wgt in range(0, 7):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                for alpha in partitions_of(weight(beta) - weight(gamma)):
                    for t in iter_st12_fillings(alpha, beta, gamma):
                        cases += 1
                        a = check_socle(t)
                        b = check_st3_prime(t)
                        try:
                            for level in range(1, t.max_entry()):
                                build_matching(t, level)
                            c = True
                        except MatchingFailed:
                            c = False
                        assert a == b == c, (alpha, beta, gamma, t.entries)
    assert cases > 300


def test_count_symmetry_small():
    for wgt in range(0, 9):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                for alpha in partitions_of(weight(beta) - weight(gamma)):
                    n_soc = count_tableaux(alpha, beta, gamma, kind="socle")
                    n_lr = count_tableaux(alpha, beta, gamma, kind="lr")
                    n_swap = count_tableaux(gamma, beta, alpha, kind="lr")
                    assert n_soc == n_lr == n_swap, (alpha, beta, gamma)


@pytest.mark.parametrize(
    "alpha, beta, gamma, expect",
    [
        ((6, 4, 3, 2, 1), (8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2), 392),
        ((4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (5, 3, 2, 1), 24),
        ((4, 3, 3, 1), (6, 5, 4, 3, 2, 1), (4, 3, 2, 1), 18),
        ((6, 3, 1, 1), (8, 6, 4, 3, 2, 1), (6, 3, 2, 1, 1), 18),
        ((4, 3, 2, 1, 1), (6, 6, 4, 4, 2, 2), (5, 3, 2, 2, 1), 7),
    ],
)
def test_count_symmetry_at_weight_20_and_more(alpha, beta, gamma, expect):
    # beyond the shapes the count property draws (weight <= 11)
    assert weight(beta) >= 20
    assert count_tableaux(alpha, beta, gamma, kind="socle") == expect
    assert count_tableaux(alpha, beta, gamma, kind="lr") == expect
    assert count_tableaux(gamma, beta, alpha, kind="lr") == expect


def test_json_round_trip():
    for t in [SOCLE_M2, SOCLE_M1, DUAL_LR_M2] + SOCLE_642:
        blob = json.dumps(t.to_json_dict())
        back = SkewTableau.from_json_dict(json.loads(blob))
        assert back == t
        assert json.dumps(back.to_json_dict()) == blob
    assert SOCLE_M2.to_json_dict()["grid"] == [
        [0, 0, 4],
        [0, 3, 2],
        [0, 1],
        [2],
        [1],
    ]


def test_render():
    assert SOCLE_M2.render() == "..4\n.32\n.1\n2\n1"
    wide = SkewTableau((10,), (11,), (1,), {(r, 1): 12 - r for r in range(2, 12)})
    assert "[10]" in wide.render()


# ---------------------------------------------------------------------------
# the strip generator and the path counts


def brute_strips(part, gap, k, cap, bound):
    """Oracle for _strip_columns: filter every k-subset of the columns.

    Keeps the sets C for which part - 1_C is a partition, no column
    passes its end, every gap left is at most cap, and (with a bound)
    each column of C is >= its bound; sorts them by their per-block counts.
    """
    n = len(part)
    out = []
    for cols in combinations(range(n), k):
        nxt = [x - (c in cols) for c, x in enumerate(part)]
        left = [g - (c in cols) for c, g in enumerate(gap)]
        if any(a < b for a, b in zip(nxt, nxt[1:])) or not all(0 <= g <= cap for g in left):
            continue
        if bound is not None and any(c < b for c, b in zip(cols, bound)):
            continue
        out.append(list(cols))
    starts = [c for c in range(n) if c == 0 or part[c] != part[c - 1]] + [n]

    def per_block(cols):
        return [sum(1 for c in cols if a <= c < b) for a, b in zip(starts, starts[1:])]

    return sorted(out, key=per_block)


def test_strip_columns_match_brute_force_on_every_reached_state():
    # both kinds walk down from beta: socle sizes in order, LR sizes reversed
    seen = set()
    for alpha, beta, gamma in shape_triples(8):
        for kind in ("socle", "lr"):
            sizes, gap = _chain_start(alpha, beta, gamma, kind)
            for lattice in (True, False):
                todo = [(beta, gap, None, 0)]
                while todo:
                    part_, gap_, prev, level = todo.pop()
                    if level == len(sizes):
                        continue
                    k = sizes[level]
                    bound = _lattice_bound(prev, k, kind == "socle")
                    state = (part_, gap_, k, len(sizes) - level - 1, bound)
                    if state in seen:
                        continue
                    seen.add(state)
                    got = _strip_columns(*state)
                    assert got == brute_strips(*state), state
                    for cols in got:
                        nxt = tuple(x - (c in cols) for c, x in enumerate(part_))
                        ngap = tuple(g - (c in cols) for c, g in enumerate(gap_))
                        todo.append((nxt, ngap, tuple(cols) if lattice else None, level + 1))
    assert len(seen) > 10000, len(seen)


@st.composite
def shapes(draw, max_weight=11):
    beta = draw(st.sampled_from(sorted(partitions_of(draw(st.integers(0, max_weight))))))
    gamma = draw(st.sampled_from(sorted(subdiagrams(beta))))
    alpha = draw(st.sampled_from(sorted(partitions_of(weight(beta) - weight(gamma)))))
    return alpha, beta, gamma


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shapes(), st.sampled_from(["socle", "lr"]))
def test_count_is_the_number_of_tableaux(shape, kind):
    assert count_tableaux(*shape, kind=kind) == len(list(iter_tableaux(*shape, kind=kind)))


def test_beta_chains_are_the_chains_of_each_triple():
    # one search per beta finds exactly the per-triple chains, as multisets
    for beta, group in groupby(shape_triples(9), key=lambda s: s.beta):
        pairs = [(alpha, gamma) for alpha, _, gamma in group]
        for kind in ("socle", "lr"):
            got = _beta_chains(beta, kind)
            assert set(got) <= set(pairs), (beta, kind)
            for alpha, gamma in pairs:
                assert Counter(got.get((alpha, gamma), [])) == Counter(
                    _chains(alpha, beta, gamma, kind)
                ), (alpha, beta, gamma, kind)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.integers(10, 12).flatmap(lambda w: st.sampled_from(sorted(partitions_of(w)))),
    st.sampled_from(["socle", "lr"]),
)
def test_beta_chain_counts_are_the_path_counts(beta, kind):
    got = _beta_chains(beta, kind)
    for gamma in subdiagrams(beta):
        for alpha in partitions_of(weight(beta) - weight(gamma)):
            n = len(got.get((alpha, gamma), ()))
            assert n == count_tableaux(alpha, beta, gamma, kind=kind), (alpha, beta, gamma)


def test_shared_strip_moves_give_the_uncached_search():
    # the moves cached by a weight-11 sweep serve every smaller beta: the
    # chains, their order and the key order are those of a search per visit
    count_symmetry_sweep(11)
    misses = _strip_moves.cache_info().misses
    betas = [beta for wgt in range(11) for beta in partitions_of(wgt)]
    assert betas[:2] == [(), (1,)]  # no part[0]: the start has no column to move
    for beta in betas:
        for kind in ("socle", "lr"):
            got, want = _beta_chains(beta, kind), beta_chains(beta, kind)
            assert list(got) == list(want), (beta, kind)
            assert list(got.values()) == list(want.values()), (beta, kind)
    assert _strip_moves.cache_info().misses == misses  # every state was cached
    assert _beta_chains((), "socle") == {((), ()): [((),)]}


def test_strips_are_every_strip_by_size_then_block_counts():
    for part_ in (p for wgt in range(11) for p in partitions_of(wgt)):
        want = [cols for k in range(1, len(part_) + 1) for cols in brute_strips(part_, part_, k, part_[0], None)]
        got = _strips(part_)
        assert [list(cols) for cols, _ in got] == want, part_
        for cols, nxt in got:
            assert nxt == tuple(x for x in (x - (c in cols) for c, x in enumerate(part_)) if x), part_


def test_strip_moves_hold_the_pairs_of_the_strip_lists():
    # walk every state a weight-9 sweep cached: each move is one of the
    # partition's strip pairs, the object itself, not a copy
    count_symmetry_sweep(9)
    misses = _strip_moves.cache_info().misses
    todo = [(beta, None, socle) for wgt in range(10) for beta in partitions_of(wgt) for socle in (True, False)]
    seen = set()
    while todo:
        state = todo.pop()
        if state in seen:
            continue
        seen.add(state)
        part_, _, socle = state
        strips = {id(pair) for pair in _strips(part_)}
        for pair in _strip_moves(*state):
            assert id(pair) in strips, state
            todo.append((pair[1], pair[0], socle))
    assert _strip_moves.cache_info().misses == misses and len(seen) > 1000


def test_lr_chain_shape_is_check_lr_on_chains():
    # every semistandard LR-kind chain, with and without the lattice condition
    total = valid = 0
    for alpha, beta, gamma in shape_triples(7):
        for chain in monotone_chains(alpha, beta, gamma, "lr"):
            t = _chain_tableau(chain, "lr")
            got = lr_chain_shape(chain)
            assert (got is not None) == check_lr(t), chain
            assert got is None or got == t.shape
            total += 1
            valid += got is not None
    assert total > valid > 0
    # not nested; a step that is no horizontal strip; a strip larger than the one before
    assert lr_chain_shape(((1,), (2,), (1, 1))) is None
    assert lr_chain_shape(((), (2,))) is None
    assert lr_chain_shape(((), (1,), (1, 1, 1))) is None
    assert lr_chain_shape(((), (1, 1), (2, 1))) == ((2, 1), (2, 1), ())


def st12(t):
    """Weakly decreasing rows and strictly decreasing columns."""
    e = t.entries
    return all(
        e[(r, c)] >= e[(r, c + 1)] for (r, c) in e if (r, c + 1) in e
    ) and all(e[(r, c)] > e[(r + 1, c)] for (r, c) in e if (r + 1, c) in e)


def test_st12_fillings_are_every_monotone_filling():
    total = 0
    for alpha, beta, gamma in shape_triples(6):
        got = list(iter_st12_fillings(alpha, beta, gamma))
        assert len(set(got)) == len(got)
        assert set(got) == brute_tableaux(alpha, beta, gamma, st12), (alpha, beta, gamma)
        total += len(got)
    assert total > 900


def test_bool_entries_are_rejected():
    # True == 1, but json writes it as true: a tableau entry must be a plain int
    with pytest.raises(InvalidTableau):
        SkewTableau((1,), (1,), (), {(1, 1): True})
    assert SkewTableau((1,), (1,), (), {(1, 1): 1}).to_json_dict()["grid"] == [[1]]
