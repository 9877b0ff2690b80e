import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
import soctab.switching as switching
from fixtures import DUAL_LR_M2, SOCLE_M2
from soctab.convert import socle_to_duallr
from soctab.embeddings import dual_embedding, lr_tableau, picket, socle_tableau
from soctab.partitions import partitions_of, shape_triples, subdiagrams, weight
from soctab.switching import (
    check_conjecture,
    extract_duallr,
    init_switch,
    run_switch,
    switch_to_duallr,
)
from soctab.tableaux import InvalidTableau, SkewTableau, iter_tableaux


def test_init_switch_grid():
    st = init_switch(SOCLE_M2)
    expected_s = {(1, 1): 1, (1, 2): 1, (2, 1): 2, (3, 1): 3}
    expected_t = {(1, 3): 1, (2, 2): 2, (2, 3): 3, (3, 2): 4, (4, 1): 3, (5, 1): 4}
    for box, v in expected_s.items():
        assert st.owner[box] == "S" and st.entry[box] == v
    for box, v in expected_t.items():
        assert st.owner[box] == "T" and st.entry[box] == v
    assert len(st.owner) == 10


def test_init_switch_rejects_non_socle():
    bad = dict(SOCLE_M2.entries)
    bad[(4, 1)], bad[(5, 1)] = 1, 2
    with pytest.raises(InvalidTableau):
        init_switch(SkewTableau((4, 2), (5, 3, 2), (3, 1), bad))


def test_states_over_one_diagram_share_their_geometry():
    a, b = iter_tableaux((4, 2), (5, 3, 2), (3, 1), kind="socle")
    geo = init_switch(a)._geo
    assert init_switch(b)._geo is geo
    assert run_switch(init_switch(b))._geo is geo
    # keyed by the partition, so padding zeros give the same geometry
    assert switching.SwitchState([5, 3, 2, 0], {}, {})._geo is geo
    assert init_switch(socle_tableau(picket(2, 4, 5)))._geo is not geo


def test_the_geometry_cache_is_bounded():
    # the 272 diagrams of weight <= 12 are more than the cache holds
    betas = [beta for w in range(13) for beta in partitions_of(w)]
    size = switching._geometry.cache_info().maxsize
    assert len(betas) == 272 > size
    for beta in betas:
        assert switching.SwitchState(beta, {}, {})._geo.beta == beta
        assert switching._geometry.cache_info().currsize <= size
    assert switching._geometry.cache_info().currsize == size


def test_run_switch_example():
    st = run_switch(init_switch(SOCLE_M2))
    assert len(st.history) == 8
    assert st.inner_region() == (4, 2)
    assert extract_duallr(st, (4, 2)) == DUAL_LR_M2


def test_terminal_is_fixed():
    st = run_switch(init_switch(SOCLE_M2))
    again = run_switch(st)
    assert len(again.history) == len(st.history)
    assert again.entry == st.entry and again.owner == st.owner


def test_switch_to_duallr():
    assert switch_to_duallr(SOCLE_M2) == DUAL_LR_M2
    s45 = socle_tableau(picket(2, 4, 5))
    assert switch_to_duallr(s45) == lr_tableau(dual_embedding(picket(2, 4, 5)))
    # single-column by hand: the lone inner box climbs to the top and the
    # outer entries settle underneath in increasing order
    assert dict(switch_to_duallr(s45).entries) == {(5, 1): 1}
    empty = SkewTableau((), (2, 1), (2, 1), {})
    out = switch_to_duallr(empty)
    assert out.shape == ((2, 1), (2, 1), ())


def test_empty_gamma_noop():
    t = socle_tableau(picket(2, 3, 3))  # whole subspace, nothing to pass through
    st = init_switch(t)
    final = run_switch(st)
    assert final.history == []
    assert switch_to_duallr(t).shape == ((), (3,), (3,))


def test_content_preserved():
    st0 = init_switch(SOCLE_M2)
    st = run_switch(st0)

    def contents(state):
        s = Counter(state.entry[b] for b, w in state.owner.items() if w == "S")
        t = Counter(state.entry[b] for b, w in state.owner.items() if w == "T")
        return s, t

    assert contents(st0) == contents(st)


def test_order_independence():
    rng = random.Random(99)
    pool = []
    for wgt in range(1, 9):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                for alpha in partitions_of(weight(beta) - weight(gamma)):
                    pool.extend(iter_tableaux(alpha, beta, gamma, kind="socle"))
    rng.shuffle(pool)
    pool = pool[:50]
    runs = 0
    for t in pool:
        base_state = run_switch(init_switch(t))
        baseline = extract_duallr(base_state, t.alpha)
        for k in range(10):
            st = run_switch(init_switch(t), "seeded-random", random.Random(1000 + k))
            runs += 1
            # the full terminal grid agrees, not just the extracted tableau
            assert st.owner == base_state.owner and st.entry == base_state.entry
            assert extract_duallr(st, t.alpha) == baseline
    assert runs == 500


def test_swap_counts_and_terminal_shape():
    for wgt in range(1, 8):
        for beta in partitions_of(wgt):
            for gamma in subdiagrams(beta):
                for alpha in partitions_of(weight(beta) - weight(gamma)):
                    for t in iter_tableaux(alpha, beta, gamma, kind="socle"):
                        st = run_switch(init_switch(t))
                        assert len(st.history) <= weight(beta) ** 2 * t.max_entry() + 1
                        assert st.inner_region() == alpha


def test_check_conjecture_small():
    rep = check_conjecture(6, seeds=2)
    assert rep.ok
    assert rep.mismatches == []
    assert rep.tableaux == 295
    assert rep.runs == 295 * 3
    assert any("inverted" in n for n in rep.notes)
    text = rep.render()
    assert "mismatches: none" in text
    trivial = check_conjecture(1, seeds=1)
    assert trivial.ok and trivial.tableaux >= 1


def test_example_shape_matches():
    for t in iter_tableaux((4, 2), (5, 3, 2), (3, 1), kind="socle"):
        assert switch_to_duallr(t) == socle_to_duallr(t)


def test_check_conjecture_records_each_mismatching_run(monkeypatch):
    # a wrong closed form on one single-tableau shape: every run of that
    # tableau mismatches, and each record carries its own run
    target = ((2, 1), (4, 1, 1), (2, 1))
    wrong = SkewTableau((), (4, 1, 1), (4, 1, 1), {})
    (t,) = iter_tableaux(*target, kind="socle")
    # the sweep converts chains, so the wrong closed form is planted on t's chain
    t_chain, wrong_chain = oracles.to_chain(t, "socle"), oracles.to_chain(wrong, "lr")
    real = switching._socle_chain_to_duallr
    monkeypatch.setattr(
        switching,
        "_socle_chain_to_duallr",
        lambda chain: wrong_chain if tuple(chain) == t_chain else real(chain),
    )
    seeds, base = 3, 10
    rep = check_conjecture(6, seeds=seeds, base_seed=base)
    assert len(rep.mismatches) == 1 + seeds
    initial = init_switch(t)
    finals = [run_switch(initial)] + [
        run_switch(initial, "seeded-random", random.Random(base + k)) for k in range(seeds)
    ]
    labels = ["deterministic"] + [f"seed {base + k}" for k in range(seeds)]
    traces = []
    for m, label, final in zip(rep.mismatches, labels, finals):
        assert m["order"] == label
        assert m["shape"] == [list(p) for p in target]
        assert m["tableau"] == t.to_json_dict()
        assert m["expected"] == wrong.to_json_dict()
        assert m["got"] == extract_duallr(final, t.alpha).to_json_dict()
        assert m["trace"] == [[se, te, list(sb), list(tb)] for se, te, sb, tb in final.history]
        traces.append(m["trace"])
    assert len({repr(tr) for tr in traces}) == len(traces)  # the runs took different paths
    assert "mismatches: 4" in rep.render()


def test_conjecture_sweep_equals_the_walk_over_every_shape_triple():
    # the sweep visits only the shapes that hold a socle chain
    for bound in range(9):
        got, want = check_conjecture(bound), oracles.conjecture_walk(bound)
        assert got.to_json_dict() == want.to_json_dict(), bound


def test_conjecture_sweep_records_mismatches_in_the_order_of_the_walk(monkeypatch):
    # the first layer of the predicted LR chain dropped on some chains: every
    # run of those tableaux mismatches
    real = switching._socle_chain_to_duallr

    def dropping(chain):
        img = real(chain)
        return img[1:] if sum(map(sum, chain)) % 3 == 0 and len(img) > 1 else img

    monkeypatch.setattr(switching, "_socle_chain_to_duallr", dropping)
    got = check_conjecture(6, seeds=2, base_seed=4)
    want = oracles.conjecture_walk(6, seeds=2, base_seed=4)
    assert len(got.mismatches) > 50
    assert got.to_json_dict() == want.to_json_dict()


def _one_cpu(monkeypatch):
    """Switch every beta of the sweep in this process, where patched calls are
    counted: a forked shard's calls would be lost with it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def test_runs_happen_only_when_the_search_cannot_settle_them(monkeypatch):
    _one_cpu(monkeypatch)
    calls = []
    real = switching.run_switch

    def counted(*args, **kwargs):
        calls.append(args[1:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(switching, "run_switch", counted)
    assert check_conjecture(8).ok and calls == []
    # with no seeded order, nothing is searched and every deterministic run happens
    assert check_conjecture(8, seeds=0).ok and len(calls) == 1351
    # a wrong closed form on one tableau: its runs happen, the deterministic first
    target = ((2, 1), (4, 1, 1), (2, 1))
    (t,) = iter_tableaux(*target, kind="socle")
    t_chain, wrong_chain = oracles.to_chain(t, "socle"), oracles.to_chain(SkewTableau((), (4, 1, 1), (4, 1, 1), {}), "lr")
    real_conv = switching._socle_chain_to_duallr
    monkeypatch.setattr(
        switching, "_socle_chain_to_duallr", lambda chain: wrong_chain if tuple(chain) == t_chain else real_conv(chain)
    )
    calls.clear()
    rep = check_conjecture(6, seeds=3, base_seed=10)
    assert calls == [(), ("seeded-random",), ("seeded-random",), ("seeded-random",)]
    assert [m["order"] for m in rep.mismatches] == ["deterministic", "seed 10", "seed 11", "seed 12"]


SMALL_SOCLE = [
    t for sh in shape_triples(7) for t in iter_tableaux(*sh, kind="socle")
]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(hst.sampled_from(SMALL_SOCLE), hst.integers(0, 2**32))
def test_random_order_terminal_grid_and_input_untouched(t, seed):
    """Switching is order-independent, and run_switch leaves its input state as it was."""
    state = init_switch(t)
    owner, entry = dict(state.owner), dict(state.entry)
    base = run_switch(state)
    rand = run_switch(state, "seeded-random", random.Random(seed))
    assert rand.owner == base.owner and rand.entry == base.entry
    assert switching._search(state._geo, state._grid)[0] == tuple(base._grid)
    assert state.owner == owner and state.entry == entry and state.history == []
    assert not rand.admissible_swaps() and not base.admissible_swaps()


def test_slot_engine_matches_the_dict_engine():
    """The slot-list engine makes the same swaps as the dict-based oracle."""
    orders = [("deterministic", None)] + [("seeded-random", k) for k in (0, 1, 2)]
    for t in SMALL_SOCLE:
        state, ref = init_switch(t), oracles.init_switch(t)
        assert state.owner == ref.owner and state.entry == ref.entry
        assert state.admissible_swaps() == ref.admissible_swaps()
        for order, seed in orders:
            rng = None if seed is None else random.Random(seed)
            ref_rng = None if seed is None else random.Random(seed)
            got, want = run_switch(state, order, rng), oracles.run_switch(ref, order, ref_rng)
            assert got.history == want.history, (t.to_json_dict(), order, seed)
            assert got.owner == want.owner and got.entry == want.entry


def test_check_conjecture_records_a_divergent_seeded_run(monkeypatch):
    # the swap graph of one tableau gains a dead end on the path of one
    # seeded run and of no other run: the search finds a second terminal,
    # so the seeded orders run, and the planted run alone stops there
    target = ((2, 1), (4, 1, 1), (2, 1))
    (t,) = iter_tableaux(*target, kind="socle")
    initial = init_switch(t)
    seeds, base, planted = 3, 10, 11

    def path(final):
        st, grids = initial.copy(), []
        for _, _, sbox, tbox in final.history:
            st.apply(sbox, tbox)
            grids.append(tuple(st._grid))
        return grids

    full = run_switch(initial, "seeded-random", random.Random(planted))
    assert full.history
    others = [run_switch(initial)] + [
        run_switch(initial, "seeded-random", random.Random(base + k)) for k in range(seeds) if base + k != planted
    ]
    elsewhere = {g for final in others for g in path(final)}
    cut = next(i for i, g in enumerate(path(full)) if g not in elsewhere)
    dead_end, real_swaps = path(full)[cut], switching._slot_swaps
    monkeypatch.setattr(
        switching, "_slot_swaps", lambda geo, g: [] if tuple(g) == dead_end else real_swaps(geo, g)
    )
    rep = check_conjecture(6, seeds=seeds, base_seed=base)
    assert rep.tableaux == 295 and rep.runs == 295 * (1 + seeds)
    short = initial.copy()
    for _, _, sbox, tbox in full.history[: cut + 1]:
        short.apply(sbox, tbox)
    try:
        got = extract_duallr(short, t.alpha).to_json_dict()
    except switching.ShapeMismatch:
        got = None
    (m,) = rep.mismatches
    assert m["order"] == f"seed {planted}"
    assert m["shape"] == [list(p) for p in target]
    assert m["tableau"] == t.to_json_dict()
    assert m["expected"] == socle_to_duallr(t).to_json_dict()
    assert m["got"] == got
    assert m["trace"] == [[se, te, list(sb), list(tb)] for se, te, sb, tb in full.history[: cut + 1]]


def test_search_visits_every_reachable_grid():
    rep = check_conjecture(8)
    assert rep.ok and rep.tableaux == 1351 and rep.states == 13626
    # the count is a diagnostic, kept out of the report's outputs
    assert "states" not in rep.to_json_dict() and "13626" not in rep.render()
    assert check_conjecture(9).states == 41866
    # no seeded orders, nothing to imply, no search
    assert check_conjecture(8, seeds=0).states == 0


def test_slot_swaps_match_the_dict_engine_on_every_reached_grid(monkeypatch):
    _one_cpu(monkeypatch)
    real, reached = switching._slot_swaps, []

    def checked(geo, g):
        swaps = real(geo, g)
        st = switching.SwitchState._of_grid(geo, list(g), [])
        ref = oracles.SwitchState(geo.beta, st.owner, st.entry)
        assert [(geo.boxes[s], geo.boxes[t]) for s, t in swaps] == ref.admissible_swaps()
        reached.append(g)
        return swaps

    monkeypatch.setattr(switching, "_slot_swaps", checked)
    rep = check_conjecture(6, seeds=1)
    assert rep.ok and len(reached) == rep.states == 1377


def _hand_grid(rows):
    """A 2 x 2 state from rows of (owner, entry) pairs."""
    cells = {(r, c): x for r, row in enumerate(rows, 1) for c, x in enumerate(row, 1)}
    return switching.SwitchState((2, 2), {b: o for b, (o, _) in cells.items()}, {b: v for b, (_, v) in cells.items()})


@pytest.mark.parametrize(
    "rows, swaps",
    [
        # moving the S 1 at (1, 1) right would put it above the S 1 at
        # (2, 2): the check of the S boxes after t in its column decides
        ([[("S", 1), ("T", 1)], [("T", 2), ("S", 1)]], []),
        ([[("S", 1), ("T", 1)], [("T", 2), ("S", 2)]], [((1, 1), (1, 2))]),
        # moving the T 1 at (2, 2) left would put it below the T 1 at
        # (1, 1): the strict check of the T boxes before s decides
        ([[("T", 1), ("S", 1)], [("S", 2), ("T", 1)]], []),
        ([[("T", 0), ("S", 1)], [("S", 2), ("T", 1)]], [((2, 1), (2, 2))]),
    ],
)
def test_each_horizontal_swap_clause_decides_a_swap(rows, swaps):
    """Both fillings are semistandard on their own boxes, and one clause of
    the horizontal swap test alone tells the two grids of a pair apart."""
    st = _hand_grid(rows)
    assert st.admissible_swaps() == swaps
    assert oracles.SwitchState(st.beta, st.owner, st.entry).admissible_swaps() == swaps


def test_switch_state_rejects_negative_entries():
    with pytest.raises(ValueError):
        switching.SwitchState((1,), {(1, 1): "T"}, {(1, 1): -1})


def test_check_conjecture_rejects_a_negative_seed_count():
    # as the CLI's --seeds does, instead of reporting -2 orders and one run per tableau
    with pytest.raises(ValueError, match=r"^seeds must be nonnegative, got -2$"):
        check_conjecture(4, seeds=-2)
