"""Tableau switching: pass an inner tableau through an outer one by swaps.

The inner tableau S starts as the superstandard filling of the removed
shape (row i filled with i); the outer tableau T is the socle tableau
with entries inverted (i becomes s+1-i, s the largest entry), which makes
it semistandard.  A swap exchanges an S box with a T box directly right
of or below it, provided both restricted fillings stay semistandard
(rows weakly increasing, columns strictly increasing on their own
boxes).  When no swap remains, the T boxes form a Young diagram and the
S entries on the complement give the LR tableau of the dual embedding,
conjecturally always.
"""

import random
from functools import lru_cache
from itertools import zip_longest

from .convert import _socle_chain_to_duallr
from .partitions import beta_triple_counts, part, partition, transpose, triple_order
from .tableaux import InvalidTableau, SkewTableau, _beta_chains, _chain_tableau, check_socle

RELABELING_NOTE = (
    "outer entries are inverted as i -> s+1-i with s the largest inner value; "
    "for s != 4 this generalization is assumed, not independently specified"
)


class ShapeMismatch(ValueError):
    """Terminal inner region differs from the expected subspace type."""


class _Geometry:
    """Slot numbering of the diagram of beta, shared by every state over it.

    The boxes are numbered row-major (``boxes[i]`` is the (r, c) box of
    slot i, ``slot`` the inverse).  For each slot, ``up``/``down`` hold
    the slots above/below it in its column and ``left``/``right`` those
    before/after it in its row; ``above``/``before`` hold the slot
    directly above/left of it (None outside the diagram): the S boxes a
    T box there could swap with.  ``targets`` lists (slot, above, before)
    for every slot with a box above or left of it, in slot order.
    """

    __slots__ = ("beta", "rows", "boxes", "slot", "up", "down", "left", "right", "above", "before", "targets")

    def __init__(self, beta):
        rows = transpose(beta)
        self.beta, self.rows = beta, rows
        self.boxes = [(r, c) for r, n in enumerate(rows, 1) for c in range(1, n + 1)]
        self.slot = slot = {b: i for i, b in enumerate(self.boxes)}
        row_lines = [[slot[(r, c)] for c in range(1, n + 1)] for r, n in enumerate(rows, 1)]
        col_lines = [[slot[(r, c)] for r in range(1, n + 1)] for c, n in enumerate(beta, 1)]
        n = len(self.boxes)
        self.up, self.down, self.left, self.right = [None] * n, [None] * n, [None] * n, [None] * n
        for line in row_lines:
            for i, s in enumerate(line):
                self.left[s], self.right[s] = tuple(line[:i]), tuple(line[i + 1 :])
        for line in col_lines:
            for i, s in enumerate(line):
                self.up[s], self.down[s] = tuple(line[:i]), tuple(line[i + 1 :])
        self.above = [u[-1] if u else None for u in self.up]
        self.before = [l[-1] if l else None for l in self.left]
        self.targets = [
            (i, u, l) for i, (u, l) in enumerate(zip(self.above, self.before)) if (u, l) != (None, None)
        ]


@lru_cache(maxsize=256)
def _geometry(beta):
    # keyed by the validated partition, one entry per diagram a caller visits;
    # bounded, so that a process switching over ever more diagrams keeps the
    # 256 used last (the 195 diagrams of weight <= 11 all fit)
    return _Geometry(beta)


def _swap_ok(g, s, t, before, after, strict):
    """Whether the S slot s may swap with the T slot t below or right of it.

    The moving T value keeps its order against the other T boxes along
    the line of the swap, and so does the moving S value, so only the
    crossing lines need a check.  The T boxes in the line of s and the S
    boxes in the line of t, ``before`` and ``after`` the swap, must stay
    weakly increasing along a row (a vertical swap, ``strict`` 0) and
    strictly increasing down a column (a horizontal swap, ``strict`` 1).
    On the signed grid S cells are negative and T cells not, so g[b] >
    v - strict holds only on T cells and g[b] < g[s] + strict only on S
    cells: the ``before`` checks need no owner test.
    """
    v = g[t]
    for b in before[s]:
        if g[b] > v - strict:
            return False
    for b in after[s]:
        if 0 <= g[b] < v + strict:
            return False
    u = g[s]
    for b in before[t]:
        if g[b] < u + strict:
            return False
    for b in after[t]:
        if u - strict < g[b] < 0:
            return False
    return True


def _slot_swaps(geo, g):
    """All admissible (s, t) slot pairs of the grid g, in the canonical
    order: by the slot of t, the swap from above before the swap from the left."""
    up, down, left, right = geo.up, geo.down, geo.left, geo.right
    out = []
    for t, s_up, s_left in geo.targets:
        if g[t] < 0:
            continue
        if s_up is not None and g[s_up] < 0 and _swap_ok(g, s_up, t, left, right, 0):
            out.append((s_up, t))
        if s_left is not None and g[s_left] < 0 and _swap_ok(g, s_left, t, up, down, 1):
            out.append((s_left, t))
    return out


def _search(geo, start):
    """Depth-first search of every swap sequence from the grid ``start``:
    the terminal grid as a tuple, or None once a second distinct terminal
    turns up, and the number of distinct grids visited.  Swaps move T
    entries to smaller slots, so the swap graph is finite and acyclic."""
    key = tuple(start)
    seen, stack, terminal = {key}, [key], None
    while stack:
        g = stack.pop()
        swaps = _slot_swaps(geo, g)
        if not swaps:
            if terminal is not None:
                return None, len(seen)
            terminal = g
        for s, t in swaps:
            child = list(g)
            child[s], child[t] = g[t], g[s]
            child = tuple(child)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return terminal, len(seen)


class SwitchState:
    """Mutable grid over the diagram of beta; every box is owned by S or T.

    The grid is one list indexed by slot (see ``_Geometry``), ``_grid``:
    a T entry v is stored as v and an S entry v as ~v (-v - 1), so the
    sign tells the owner and an S entry 0 still reads as S.  ``owner`` and
    ``entry`` read it as (r, c)-keyed dicts, with owners "S" and "T".

    Both fillings are semistandard on their own boxes, and the swap test
    relies on this: ``init_switch`` accepts only socle tableaux, whose
    inverted entries are semistandard, the superstandard S filling is too,
    and only swaps that keep both fillings so are admissible.
    """

    __slots__ = ("beta", "history", "_geo", "_grid")

    def __init__(self, beta, owner, entry):
        self.beta = partition(beta)
        self._geo = geo = _geometry(self.beta)
        # a box the mappings leave out is an S box holding 0
        owner, entry = dict(owner), dict(entry)
        vals = [entry.get(b, 0) for b in geo.boxes]
        if min(vals, default=0) < 0:
            raise ValueError("switching entries must be nonnegative")
        self._grid = [v if owner.get(b) == "T" else ~v for b, v in zip(geo.boxes, vals)]
        self.history = []

    @classmethod
    def _of_grid(cls, geo, grid, history):
        st = cls.__new__(cls)
        st.beta, st._geo, st._grid, st.history = geo.beta, geo, grid, history
        return st

    @property
    def owner(self) -> dict:
        return {b: "T" if x >= 0 else "S" for b, x in zip(self._geo.boxes, self._grid)}

    @property
    def entry(self) -> dict:
        return {b: x if x >= 0 else ~x for b, x in zip(self._geo.boxes, self._grid)}

    def copy(self):
        return SwitchState._of_grid(self._geo, list(self._grid), list(self.history))

    def _swap(self, s, t):
        """Exchange the S slot s with the T slot t and record it with both boxes."""
        g, boxes = self._grid, self._geo.boxes
        self.history.append((~g[s], g[t], boxes[s], boxes[t]))
        g[s], g[t] = g[t], g[s]

    def apply(self, sbox, tbox):
        self._swap(self._geo.slot[sbox], self._geo.slot[tbox])

    def admissible_swaps(self):
        """All (sbox, tbox) pairs, in a canonical order."""
        boxes = self._geo.boxes
        return [(boxes[s], boxes[t]) for s, t in _slot_swaps(self._geo, self._grid)]

    def inner_region(self):
        """Column lengths of the T region; raises unless it is a Young diagram."""
        geo, g = self._geo, self._grid
        cols = [0] * len(self.beta)
        for i, (r, c) in enumerate(geo.boxes):
            if g[i] < 0:
                continue
            u, l = geo.above[i], geo.before[i]
            if u is not None and g[u] < 0:
                raise ShapeMismatch("terminal region is not top-justified")
            if l is not None and g[l] < 0:
                raise ShapeMismatch("terminal region is not left-justified")
            cols[c - 1] = r
        return partition(cols)

    def _rows(self):
        """The (is_t, entry) pairs of each row, top row first."""
        cells = [(x >= 0, x if x >= 0 else ~x) for x in self._grid]
        off = 0
        for n in self._geo.rows:
            yield cells[off : off + n]
            off += n

    def render(self) -> str:
        """One line per row; S entries are primed."""
        mark = {True: " ", False: "'"}
        return "\n".join("".join(f"{v}{mark[t]}" for t, v in row).rstrip() for row in self._rows())

    def to_json_dict(self) -> dict:
        grid = [[{"entry": v, "owner": "T" if t else "S"} for t, v in row] for row in self._rows()]
        return {"beta": list(self.beta), "grid": grid}


def init_switch(t: SkewTableau) -> SwitchState:
    """Superstandard inner filling of gamma plus the inverted socle tableau outside."""
    if not check_socle(t):
        raise InvalidTableau("socle tableau expected")
    geo = _geometry(t.beta)
    g = _inner_grid(geo, t.gamma)
    s = t.max_entry()
    for box, v in t.entries.items():
        g[geo.slot[box]] = s + 1 - v
    return SwitchState._of_grid(geo, g, [])


def _inner_grid(geo, gamma):
    """The superstandard S filling of gamma, signed, and T entries 0 outside it."""
    return [~r if r <= part(gamma, c) else 0 for r, c in geo.boxes]


def run_switch(state: SwitchState, order: str = "deterministic", rng=None) -> SwitchState:
    """Swap until terminal; any maximal swap sequence gives the same result.

    The deterministic order repeatedly slides the T entries, scanned by
    increasing value then position, as far as they go.  The seeded-random
    order draws uniformly among all admissible swaps.

    Every order terminates, so no swap count needs a guard: a swap moves
    one T entry from (r, c) to (r - 1, c) or (r, c - 1), and a box of a
    diagram of weight w has r + c <= w + 1, so no T entry moves more than
    w - 1 times and no run makes more than w(w - 1) swaps.
    """
    st = state.copy()
    geo, g = st._geo, st._grid
    if order == "deterministic":
        up, down, left, right, above, before = geo.up, geo.down, geo.left, geo.right, geo.above, geo.before
        moved = True
        while moved:
            moved = False
            # by value, then row-major: the slot order is the box order
            for v, cur in sorted((v, i) for i, v in enumerate(g) if v >= 0):
                if g[cur] != v:
                    continue  # displaced earlier in this pass
                while True:
                    s = above[cur]
                    if s is None or g[s] >= 0 or not _swap_ok(g, s, cur, left, right, 0):
                        s = before[cur]
                        if s is None or g[s] >= 0 or not _swap_ok(g, s, cur, up, down, 1):
                            break
                    st._swap(s, cur)
                    cur = s
                    moved = True
    elif order == "seeded-random":
        if rng is None:
            rng = random.Random(0)
        while True:
            swaps = _slot_swaps(geo, g)
            if not swaps:
                break
            st._swap(*rng.choice(swaps))
    else:
        raise ValueError(f"order must be 'deterministic' or 'seeded-random', got {order!r}")
    return st


def extract_duallr(state: SwitchState, expected_inner: tuple) -> SkewTableau:
    """Read off the S entries of a terminal state as a skew tableau."""
    inner = state.inner_region()
    if inner != partition(expected_inner):
        raise ShapeMismatch(f"terminal inner region {inner} differs from {expected_inner}")
    entries = {b: ~x for b, x in zip(state._geo.boxes, state._grid) if x < 0}
    content_rows = [0] * max(entries.values(), default=0)
    for v in entries.values():
        content_rows[v - 1] += 1
    return SkewTableau(transpose(tuple(content_rows)), state.beta, inner, entries)


def switch_to_duallr(t: SkewTableau, order: str = "deterministic", rng=None) -> SkewTableau:
    """Full pipeline: initialize, run to a terminal state, extract the result."""
    state = run_switch(init_switch(t), order=order, rng=rng)
    return extract_duallr(state, t.alpha)


class ConjectureReport:
    """Outcome of comparing switching with the closed-form dual conversion."""

    def __init__(self, max_beta_weight, seeds):
        self.max_beta_weight = max_beta_weight
        self.seeds = seeds
        self.shapes = self.tableaux = self.runs = 0
        self.states = 0  # grids the every-order search visited; not in the JSON
        self.mismatches = []
        self.notes = [RELABELING_NOTE]

    @property
    def ok(self):
        return not self.mismatches

    def to_json_dict(self):
        keys = ("max_beta_weight", "seeds", "shapes", "tableaux", "runs", "mismatches", "notes")
        return {k: getattr(self, k) for k in keys}

    def render(self):
        lines = [
            f"switching conjecture sweep: |beta| <= {self.max_beta_weight}, "
            f"{self.seeds} random orders per tableau",
            *(f"note: {n}" for n in self.notes),
            f"shapes: {self.shapes}  tableaux: {self.tableaux}  runs: {self.runs}",
            f"mismatches: {len(self.mismatches) or 'none'}",
            *(f"  {m}" for m in self.mismatches),
        ]
        return "\n".join(lines)


def check_conjecture(max_beta_weight: int, seeds: int = 5, base_seed: int = 0) -> ConjectureReport:
    """Compare switching with socle_to_duallr on every socle tableau up to the bound.

    A mismatch is recorded with full replay data; it is a result, not an
    error.  The betas are switched on every CPU this process may use
    (``_shards``), each beta's tableaux by one process, and the report is
    that of switching them all here in order.
    """
    if seeds < 0:
        raise ValueError(f"seeds must be nonnegative, got {seeds}")
    # imported here, as in checks.realize_sweep: only a sweep pays to compile it
    from . import _shards

    report = ConjectureReport(max_beta_weight, seeds)
    # one generator per seed, rewound to its seeded state before each run;
    # a forked shard runs on its own copies
    rngs = [random.Random(base_seed + k) for k in range(seeds)]
    orders = [(f"seed {base_seed + k}", rng, rng.getstate()) for k, rng in enumerate(rngs)]
    betas = []
    for beta, n in beta_triple_counts(max_beta_weight):
        report.shapes += n
        betas.append(beta)

    def switch_beta(beta):
        # one search finds every socle chain on beta, and a shape it did not
        # find has no tableau; the enumerator's chains are valid, so neither
        # the tableau nor its conversion is checked again
        share = ConjectureReport(max_beta_weight, seeds)
        chains = _beta_chains(beta, "socle")
        geo = _Geometry(beta)  # not cached: the sweep visits each beta once
        for alpha, gamma in sorted(chains, key=triple_order):
            inner = _inner_grid(geo, gamma)
            for chain in chains[alpha, gamma]:
                _switch_one(share, geo, chain, alpha, inner, orders)
        return [(share.tableaux, share.runs, share.states, share.mismatches)]

    for tableaux, runs, states, mismatches in _shards.run(betas, switch_beta):
        report.tableaux += tableaux
        report.runs += runs
        report.states += states
        report.mismatches += mismatches
    return report


def _lr_chain_entries(geo, chain, alpha):
    """The predicted terminal grid of the LR tableau ``chain``: signed S
    entries outside alpha, 0 (any T entry) on alpha; None unless the chain
    runs from alpha to beta by horizontal strips."""
    if not chain or chain[0] != alpha or chain[-1] != geo.beta:
        return None
    want = [0] * len(geo.boxes)
    for l in range(1, len(chain)):
        for c, (b, a) in enumerate(zip_longest(chain[l], chain[l - 1], fillvalue=0), 1):
            if b - a == 1:
                want[geo.slot[(b, c)]] = ~l
            elif b != a:
                return None
    return want


def _predicted(grid, want):
    """Whether ``grid`` is the terminal grid ``want`` (see ``_lr_chain_entries``) predicts."""
    return want is not None and all(x == w if w < 0 else x >= 0 for x, w in zip(grid, want))


def _switch_one(report, geo, chain, alpha, inner, orders):
    """Switch the tableau of one socle chain in every order and record mismatches.

    ``inner`` is the grid of ``_inner_grid``; the T entries are filled
    from the chain.  With seeded orders the search runs first: when its
    one terminal grid is the predicted one, every maximal swap sequence
    ends there, so no order is run.  Otherwise every order runs, and each
    run whose terminal grid differs is recorded; tableaux are built only
    for a record.
    """
    report.tableaux += 1
    g = inner[:]
    s = len(chain) - 1  # each step removes a nonempty strip
    for l in range(1, s + 1):
        for c, (b, a) in enumerate(zip_longest(chain[l - 1], chain[l], fillvalue=0), 1):
            if a < b:
                g[geo.slot[(b, c)]] = s + 1 - l
    lr_chain = _socle_chain_to_duallr(chain)
    want = _lr_chain_entries(geo, lr_chain, alpha)
    if orders and want is not None:
        terminal, states = _search(geo, g)
        report.states += states
        if terminal is not None and _predicted(terminal, want):
            report.runs += 1 + len(orders)
            return
    initial = SwitchState._of_grid(geo, g, [])
    baseline = run_switch(initial)
    base = baseline._grid
    base_bad = not _predicted(base, want)
    runs = [("deterministic", baseline)]
    for label, rng, start in orders:
        rng.setstate(start)
        runs.append((label, run_switch(initial, "seeded-random", rng)))
    report.runs += len(runs)
    for label, st in runs:
        # a terminal grid that differs from the deterministic one is a mismatch
        if not base_bad and st._grid == base:
            continue
        t = _chain_tableau(chain, "socle")
        try:
            got = extract_duallr(st, alpha).to_json_dict()
        except ShapeMismatch:
            got = None
        report.mismatches.append(
            {
                "shape": [list(t.alpha), list(t.beta), list(t.gamma)],
                "tableau": t.to_json_dict(),
                "order": label,
                "expected": _chain_tableau(lr_chain, "lr").to_json_dict(),
                "got": got,
                "trace": [[se, te, list(sb), list(tb)] for se, te, sb, tb in st.history],
            }
        )
