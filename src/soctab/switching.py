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
from itertools import groupby, zip_longest

from .convert import _socle_chain_to_duallr
from .partitions import part, partition, shape_triples, transpose, weight
from .tableaux import InvalidTableau, SkewTableau, _beta_chains, _chain_tableau, check_socle

RELABELING_NOTE = (
    "outer entries are inverted as i -> s+1-i with s the largest inner value; "
    "for s != 4 this generalization is assumed, not independently specified"
)


class ShapeMismatch(ValueError):
    """Terminal inner region differs from the expected subspace type."""


class NonTerminating(RuntimeError):
    """Swap-count guard exceeded; indicates a bug in the swap rules."""


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
        self.beta = beta
        self.rows = rows
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


@lru_cache(maxsize=None)
def _geometry(beta):
    # keyed by the validated partition, so one entry per diagram a caller visits
    return _Geometry(beta)


def _swap_ok(is_t, val, s, t, before, after, strict):
    """Whether the S slot s may swap with the T slot t below or right of it.

    The moving T value keeps its order against the other T boxes along
    the line of the swap, and so does the moving S value, so only the
    crossing lines need a check.  The T boxes in the line of s and the S
    boxes in the line of t, ``before`` and ``after`` the swap, must stay
    weakly increasing along a row (a vertical swap, ``strict`` 0) and
    strictly increasing down a column (a horizontal swap, ``strict`` 1;
    the entries are ints, so x > v - 1 is x >= v).
    """
    v = val[t]
    for b in before[s]:
        if is_t[b] and val[b] > v - strict:
            return False
    for b in after[s]:
        if is_t[b] and val[b] < v + strict:
            return False
    v = val[s]
    for b in before[t]:
        if not is_t[b] and val[b] > v - strict:
            return False
    for b in after[t]:
        if not is_t[b] and val[b] < v + strict:
            return False
    return True


class SwitchState:
    """Mutable grid over the diagram of beta; every box is owned by S or T.

    The grid is two lists indexed by slot (see ``_Geometry``): ``_is_t``,
    whether T owns the box, and ``_val``, its entry.  ``owner`` and
    ``entry`` read them as (r, c)-keyed dicts, with owners "S" and "T".

    Both fillings are semistandard on their own boxes, and the swap test
    relies on this.  The initial grid is: ``init_switch`` accepts only
    socle tableaux, whose inverted entries weakly increase along rows and
    strictly down columns, and the superstandard S filling (row r holds
    r) is semistandard as well.  Only swaps that keep both fillings so
    are admissible.
    """

    __slots__ = ("beta", "history", "_geo", "_is_t", "_val")

    def __init__(self, beta, owner, entry):
        self.beta = partition(beta)
        self._geo = geo = _geometry(self.beta)
        # a box the mappings leave out is an S box holding 0
        owner, entry = dict(owner), dict(entry)
        self._is_t = [owner.get(b) == "T" for b in geo.boxes]
        self._val = [entry.get(b, 0) for b in geo.boxes]
        self.history = []

    @classmethod
    def _of_lists(cls, geo, is_t, val, history):
        st = cls.__new__(cls)
        st.beta, st._geo, st._is_t, st._val, st.history = geo.beta, geo, is_t, val, history
        return st

    @property
    def owner(self) -> dict:
        return {b: "T" if t else "S" for b, t in zip(self._geo.boxes, self._is_t)}

    @property
    def entry(self) -> dict:
        return dict(zip(self._geo.boxes, self._val))

    def copy(self):
        return SwitchState._of_lists(self._geo, list(self._is_t), list(self._val), list(self.history))

    def _swap(self, s, t):
        """Exchange the S slot s with the T slot t and record it with both boxes."""
        is_t, val, boxes = self._is_t, self._val, self._geo.boxes
        self.history.append((val[s], val[t], boxes[s], boxes[t]))
        is_t[s], is_t[t] = is_t[t], is_t[s]
        val[s], val[t] = val[t], val[s]

    def apply(self, sbox, tbox):
        slot = self._geo.slot
        self._swap(slot[sbox], slot[tbox])

    def _slot_swaps(self):
        """All admissible (s, t) slot pairs, in the canonical order: by the
        slot of t, the swap from above before the swap from the left."""
        geo, is_t, val = self._geo, self._is_t, self._val
        up, down, left, right = geo.up, geo.down, geo.left, geo.right
        out = []
        for t, s_up, s_left in geo.targets:
            if not is_t[t]:
                continue
            if s_up is not None and not is_t[s_up] and _swap_ok(is_t, val, s_up, t, left, right, 0):
                out.append((s_up, t))
            if s_left is not None and not is_t[s_left] and _swap_ok(is_t, val, s_left, t, up, down, 1):
                out.append((s_left, t))
        return out

    def admissible_swaps(self):
        """All (sbox, tbox) pairs, in a canonical order."""
        boxes = self._geo.boxes
        return [(boxes[s], boxes[t]) for s, t in self._slot_swaps()]

    def is_terminal(self):
        return not self._slot_swaps()

    def inner_region(self):
        """Column lengths of the T region; raises unless it is a Young diagram."""
        geo, is_t = self._geo, self._is_t
        cols = [0] * len(self.beta)
        for i, (r, c) in enumerate(geo.boxes):
            if not is_t[i]:
                continue
            u, l = geo.above[i], geo.before[i]
            if u is not None and not is_t[u]:
                raise ShapeMismatch("terminal region is not top-justified")
            if l is not None and not is_t[l]:
                raise ShapeMismatch("terminal region is not left-justified")
            cols[c - 1] = r
        return partition(cols)

    def _rows(self):
        """The (is_t, val) pairs of each row, top row first."""
        cells = list(zip(self._is_t, self._val))
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
    is_t, val = _inner_grid(geo, t.gamma)
    s = t.max_entry()
    slot = geo.slot
    for box, v in t.entries.items():
        val[slot[box]] = s + 1 - v
    return SwitchState._of_lists(geo, is_t, val, [])


def _inner_grid(geo, gamma):
    """Owner and entry lists with the superstandard S filling of gamma and
    T everywhere else; the T entries are left 0 for the caller to fill."""
    is_t = [r > part(gamma, c) for r, c in geo.boxes]
    return is_t, [0 if t else r for t, (r, _) in zip(is_t, geo.boxes)]


def run_switch(state: SwitchState, order: str = "deterministic", rng=None) -> SwitchState:
    """Swap until terminal; any maximal swap sequence gives the same result.

    The deterministic order repeatedly slides the T entries, scanned by
    increasing value then position, as far as they go.  The seeded-random
    order draws uniformly among all admissible swaps.
    """
    st = state.copy()
    geo, is_t, val, history = st._geo, st._is_t, st._val, st.history
    guard = weight(st.beta) ** 2 * max(max(val, default=0), 1) + 1
    if order == "deterministic":
        up, down, left, right, above, before = geo.up, geo.down, geo.left, geo.right, geo.above, geo.before
        moved = True
        while moved:
            moved = False
            # by value, then row-major: the slot order is the box order
            for v, cur in sorted((v, i) for i, (t, v) in enumerate(zip(is_t, val)) if t):
                if not is_t[cur] or val[cur] != v:
                    continue  # displaced earlier in this pass
                while True:
                    s = above[cur]
                    if s is not None and not is_t[s] and _swap_ok(is_t, val, s, cur, left, right, 0):
                        st._swap(s, cur)
                    else:
                        s = before[cur]
                        if s is not None and not is_t[s] and _swap_ok(is_t, val, s, cur, up, down, 1):
                            st._swap(s, cur)
                        else:
                            break
                    cur = s
                    moved = True
                    if len(history) > guard:
                        raise NonTerminating(f"exceeded {guard} swaps")
    elif order == "seeded-random":
        if rng is None:
            rng = random.Random(0)
        while True:
            swaps = st._slot_swaps()
            if not swaps:
                break
            st._swap(*rng.choice(swaps))
            if len(history) > guard:
                raise NonTerminating(f"exceeded {guard} swaps")
    else:
        raise ValueError(f"order must be 'deterministic' or 'seeded-random', got {order!r}")
    return st


def extract_duallr(state: SwitchState, expected_inner: tuple) -> SkewTableau:
    """Read off the S entries of a terminal state as a skew tableau."""
    inner = state.inner_region()
    if inner != partition(expected_inner):
        raise ShapeMismatch(f"terminal inner region {inner} differs from {expected_inner}")
    entries = {b: v for b, t, v in zip(state._geo.boxes, state._is_t, state._val) if not t}
    content_rows = []
    for v in entries.values():
        while len(content_rows) < v:
            content_rows.append(0)
        content_rows[v - 1] += 1
    content = transpose(tuple(content_rows))
    return SkewTableau(content, state.beta, inner, entries)


def _read_off(state: SwitchState, expected_inner: tuple):
    """extract_duallr, or None when the terminal inner region has the wrong shape."""
    try:
        return extract_duallr(state, expected_inner)
    except ShapeMismatch:
        return None


def switch_to_duallr(t: SkewTableau, order: str = "deterministic", rng=None) -> SkewTableau:
    """Full pipeline: initialize, run to a terminal state, extract the result."""
    state = run_switch(init_switch(t), order=order, rng=rng)
    return extract_duallr(state, t.alpha)


class ConjectureReport:
    """Outcome of comparing switching with the closed-form dual conversion."""

    def __init__(self, max_beta_weight, seeds):
        self.max_beta_weight = max_beta_weight
        self.seeds = seeds
        self.shapes = 0
        self.tableaux = 0
        self.runs = 0
        self.mismatches = []
        self.notes = [RELABELING_NOTE]

    @property
    def ok(self):
        return not self.mismatches

    def to_json_dict(self):
        return {
            "max_beta_weight": self.max_beta_weight,
            "seeds": self.seeds,
            "shapes": self.shapes,
            "tableaux": self.tableaux,
            "runs": self.runs,
            "mismatches": self.mismatches,
            "notes": self.notes,
        }

    def render(self):
        lines = [
            f"switching conjecture sweep: |beta| <= {self.max_beta_weight}, "
            f"{self.seeds} random orders per tableau",
        ]
        lines += [f"note: {n}" for n in self.notes]
        lines.append(
            f"shapes: {self.shapes}  tableaux: {self.tableaux}  runs: {self.runs}"
        )
        if self.ok:
            lines.append("mismatches: none")
        else:
            lines.append(f"mismatches: {len(self.mismatches)}")
            for m in self.mismatches:
                lines.append(f"  {m}")
        return "\n".join(lines)


def check_conjecture(max_beta_weight: int, seeds: int = 5, base_seed: int = 0) -> ConjectureReport:
    """Compare switching with socle_to_duallr on every socle tableau up to the bound.

    A mismatch is recorded with full replay data; it is a result, not an
    error.
    """
    report = ConjectureReport(max_beta_weight, seeds)
    # one generator per seed, rewound to its seeded state before each run
    orders = []
    for k in range(seeds):
        rng = random.Random(base_seed + k)
        orders.append((f"seed {base_seed + k}", rng, rng.getstate()))
    for beta, group in groupby(shape_triples(max_beta_weight), key=lambda s: s.beta):
        # one search finds every socle chain on beta; the enumerator's chains
        # are valid, so neither the tableau nor its conversion is checked again
        chains = _beta_chains(beta, "socle")
        geo = _geometry(beta)
        for alpha, _, gamma in group:
            report.shapes += 1
            found = chains.get((alpha, gamma))
            if not found:
                continue
            inner = _inner_grid(geo, gamma)
            # the terminal grid the conjecture predicts: T on alpha, S outside
            want_t = [r <= part(alpha, c) for r, c in geo.boxes]
            for chain in found:
                _switch_one(report, geo, chain, alpha, inner, want_t, orders)
    return report


def _lr_chain_entries(geo, chain, alpha):
    """Slot entries of the LR tableau of ``chain`` (0 on alpha), or None
    unless the chain runs from alpha to beta by horizontal strips."""
    if not chain or chain[0] != alpha or chain[-1] != geo.beta:
        return None
    val = [0] * len(geo.boxes)
    for l in range(1, len(chain)):
        for c, (b, a) in enumerate(zip_longest(chain[l], chain[l - 1], fillvalue=0), 1):
            if b - a == 1:
                val[geo.slot[(b, c)]] = l
            elif b != a:
                return None
    return val


def _switch_one(report, geo, chain, alpha, inner, want_t, orders):
    """Switch the tableau of one socle chain in every order and record mismatches.

    ``inner`` is the owner and entry lists of ``_inner_grid``, and the T
    entries are filled straight from the chain.  The terminal grids are
    compared as slot lists; the tableaux of a run are built only when it
    is recorded.
    """
    report.tableaux += 1
    is_t, val = inner[0][:], inner[1][:]
    s = len(chain) - 1  # each step removes a nonempty strip
    for l in range(1, s + 1):
        for c, (b, a) in enumerate(zip_longest(chain[l - 1], chain[l], fillvalue=0), 1):
            if a < b:
                val[geo.slot[(b, c)]] = s + 1 - l
    initial = SwitchState._of_lists(geo, is_t, val, [])
    lr_chain = _socle_chain_to_duallr(chain)
    want_val = _lr_chain_entries(geo, lr_chain, alpha)
    baseline = run_switch(initial)
    runs = [("deterministic", baseline)]
    for label, rng, start in orders:
        rng.setstate(start)
        runs.append((label, run_switch(initial, "seeded-random", rng)))
    report.runs += len(runs)
    base_bad = (
        want_val is None
        or baseline._is_t != want_t
        or any(v != w for t, v, w in zip(want_t, baseline._val, want_val) if not t)
    )
    for label, st in runs:
        # a terminal grid that differs from the deterministic one is a mismatch
        if not base_bad and st._val == baseline._val and st._is_t == baseline._is_t:
            continue
        t = _chain_tableau(chain, "socle")
        got = _read_off(st, alpha)
        report.mismatches.append(
            {
                "shape": [list(t.alpha), list(t.beta), list(t.gamma)],
                "tableau": t.to_json_dict(),
                "order": label,
                "expected": _chain_tableau(lr_chain, "lr").to_json_dict(),
                "got": got.to_json_dict() if got else None,
                "trace": [[se, te, list(sb), list(tb)] for se, te, sb, tb in st.history],
            }
        )
