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
from itertools import groupby

from .convert import _socle_chain_to_duallr
from .partitions import partition, shape_triples, transpose, weight
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
    """Box lists of the diagram of beta, shared by every state over it.

    ``up``/``down`` map a box to the boxes above/below it in its
    column, ``left``/``right`` to the boxes before/after it in its row.
    ``targets`` maps each box, in the canonical (row-major) order, to the
    boxes directly above and left of it (None outside the diagram): the S
    boxes a T box there could swap with.
    """

    __slots__ = ("beta", "rows", "up", "down", "left", "right", "targets")

    def __init__(self, beta):
        rows = transpose(beta)
        self.beta = beta
        self.rows = rows
        row_lines = [[(r, c) for c in range(1, n + 1)] for r, n in enumerate(rows, 1)]
        col_lines = [[(r, c) for r in range(1, n + 1)] for c, n in enumerate(beta, 1)]
        self.up, self.down, self.left, self.right = {}, {}, {}, {}
        for line in row_lines:
            for i, box in enumerate(line):
                self.left[box], self.right[box] = line[:i], line[i + 1 :]
        for line in col_lines:
            for i, box in enumerate(line):
                self.up[box], self.down[box] = line[:i], line[i + 1 :]
        self.targets = {
            box: (self.up[box][-1] if self.up[box] else None, self.left[box][-1] if self.left[box] else None)
            for line in row_lines
            for box in line
        }


@lru_cache(maxsize=None)
def _geometry(beta):
    # keyed by the validated partition, so one entry per diagram a caller visits
    return _Geometry(beta)


class SwitchState:
    """Mutable grid over the diagram of beta; every box is owned by S or T.

    Both fillings are semistandard on their own boxes, and
    ``_exchange_ok`` relies on this.  The initial grid is: ``init_switch``
    accepts only socle tableaux, whose inverted entries weakly increase
    along rows and strictly down columns, and the superstandard S filling
    (row r holds r) is semistandard as well.  ``_exchange_ok`` admits only
    swaps that keep both fillings so.
    """

    __slots__ = ("beta", "owner", "entry", "history", "_geo")

    def __init__(self, beta, owner, entry):
        self.beta = partition(beta)
        self.owner = dict(owner)
        self.entry = dict(entry)
        self.history = []
        self._geo = _geometry(self.beta)

    def copy(self):
        st = SwitchState.__new__(SwitchState)
        st.beta = self.beta
        st.owner = dict(self.owner)
        st.entry = dict(self.entry)
        st.history = list(self.history)
        st._geo = self._geo
        return st

    def _fits(self, who, v, before, after, strict):
        """Whether value v sits between the ``who`` boxes before and after it in one line."""
        owner, entry = self.owner, self.entry
        for b in before:
            if owner[b] == who and (entry[b] >= v if strict else entry[b] > v):
                return False
        for b in after:
            if owner[b] == who and (entry[b] <= v if strict else entry[b] < v):
                return False
        return True

    def _exchange_ok(self, sbox, tbox, vertical):
        """Admissibility of an adjacent S/T pair, read off the two values.

        The moving T value keeps its order against the other T boxes along
        the line of the swap, and so does the moving S value, so only the
        crossing line of each needs a check: the columns for a horizontal
        swap, the rows for a vertical one.
        """
        geo = self._geo
        s_val, t_val = self.entry[sbox], self.entry[tbox]
        if vertical:
            return self._fits("T", t_val, geo.left[sbox], geo.right[sbox], False) and self._fits(
                "S", s_val, geo.left[tbox], geo.right[tbox], False
            )
        return self._fits("T", t_val, geo.up[sbox], geo.down[sbox], True) and self._fits(
            "S", s_val, geo.up[tbox], geo.down[tbox], True
        )

    def _exchange(self, a, b):
        self.owner[a], self.owner[b] = self.owner[b], self.owner[a]
        self.entry[a], self.entry[b] = self.entry[b], self.entry[a]

    def apply(self, sbox, tbox):
        record = (self.entry[sbox], self.entry[tbox], sbox, tbox)
        self._exchange(sbox, tbox)
        self.history.append(record)

    def admissible_swaps(self):
        """All (sbox, tbox) pairs, in a canonical order."""
        owner = self.owner
        out = []
        for box, (up, left) in self._geo.targets.items():
            if owner[box] != "T":
                continue
            if up is not None and owner[up] == "S" and self._exchange_ok(up, box, True):
                out.append((up, box))
            if left is not None and owner[left] == "S" and self._exchange_ok(left, box, False):
                out.append((left, box))
        return out

    def is_terminal(self):
        return not self.admissible_swaps()

    def inner_region(self):
        """Column lengths of the T region; raises unless it is a Young diagram."""
        tb = {b for b, who in self.owner.items() if who == "T"}
        for (r, c) in tb:
            if r > 1 and (r - 1, c) not in tb:
                raise ShapeMismatch("terminal region is not top-justified")
            if c > 1 and (r, c - 1) not in tb:
                raise ShapeMismatch("terminal region is not left-justified")
        cols = {}
        for (r, c) in tb:
            cols[c] = max(cols.get(c, 0), r)
        return partition(tuple(cols.get(c, 0) for c in range(1, len(self.beta) + 1)))

    def render(self) -> str:
        """One line per row; S entries are primed."""
        rows = self._geo.rows
        lines = []
        for r in range(1, len(rows) + 1):
            cells = []
            for c in range(1, rows[r - 1] + 1):
                v = self.entry[(r, c)]
                mark = "'" if self.owner[(r, c)] == "S" else " "
                cells.append(f"{v}{mark}")
            lines.append("".join(cells).rstrip())
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        rows = self._geo.rows
        grid = []
        for r in range(1, len(rows) + 1):
            grid.append(
                [
                    {"entry": self.entry[(r, c)], "owner": self.owner[(r, c)]}
                    for c in range(1, rows[r - 1] + 1)
                ]
            )
        return {"beta": list(self.beta), "grid": grid}


def init_switch(t: SkewTableau) -> SwitchState:
    """Superstandard inner filling of gamma plus the inverted socle tableau outside."""
    if not check_socle(t):
        raise InvalidTableau("socle tableau expected")
    return _init_switch(t)


def _init_switch(t):
    """``init_switch`` for a tableau already known to be a socle tableau."""
    s = t.max_entry()
    owner = {}
    entry = {}
    grows = transpose(t.gamma)
    for r in range(1, len(grows) + 1):
        for c in range(1, grows[r - 1] + 1):
            owner[(r, c)] = "S"
            entry[(r, c)] = r
    for box, v in t.entries.items():
        owner[box] = "T"
        entry[box] = s + 1 - v
    return SwitchState(t.beta, owner, entry)


def run_switch(state: SwitchState, order: str = "deterministic", rng=None) -> SwitchState:
    """Swap until terminal; any maximal swap sequence gives the same result.

    The deterministic order repeatedly slides the T entries, scanned by
    increasing value then position, as far as they go.  The seeded-random
    order draws uniformly among all admissible swaps.
    """
    st = state.copy()
    owner, entry, targets = st.owner, st.entry, st._geo.targets
    s_hint = max(entry.values(), default=0)
    guard = weight(st.beta) ** 2 * max(s_hint, 1) + 1
    if order == "deterministic":
        moved = True
        while moved:
            moved = False
            snapshot = sorted((entry[b], b) for b, who in owner.items() if who == "T")
            for v, box in snapshot:
                if owner[box] != "T" or entry[box] != v:
                    continue  # displaced earlier in this pass
                cur = box
                while True:
                    up, left = targets[cur]
                    if up is not None and owner[up] == "S" and st._exchange_ok(up, cur, True):
                        st.apply(up, cur)
                        cur = up
                    elif left is not None and owner[left] == "S" and st._exchange_ok(left, cur, False):
                        st.apply(left, cur)
                        cur = left
                    else:
                        break
                    moved = True
                    if len(st.history) > guard:
                        raise NonTerminating(f"exceeded {guard} swaps")
    elif order == "seeded-random":
        if rng is None:
            rng = random.Random(0)
        while True:
            swaps = st.admissible_swaps()
            if not swaps:
                break
            st.apply(*rng.choice(swaps))
            if len(st.history) > guard:
                raise NonTerminating(f"exceeded {guard} swaps")
    else:
        raise ValueError(f"order must be 'deterministic' or 'seeded-random', got {order!r}")
    return st


def extract_duallr(state: SwitchState, expected_inner: tuple) -> SkewTableau:
    """Read off the S entries of a terminal state as a skew tableau."""
    inner = state.inner_region()
    if inner != partition(expected_inner):
        raise ShapeMismatch(f"terminal inner region {inner} differs from {expected_inner}")
    entries = {b: state.entry[b] for b, who in state.owner.items() if who == "S"}
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
    for beta, group in groupby(shape_triples(max_beta_weight), key=lambda s: s.beta):
        # one search finds every socle chain on beta; the enumerator's chains
        # are valid, so neither the tableau nor its conversion is checked again
        chains = _beta_chains(beta, "socle")
        for alpha, _, gamma in group:
            report.shapes += 1
            for chain in chains.get((alpha, gamma), ()):
                _switch_one(report, chain, seeds, base_seed)
    return report


def _switch_one(report, chain, seeds, base_seed):
    """Switch the tableau of one socle chain in every order and record mismatches."""
    t = _chain_tableau(chain, "socle")
    report.tableaux += 1
    expected = _chain_tableau(_socle_chain_to_duallr(chain), "lr")
    initial = _init_switch(t)
    baseline = run_switch(initial)
    runs = [("deterministic", baseline)]
    for k in range(seeds):
        rng = random.Random(base_seed + k)
        runs.append((f"seed {base_seed + k}", run_switch(initial, "seeded-random", rng)))
    report.runs += len(runs)
    base_got = _read_off(baseline, t.alpha)
    base_bad = base_got != expected
    for label, st in runs:
        if st.owner == baseline.owner and st.entry == baseline.entry:
            got, bad = base_got, base_bad
        else:  # terminal grids must agree across orders
            got, bad = _read_off(st, t.alpha), True
        if bad:
            report.mismatches.append(
                {
                    "shape": [list(t.alpha), list(t.beta), list(t.gamma)],
                    "tableau": t.to_json_dict(),
                    "order": label,
                    "expected": expected.to_json_dict(),
                    "got": got.to_json_dict() if got else None,
                    "trace": [
                        [se, te, list(sb), list(tb)] for se, te, sb, tb in st.history
                    ],
                }
            )
