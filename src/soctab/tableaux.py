"""Skew tableaux with the LR axioms and their socle-tableau mirror.

A tableau of shape (alpha, beta, gamma) fills the skew diagram
beta \\ gamma with transpose(alpha)[l-1] copies of each entry l.  An LR
tableau has weakly increasing rows, strictly increasing columns and the
lattice permutation property counted from the right; a socle tableau has
weakly decreasing rows, strictly decreasing columns and the mirrored
lattice condition counted from the left.

Tableaux are equivalently partition chains: for the socle kind the chain
decreases from beta to gamma and entry l occupies chain[l-1] \\ chain[l];
for the LR kind the chain increases from gamma to beta and entry l
occupies chain[l] \\ chain[l-1].  Every chain search walks down, removing
horizontal strips from beta, and reads an LR chain in reverse.

A tableau is built in one of two ways.  ``SkewTableau(...)`` takes a
filling from outside (JSON, the switching read-off, user code) and checks
that it covers the skew boxes with content transpose(alpha).  Every
tableau the library derives (enumeration, the read-offs of an embedding,
the conversions) comes from ``_chain_tableau``, which validates the chain
instead: a valid chain fixes the boxes and the content.
"""

from functools import lru_cache
from numbers import Integral
from operator import ge
from typing import Iterator, NamedTuple

from .partitions import (
    NotContained,
    Shape,
    contains,
    part,
    partition,
    skew_boxes,
    transpose,
    weight,
)


class InvalidTableau(ValueError):
    """Raised for fillings violating shape, content, or the requested axioms."""


class MatchingFailed(InvalidTableau):
    """Raised when no level matching exists; equivalent to a mirrored-lattice failure."""


class ChainNotNested(InvalidTableau):
    pass


class NotHorizontalStrip(InvalidTableau):
    pass


def _is_int(v):
    return isinstance(v, Integral) and not isinstance(v, bool)


def _is_json_int(v):
    """An int that ``json`` writes as a number: no bool, no numpy integer."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


class SkewTableau:
    """Immutable filling of beta \\ gamma; entries is a dict (row, col) -> value."""

    __slots__ = ("alpha", "beta", "gamma", "entries", "_hash")

    def __init__(self, alpha, beta, gamma, entries):
        self.alpha = partition(alpha)
        self.beta = partition(beta)
        self.gamma = partition(gamma)
        self.entries = dict(entries)
        self._hash = None
        # the entries cover exactly the skew boxes, with content transpose(alpha)
        if self.entries.keys() != set(skew_boxes(self.beta, self.gamma)):
            raise InvalidTableau("entries must cover exactly the skew boxes")
        counts = {}
        for v in self.entries.values():
            if not _is_json_int(v) or v < 1:
                raise InvalidTableau(f"entries must be positive integers, got {v!r}")
            counts[v] = counts.get(v, 0) + 1
        if weight(self.alpha) != len(self.entries):
            # refused before transpose(alpha), which costs alpha[0]
            raise InvalidTableau(
                f"content {counts} does not match transpose(alpha): "
                f"|alpha| = {weight(self.alpha)}, not {len(self.entries)}"
            )
        cols = transpose(self.alpha)
        expected = {l + 1: cols[l] for l in range(len(cols))}
        if counts != expected:
            raise InvalidTableau(
                f"content {counts} does not match transpose(alpha) = {cols}"
            )

    @property
    def shape(self) -> Shape:
        return Shape(self.alpha, self.beta, self.gamma)

    def boxes(self) -> list:
        return skew_boxes(self.beta, self.gamma)

    def row_sequence(self) -> tuple:
        """Entries read box by box in row-major order; used as the sort key."""
        return tuple(self.entries[b] for b in self.boxes())

    def max_entry(self) -> int:
        return self.alpha[0] if self.alpha else 0

    def __eq__(self, other):
        if not isinstance(other, SkewTableau):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.beta == other.beta
            and self.gamma == other.gamma
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.alpha, self.beta, self.gamma, tuple(sorted(self.entries.items())))
            )
        return self._hash

    def __repr__(self):
        return f"SkewTableau(alpha={self.alpha}, beta={self.beta}, gamma={self.gamma})"

    def render(self) -> str:
        """Rows top-down, one cell per box: '.' marks removed (gamma) boxes."""
        rows = transpose(self.beta)
        grows = transpose(self.gamma)
        lines = []
        for r in range(1, len(rows) + 1):
            cells = []
            for c in range(1, rows[r - 1] + 1):
                if c <= (grows[r - 1] if r <= len(grows) else 0):
                    cells.append(".")
                else:
                    v = self.entries[(r, c)]
                    cells.append(str(v) if v < 10 else f"[{v}]")
            lines.append("".join(cells))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        rows = transpose(self.beta)
        grows = transpose(self.gamma)
        grid = []
        for r in range(1, len(rows) + 1):
            glen = grows[r - 1] if r <= len(grows) else 0
            row = [0] * glen
            row += [self.entries[(r, c)] for c in range(glen + 1, rows[r - 1] + 1)]
            grid.append(row)
        return {
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "gamma": list(self.gamma),
            "grid": grid,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SkewTableau":
        """Inverse of to_json_dict; InvalidTableau unless data is an object whose
        alpha, beta and gamma are lists of integers and whose grid is a list of them."""
        if not isinstance(data, dict):
            raise InvalidTableau("tableau JSON must be an object")
        beta, gamma, grid, alpha = (data[k] for k in ("beta", "gamma", "grid", "alpha"))
        if not all(map(_is_int_list, (alpha, beta, gamma))) or not (
            isinstance(grid, list) and all(map(_is_int_list, grid))
        ):
            raise InvalidTableau("alpha, beta, gamma and each grid row must be lists of integers")
        beta = partition(beta)
        gamma = partition(gamma)
        # refused before any transpose, which costs the largest part
        if len(grid) != part(beta, 1):
            raise InvalidTableau("grid has the wrong number of rows")
        if not contains(beta, gamma):
            raise NotContained(f"{gamma} is not contained in {beta}")
        rows = transpose(beta)
        grows = transpose(gamma)
        entries = {}
        for r in range(1, len(rows) + 1):
            row = grid[r - 1]
            if len(row) != rows[r - 1]:
                raise InvalidTableau(f"row {r} has length {len(row)}, expected {rows[r-1]}")
            glen = grows[r - 1] if r <= len(grows) else 0
            for c in range(1, rows[r - 1] + 1):
                v = row[c - 1]
                if c <= glen:
                    if v != 0:
                        raise InvalidTableau(f"cell ({r},{c}) lies in gamma and must be 0")
                else:
                    entries[(r, c)] = v
        return cls(alpha, beta, gamma, entries)


def _lines(t: SkewTableau, axis: int):
    """The skew boxes by row (axis 0) or by column (axis 1), as {line: [positions ascending]}."""
    lines = {}
    for box in sorted(t.entries):
        lines.setdefault(box[axis], []).append(box[1 - axis])
    return lines


def _check_axioms(t: SkewTableau, increasing: bool) -> bool:
    """Rows weakly and columns strictly monotone, and the lattice condition.

    LR tableaux (``increasing``) grow along rows and down columns, and
    their columns are swept from the right; socle tableaux shrink, and
    theirs are swept from the left.  Either way, no sweep prefix of whole
    columns holds more entries l + 1 than entries l.
    """
    e = t.entries
    for r, cols in _lines(t, 0).items():
        for a, b in zip(cols, cols[1:]):
            x, y = e[(r, a)], e[(r, b)]
            if (x > y) if increasing else (x < y):
                return False
    col_rows = _lines(t, 1)
    for c, rows in col_rows.items():
        for a, b in zip(rows, rows[1:]):
            x, y = e[(a, c)], e[(b, c)]
            if (x >= y) if increasing else (x <= y):
                return False
    # count[l] is the number of entries l swept so far.  Each column is
    # taken in increasing order of its (distinct) values, so when entry
    # l + 1 is counted, the column's entry l already is.
    count = [0] * (t.max_entry() + 1)
    width = len(t.beta)
    for c in range(width, 0, -1) if increasing else range(1, width + 1):
        rows = col_rows.get(c, [])
        for r in rows if increasing else reversed(rows):
            v = e[(r, c)]
            count[v] += 1
            if v > 1 and count[v] > count[v - 1]:
                return False
    return True


def check_lr(t: SkewTableau) -> bool:
    """Weakly increasing rows, strictly increasing columns, lattice word from the right."""
    return _check_axioms(t, increasing=True)


def check_socle(t: SkewTableau) -> bool:
    """Weakly decreasing rows, strictly decreasing columns, mirrored lattice from the left."""
    return _check_axioms(t, increasing=False)


def check_st3_prime(t: SkewTableau) -> bool:
    """Row form of the mirrored lattice condition.

    For every row r and level l, the entries l+1 in row r or below are at
    most the entries l strictly below row r.  Assumes weakly decreasing
    rows and strictly decreasing columns.
    """
    s = t.max_entry()
    nrows = len(transpose(t.beta))
    by_row = {}
    for (r, c), v in t.entries.items():
        by_row.setdefault(r, []).append(v)
    for l in range(1, s):
        below_lo = 0  # entries l strictly below the sweep row
        at_or_below_hi = 0  # entries l+1 in the sweep row or below
        for r in range(nrows, 0, -1):
            vals = by_row.get(r, [])
            at_or_below_hi += sum(1 for v in vals if v == l + 1)
            if at_or_below_hi > below_lo:
                return False
            below_lo += sum(1 for v in vals if v == l)
    return True


class EntryMatching(NamedTuple):
    """Injection from entry-(level+1) boxes to entry-level boxes.

    Each pair maps a box to one in the same column when that column holds
    an entry ``level``, and to a strictly smaller column otherwise.
    """

    level: int
    pairs: dict


def build_matching(t: SkewTableau, level: int) -> EntryMatching:
    """Greedy right-to-left matching; MatchingFailed signals a lattice violation."""
    lo_boxes = [b for b, v in t.entries.items() if v == level]
    hi_boxes = [b for b, v in t.entries.items() if v == level + 1]
    lo_by_col = {}
    for b in lo_boxes:
        # strictly decreasing columns leave at most one entry per value per column
        if b[1] in lo_by_col:
            raise InvalidTableau(f"two entries {level} in column {b[1]}")
        lo_by_col[b[1]] = b
    pairs = {}
    used = set()
    cross = []
    for b in sorted(hi_boxes, key=lambda b: -b[1]):
        same = lo_by_col.get(b[1])
        if same is not None:
            pairs[b] = same
            used.add(same)
        else:
            cross.append(b)
    for b in cross:
        # nearest unused entry `level` strictly to the left
        candidates = [
            lb
            for c, lb in lo_by_col.items()
            if c < b[1] and lb not in used
        ]
        if not candidates:
            raise MatchingFailed(
                f"no partner for entry {level + 1} at {b} (level {level})"
            )
        chosen = max(candidates, key=lambda lb: lb[1])
        pairs[b] = chosen
        used.add(chosen)
    return EntryMatching(level, pairs)


def _chain_layers(t: SkewTableau, view: str) -> list:
    """Chain layers of ``t``, each padded to the width of beta; not validated.

    Layer i is gamma plus, in each column, the entries > i (socle view) or
    <= i (LR view).  On a tableau that passes ``check_socle`` (socle view)
    or ``check_lr`` (LR view) the layers form a valid chain.
    """
    if view not in ("socle", "lr"):
        raise ValueError(f"view must be 'socle' or 'lr', got {view!r}")
    width = len(t.beta)
    # strips[l-1][c-1] is the number of entries l in column c
    strips = [[0] * width for _ in range(t.max_entry())]
    for (_r, c), v in t.entries.items():
        strips[v - 1][c - 1] += 1
    layer = [part(t.gamma, c) for c in range(1, width + 1)]
    chain = [tuple(layer)]
    for strip in strips if view == "lr" else reversed(strips):
        layer = [a + b for a, b in zip(layer, strip)]
        chain.append(tuple(layer))
    return chain if view == "lr" else chain[::-1]


def _chain_tableau(chain, view: str) -> SkewTableau:
    """The tableau of a chain of canonical partitions: entry l fills step l's strip.

    Every tableau the library derives is built here.  The chain is
    validated (nesting, horizontal strips, weakly decreasing strip sizes),
    so its empty strips are trailing constant repeats, which add nothing.  A
    valid chain covers the skew boxes exactly and has content
    transpose(alpha), so the filling is not checked again.
    """
    if not chain:
        raise InvalidTableau("chain must contain at least one partition")
    if view not in ("socle", "lr"):
        raise ValueError(f"view must be 'socle' or 'lr', got {view!r}")
    socle = view == "socle"
    sizes = []
    entries = {}
    for l in range(1, len(chain)):
        big, small = (chain[l - 1], chain[l]) if socle else (chain[l], chain[l - 1])
        if not contains(big, small):
            raise ChainNotNested(f"{small} not contained in {big}")
        n = len(small)
        size = 0
        for c, b in enumerate(big):
            d = b - small[c] if c < n else b
            if d:
                if d > 1:
                    raise NotHorizontalStrip(f"{big} \\ {small} has a column with two boxes")
                entries[(b, c + 1)] = l
                size += 1
        sizes.append(size)
    for a, b in zip(sizes, sizes[1:]):
        if b > a:
            raise InvalidTableau(f"strip sizes {sizes} are not weakly decreasing")
    t = SkewTableau.__new__(SkewTableau)
    t.alpha = transpose(tuple(sizes))
    t.beta, t.gamma = (chain[0], chain[-1]) if socle else (chain[-1], chain[0])
    t.entries = entries
    t._hash = None
    return t


# ---------------------------------------------------------------------------
# enumeration


def _strip_columns(part, gap, k, cap, bound):
    """Column sets of the size-k horizontal strips removable in one chain step.

    ``part`` is the current partition padded to the width of beta, and
    gap[c] = part[c] - gamma[c] is how many boxes column c can still give
    up.  A returned set C (an ascending list) satisfies:

    * C is a suffix of every block of equal parts, so part - 1_C is a
      partition;
    * only columns with gap > 0 move;
    * afterwards every gap is at most ``cap``, the number of strips still
      to come, so gamma stays reachable.  A column with gap cap + 1 is
      forced into C, and one with a larger gap leaves no set at all;
    * when ``bound`` (k columns, the caller's lattice step) is given, the
      column at position q of C is >= bound[q].

    Each condition prunes while the columns are chosen, block by block
    from the left.  The sets come in lexicographic order of their
    per-block counts, fewest first.
    """
    n = len(part)
    top = cap + 1
    blocks = []  # (end, forced, free) of the blocks with a movable column
    i = 0
    while i < n:
        v = part[i]
        j = i + 1
        while j < n and part[j] == v:
            j += 1
        forced = free = 0
        for c in range(i, j):
            g = gap[c]
            if g:
                free += 1
                if g >= top:
                    if g > top:
                        return []
                    forced += 1
        if free:
            blocks.append((j, forced, free))
        i = j
    nb = len(blocks)
    least = [0] * (nb + 1)  # columns the blocks from b on must / can still take
    most = [0] * (nb + 1)
    for b in range(nb - 1, -1, -1):
        least[b] = least[b + 1] + blocks[b][1]
        most[b] = most[b + 1] + blocks[b][2]
    if not least[0] <= k <= most[0]:
        return []
    out = []

    def rec(b, acc):
        m = len(acc)
        if m == k:
            out.append(acc)
            return
        j, forced, free = blocks[b]
        lo = max(forced, k - m - most[b + 1])
        hi = min(free, k - m - least[b + 1])
        for t in range(lo, hi + 1):
            cols = list(range(j - t, j))
            # a larger t fails the lattice step wherever this one does
            if bound is not None and any(c < bound[m + q] for q, c in enumerate(cols)):
                break
            rec(b + 1, acc + cols)

    rec(0, [])
    del rec  # rec holds itself through its closure: free it now, not at a cyclic collection
    return out


def _chain_start(alpha, beta, gamma, kind):
    """Strip sizes and start gaps of a validated shape's chain search, or None.

    Every search starts at beta and removes strips down to gamma, so the
    start gaps are beta - gamma, with gamma padded to the width of beta.
    The socle chain removes strips of sizes transpose(alpha) in order; the
    LR chain is read in reverse, so going down its sizes weakly increase.
    """
    if weight(alpha) + weight(gamma) != weight(beta) or not contains(beta, gamma):
        return None
    sizes = transpose(alpha)
    gap = tuple(b - part(gamma, c) for c, b in enumerate(beta, 1))
    return (sizes if kind == "socle" else sizes[::-1]), gap


def _lattice_bound(prev, k, socle):
    """Per-position lower bound on the next k strip columns removed after ``prev``.

    A socle chain takes the mirrored lattice step: the i-th smallest
    column is >= the i-th smallest of prev.  An LR chain read in reverse
    has k >= len(prev), and the i-th largest column is >= the i-th largest
    of prev.  None when there is no previous strip.
    """
    if prev is None:
        return None
    return prev[:k] if socle else (0,) * (k - len(prev)) + prev


def _steps(part, gap, k, cap, bound):
    """(columns, next partition, next gaps) of each strip ``_strip_columns`` allows."""
    for cols in _strip_columns(part, gap, k, cap, bound):
        nxt, ngap = list(part), list(gap)
        for c in cols:
            nxt[c] -= 1
            ngap[c] -= 1
        yield tuple(cols), tuple(nxt), tuple(ngap)


def _unpad(p):
    """``p`` without its trailing zeros."""
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return p[:n]


def _chains(alpha, beta, gamma, kind):
    """Chains of canonical partitions of a validated shape's tableaux of the kind.

    The recursion removes strips from beta on padded partitions, each
    taking the lattice step after the strip before it; each chain member
    is unpadded once, as it is reached, and an LR chain is reversed when
    it is complete.
    """
    start = _chain_start(alpha, beta, gamma, kind)
    if start is None:
        return
    sizes, gap = start
    s = len(sizes)
    socle = kind == "socle"

    def rec(level, part, gap, prev, acc):
        if level == s:
            yield acc if socle else acc[::-1]
            return
        k = sizes[level]
        for cols, nxt, ngap in _steps(part, gap, k, s - level - 1, _lattice_bound(prev, k, socle)):
            yield from rec(level + 1, nxt, ngap, cols, acc + (_unpad(nxt),))

    yield from rec(0, beta, gap, None, (beta,))


# one object per distinct strip or partition the strip lists hold, so the
# chains of every beta share their members
_interned = {}


@lru_cache(maxsize=None)
def _strips(part) -> tuple:
    """(columns, next partition) of every nonempty horizontal strip of ``part``.

    ``part`` is canonical.  The strips come by size, then in the order of
    ``_strip_columns`` with floor 0 and cap part[0] (no column is forced).
    """
    ks = range(1, len(part) + 1)
    moves = ((cols, _unpad(nxt)) for k in ks for cols, nxt, _ in _steps(part, part, k, part[0], None))
    return tuple((_interned.setdefault(c, c), _interned.setdefault(n, n)) for c, n in moves)


@lru_cache(maxsize=None)
def _strip_moves(part, prev, socle) -> tuple:
    """The pairs of ``_strips(part)`` a step of ``_beta_chains`` may take after ``prev``.

    ``prev`` is the strip just removed (None at the start: every strip).  A
    socle step keeps the strips of at most len(prev) columns, an LR step
    those of at least len(prev), each meeting ``_lattice_bound``.  The
    filter depends on the state alone, so the cache serves every beta.
    """
    if prev is None:
        return _strips(part)
    n, moves = len(prev), []
    for move in _strips(part):
        k = len(move[0])
        if (k <= n if socle else k >= n) and all(map(ge, move[0], _lattice_bound(prev, k, socle))):
            moves.append(move)
    return tuple(moves)


def _beta_chains(beta, kind) -> dict:
    """{(alpha, gamma): chains} of every tableau of the kind on ambient ``beta``.

    A prefix of a valid chain is a valid chain, so one search from beta
    finds them all.  Each step removes a horizontal strip of the current
    partition (``_strips``) that passes the lattice filter of the state
    (``_strip_moves``), and every partition reached closes the chain of a
    tableau of shape (transpose(strip sizes), beta, that partition).  Socle
    chains are read as removed: strip sizes weakly decrease and
    consecutive strips take the mirrored lattice step.  LR chains are read
    in reverse: going down, strip sizes weakly increase, and the i-th
    largest column of a strip is >= the i-th largest of the strip removed
    before it.  ``_chains`` takes the same steps down to one gamma, so the
    chains of each (alpha, gamma) are its chains, in another order.
    """
    beta = partition(beta)
    socle = kind == "socle"
    found = {}  # (strip sizes in chain order, gamma) -> chains

    def rec(part, prev, sizes, acc):
        found.setdefault((sizes, acc[-1] if socle else acc[0]), []).append(acc)
        for cols, low in _strip_moves(part, prev, socle):
            if socle:
                rec(low, cols, sizes + (len(cols),), acc + (low,))
            else:
                rec(low, cols, (len(cols),) + sizes, (low,) + acc)

    rec(beta, None, (), (beta,))
    # rec holds itself, and through ``found`` every chain, in a reference
    # cycle: break it, so the chains go when the caller drops them
    del rec
    return {(transpose(sizes), gamma): chains for (sizes, gamma), chains in found.items()}


def _path_count(part, gap, prev, sizes, socle, memo) -> int:
    """Number of chains from ``part`` down to gamma with the given remaining strip sizes.

    ``memo`` is keyed by (part, the lattice bound on the next strip,
    sizes), so it may be shared by every start on the same gamma.
    """
    if not sizes:
        return 1
    k = sizes[0]
    bound = _lattice_bound(prev, k, socle)
    key = (part, bound, sizes)
    got = memo.get(key)
    if got is None:
        got = 0
        rest = sizes[1:]
        for cols, nxt, ngap in _steps(part, gap, k, len(rest), bound):
            got += _path_count(nxt, ngap, cols, rest, socle, memo)
        memo[key] = got
    return got


def _shape_args(alpha, beta, gamma, kind):
    """Validated (alpha, beta, gamma) of an enumeration of the given kind."""
    if kind not in ("socle", "lr"):
        raise ValueError(f"kind must be 'socle' or 'lr', got {kind!r}")
    return partition(alpha), partition(beta), partition(gamma)


def iter_tableaux(alpha, beta, gamma, kind) -> Iterator[SkewTableau]:
    """Generate all tableaux of the given kind, in no particular order."""
    alpha, beta, gamma = _shape_args(alpha, beta, gamma, kind)
    for chain in _chains(alpha, beta, gamma, kind):
        yield _chain_tableau(chain, kind)


def enumerate_tableaux(alpha, beta, gamma, kind) -> list:
    """All tableaux of the kind, sorted lexicographically by row-major entries."""
    ts = list(iter_tableaux(alpha, beta, gamma, kind))
    ts.sort(key=SkewTableau.row_sequence)
    return ts


def count_tableaux(alpha, beta, gamma, kind) -> int:
    """Number of tableaux of the kind, counted as chain paths without building them."""
    alpha, beta, gamma = _shape_args(alpha, beta, gamma, kind)
    start = _chain_start(alpha, beta, gamma, kind)
    if start is None:
        return 0
    sizes, gap = start
    return _path_count(beta, gap, None, sizes, kind == "socle", {})


def lr_coefficient(alpha, beta, gamma) -> int:
    """Number of LR tableaux of shape (alpha, beta, gamma); 0 when none fit."""
    return count_tableaux(alpha, beta, gamma, kind="lr")
