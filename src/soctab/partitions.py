"""Partitions drawn column-first: parts are the column lengths of the diagram.

A partition is a plain tuple of weakly decreasing positive integers
(trailing zeros stripped, empty tuple = zero partition).  Rows are
numbered 1 from the top, columns 1 from the left; box (r, c) belongs to
the diagram of ``p`` iff r <= p[c-1].  Row lengths are obtained through
``transpose``.
"""

from functools import lru_cache
from operator import itemgetter, lt
from typing import Iterable, Iterator, NamedTuple


class NotContained(ValueError):
    """Raised when a skew diagram beta \\ gamma is requested with gamma not inside beta."""


class InvalidShape(ValueError):
    """Raised for (alpha, beta, gamma) triples violating containment or weight."""


def partition(parts: Iterable[int]) -> tuple:
    """Return the canonical tuple form of ``parts``, validating monotonicity."""
    t = tuple(int(x) for x in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    for i, x in enumerate(t):
        if x < 1:
            raise ValueError(f"partition parts must be positive, got {t}")
        if i > 0 and t[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing, got {t}")
    return t


def weight(p: tuple) -> int:
    return sum(p)


def part(p: tuple, i: int) -> int:
    """The i-th part (1-indexed); missing parts read as 0."""
    return p[i - 1] if 1 <= i <= len(p) else 0


@lru_cache(maxsize=1024)
def transpose(p: tuple) -> tuple:
    """Row lengths of the diagram: result[r-1] = #{c : p[c-1] >= r}.

    ``p`` must be a weakly decreasing nonnegative tuple; trailing zeros are
    accepted.  Raises ValueError otherwise.  Results are cached for up to
    1024 inputs, least recently used dropped first: the sweeps transpose a
    few hundred partitions over and over.  A ValueError is not cached.
    """
    if not p:
        return ()
    if p[-1] < 0 or any(map(lt, p, p[1:])):
        raise ValueError(f"transpose needs a weakly decreasing nonnegative tuple, got {p}")
    out = []
    c = len(p)  # parts >= r are exactly p[:c]
    for r in range(1, p[0] + 1):
        while p[c - 1] < r:
            c -= 1
        out.append(c)
    return tuple(out)


def contains(outer: tuple, inner: tuple) -> bool:
    """Componentwise containment: inner[i] <= outer[i] for all i."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def skew_boxes(beta: tuple, gamma: tuple) -> list:
    """Boxes of beta \\ gamma in row-major order (top row first, left to right)."""
    if not contains(beta, gamma):
        raise NotContained(f"{gamma} is not contained in {beta}")
    rows = transpose(beta)
    grows = transpose(gamma)
    boxes = []
    for r in range(1, len(rows) + 1):
        lo = grows[r - 1] if r <= len(grows) else 0
        for c in range(lo + 1, rows[r - 1] + 1):
            boxes.append((r, c))
    return boxes


class Shape(NamedTuple):
    """Shape triple (alpha, beta, gamma): content alpha on the skew diagram beta \\ gamma."""

    alpha: tuple
    beta: tuple
    gamma: tuple


def shape(alpha, beta, gamma) -> Shape:
    """Validated shape triple; raises InvalidShape on containment/weight failure."""
    a, b, g = partition(alpha), partition(beta), partition(gamma)
    if not contains(b, g):
        raise InvalidShape(f"gamma={g} not contained in beta={b}")
    if weight(a) + weight(g) != weight(b):
        raise InvalidShape(f"|alpha|+|gamma| != |beta| for {(a, b, g)}")
    return Shape(a, b, g)


def parse_partition(text: str) -> tuple:
    """Parse '5,3,2' or the digit shorthand '532' (parts <= 9); '' is the zero partition."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return partition(int(x) for x in text.split(","))
    if not text.isdigit() or "0" in text:
        raise ValueError(f"cannot parse partition {text!r}; use comma form for parts >= 10")
    return partition(int(ch) for ch in text)


def parse_shape(text: str) -> Shape:
    """Parse 'alpha/beta/gamma', each component in parse_partition syntax."""
    pieces = text.split("/")
    if len(pieces) != 3:
        raise ValueError(f"shape must have three '/'-separated components, got {text!r}")
    return shape(*(parse_partition(x) for x in pieces))


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            yield prefix
            return
        for x in range(min(remaining, maxpart), 0, -1):
            yield from rec(remaining - x, x, prefix + (x,))

    yield from rec(n, n, ())


def subdiagrams(beta: tuple) -> Iterator[tuple]:
    """All partitions contained in beta; each appears exactly once."""

    def rec(i, bound, prefix):
        # choosing no part at position i terminates the partition
        yield prefix
        if i == len(beta):
            return
        for x in range(1, min(bound, beta[i]) + 1):
            yield from rec(i + 1, x, prefix + (x,))

    yield from rec(0, beta[0] if beta else 0, ())


def shape_triples(max_beta_weight: int) -> Iterator[Shape]:
    """Every shape triple with |beta| <= the bound: by |beta|, then beta, gamma, alpha sorted."""
    by_weight = []  # by_weight[k]: the partitions of k, sorted once per call
    for wgt in range(0, max_beta_weight + 1):
        by_weight.append(sorted(partitions_of(wgt)))
        for beta in by_weight[wgt]:
            for gamma in sorted(subdiagrams(beta)):
                for alpha in by_weight[wgt - weight(gamma)]:
                    yield Shape(alpha, beta, gamma)


# sorts the (alpha, gamma) pairs of one beta into ``shape_triples`` order
triple_order = itemgetter(1, 0)


def beta_triple_counts(max_beta_weight: int) -> Iterator[tuple]:
    """(beta, the number of shape triples on beta) for every beta with |beta| <= the bound.

    The betas come in ``shape_triples`` order.  The triples on beta are one
    per gamma inside it and partition alpha of |beta| - |gamma|, so they are
    counted without being built.
    """
    counts = []  # counts[k]: the number of partitions of k
    for wgt in range(0, max_beta_weight + 1):
        betas = sorted(partitions_of(wgt))
        counts.append(len(betas))
        for beta in betas:
            yield beta, sum(counts[wgt - weight(gamma)] for gamma in subdiagrams(beta))
