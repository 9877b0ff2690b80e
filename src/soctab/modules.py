"""Finite-length modules over F_p[T]/(T^N), each a direct sum of Jordan blocks.

A module is kept as its type, the partition of its block sizes.  Basis
vector offset+i of block j represents p^i times the j-th generator, and
the operator, multiplication by the uniformizer, shifts it to the next
one in the block.  Subspaces carry their ambient module and a reduced row-echelon
basis as rows of Python ints, so equal subspaces have equal rows.

The operator acts only through ``FpModule.shift``: on rows read as
vectors it returns T^r v, and on rows read as functionals (r < 0) it
returns f T^|r|.  ``standard_module`` returns one shared module per
(prime, partition).

Module types are read off pivots.  T^r moves coordinate off+i of a block
of size n to off+i+r, so coordinate off+i has level i (T^i M is spanned by
the levels >= i) and depth n - i (T^depth kills it).  With low(r) the
coordinates of level < r and high(r) those of depth > r, for a subspace U:

* rank(T^r U) = rank(U[:, high(r)]), which gives the type of U;
* dim ker T^r on M/U = #low(r) - rank(U[:, low(r)]) when U is invariant,
  which gives the type of M/U;
* soc^l U = {a in U : a vanishes on high(l)}, and since the rows of U are
  independent, rank(soc^l U [:, low(r)]) = rank(U[:, H + low(r)]) -
  rank(U[:, H]) with H = high(l);
* T^i U has, in low(r), the columns of U in high(i) of level < r - i.

The rank of every column prefix of a matrix is the number of its pivots
inside that prefix, so each type takes one elimination of U's basis, with
the columns in an order that makes every rank needed a prefix: by depth,
deepest first, for U; H first and the rest by level for M/soc^l U (H is
empty from l = N on, which gives M/U); high(i) by level and the rest last
for M/T^i U.  No layer is built, and each module keeps its column orders.

A module stores T only as the lists high(r), r = 0..N: ``shift`` moves the
columns in high(r) by r and zeroes the rest.  So no power of T is a matrix,
and a module holds O(N * dim) column indices.

Each Jordan block is self-dual: reversing the basis inside every block
turns the transposed operator back into the shift.  So the annihilator of
a subspace, with its coordinates reversed per block, is a subspace of the
same module, and no dual module needs building.
"""

from functools import lru_cache
from math import isqrt

import numpy as np

from . import linalg
from .partitions import partition, transpose


class NotInvariant(ValueError):
    """Raised when a subspace is required to be stable under the operator."""


class BadPrime(ValueError):
    """Raised when a module's modulus is not a prime within the dimension bound."""


@lru_cache(maxsize=None)
def _is_prime(p):
    return all(p % d for d in range(2, isqrt(p) + 1))


def _check_prime(p, dim):
    """Reject p unless it is prime and dim * (p - 1)**2 < 2**63.

    The module's arrays hold only residues mod p, and the library makes no
    int64 product of them (its subspaces and read-offs run on Python ints),
    so the bound is not needed for exactness; the tests' oracles still
    multiply arrays under it.  It is applied with dim at least 1, so the
    trial-division primality test only ever meets p < 3.04e9, and a
    modulus that no nonzero module could use is refused for the zero module
    as well.
    """
    if p < 2:
        raise BadPrime(f"modulus {p} is not a prime")
    if max(dim, 1) * (p - 1) ** 2 >= 2**63:
        raise BadPrime(f"modulus {p} is too large: dim * (p - 1)**2 must stay below 2**63, with dim {max(dim, 1)}")
    if not _is_prime(p):
        raise BadPrime(f"modulus {p} is not a prime")


class FpModule:
    """Direct sum of Jordan blocks of the sizes ``parts`` over F_p."""

    __slots__ = ("prime", "parts", "dim", "_high")

    def __init__(self, prime, parts):
        self.prime = int(prime)
        self.parts = partition(parts)
        self.dim = sum(self.parts)
        _check_prime(self.prime, self.dim)
        # high(r) for r = 0..N, the coordinates of depth > r; empty at N
        self._high = [
            [o + i for o, n in zip(block_offsets(self.parts), self.parts) for i in range(n) if n - i > r]
            for r in range(self.nilpotency_index + 1)
        ]

    def shift(self, rows, r):
        """T^r applied to each row, a fresh array reduced mod p.

        For r >= 0 the rows are vectors and the result holds T^r v: column
        c + r of it is column c of v for c in high(r).  For r < 0 they are
        functionals and the result holds f T^|r|: column c of it is column
        c + |r| of f for c in high(|r|).  Every other column is 0, so powers
        saturate at zero from the nilpotency index on, where high is empty.
        """
        k = abs(r)
        high = self._high_cols(k)
        moved = [c + k for c in high]
        out = np.zeros(rows.shape, dtype=np.int64)
        if r >= 0:
            out[:, moved] = rows[:, high]
        else:
            out[:, high] = rows[:, moved]
        return out % self.prime

    def _high_cols(self, r):
        """Coordinates off+i with i < size - r (r >= 0): T^r moves them to
        off+i+r and kills the others."""
        return self._high[min(r, self.nilpotency_index)]

    @property
    def nilpotency_index(self):
        return self.parts[0] if self.parts else 0

    def __eq__(self, other):
        if not isinstance(other, FpModule):
            return NotImplemented
        return (self.prime, self.parts) == (other.prime, other.parts)

    def __repr__(self):
        return f"FpModule(p={self.prime}, parts={self.parts})"


@lru_cache(maxsize=None)
def _read_off_order(parts, kind, r=0):
    """The column order of a pivot read-off in the module of ``parts``, and
    the key of each position (a row of the conjugate type, or None): by
    depth for the type of U, and for M / soc^r U ("socle") and M / T^r U
    ("radical").  It is the same at every prime, so the modules of all
    primes share it, built on first use."""
    # coordinate off+i of a block of size n has level i and depth n - i
    coords = [(o + i, i, n - i) for o, n in zip(block_offsets(parts), parts) for i in range(n)]
    by_level = sorted(coords, key=lambda c: c[1])
    if kind == "socle":
        pairs = [(c, None) for c, _, d in coords if d > r] + [(c, i) for c, i, d in by_level if d <= r]
    elif kind == "radical":
        pairs = [(c, i + r) for c, i, d in by_level if d > r] + [(c, None) for c, _, d in coords if d <= r]
    else:
        pairs = [(c, d - 1) for c, _, d in sorted(coords, key=lambda c: -c[2])]
    return tuple(c for c, _ in pairs), tuple(k for _, k in pairs)


class Subspace:
    """Subspace of an FpModule, held as its reduced row-echelon basis ``rows``,
    lists of ints in [0, p); ``basis`` is their read-only int64 array."""

    __slots__ = ("module", "rows", "_basis", "_annihilator")

    def __init__(self, module, basis):
        rows = linalg.row_space(linalg.asmat(basis, module.dim, module.prime), module.prime)
        self.module, self.rows, self._basis, self._annihilator = module, rows.tolist(), None, None

    @classmethod
    def _canonical(cls, module, rows):
        """Subspace on rows already reduced row-echelon, as ``linalg._null_rows`` returns."""
        sub = cls.__new__(cls)
        sub.module, sub.rows, sub._basis, sub._annihilator = module, rows, None, None
        return sub

    @property
    def basis(self):
        """The rows as an int64 array, built on first read; writing to it raises."""
        if self._basis is None:
            self._basis = linalg._to_array(self.rows, self.module.dim)
            self._basis.flags.writeable = False
        return self._basis

    @property
    def dim(self):
        return len(self.rows)

    @property
    def annihilator_basis(self):
        """Canonical basis of the functionals vanishing on this subspace.

        Computed on first use and kept for the life of the object; callers
        must not write to the returned array.
        """
        if self._annihilator is None:
            self._annihilator = linalg.left_annihilator(
                self.basis, self.module.dim, self.module.prime
            )
        return self._annihilator

    def is_invariant(self):
        """True iff the operator maps this subspace into itself.

        The rows B are reduced row-echelon with pivot columns piv, so v lies
        in their span iff v - sum of v[piv[k]] B[k] is 0: no elimination, and
        exact at any prime.  T b moves the columns of b in high(1) by one.
        """
        m, p = self.module, self.module.prime
        piv = [row.index(1) for row in self.rows]  # each row leads with a 1
        for b in self.rows:
            v = [0] * m.dim
            for c in m._high_cols(1):
                v[c + 1] = b[c]
            for c, r in zip(piv, self.rows):
                f = v[c]  # no other row of B is nonzero at c
                if f:
                    v = [(x - f * y) % p for x, y in zip(v, r)]
            if any(v):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.module == other.module and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.module!r})"


def zero_subspace(module):
    return Subspace(module, np.zeros((0, module.dim), dtype=np.int64))


def standard_module(prime, parts):
    """Direct sum of Jordan blocks of the given sizes.

    Equal (prime, partition) give the same shared module.
    """
    return _standard_module(int(prime), partition(parts))


@lru_cache(maxsize=None)
def _standard_module(prime, parts):
    # keyed by the validated partition, so one entry per partition a caller
    # visits; a construction that raises (BadPrime) caches nothing
    return FpModule(prime, parts)


def block_offsets(parts):
    """Starting index of each block of a standard module."""
    offs = []
    off = 0
    for size in parts:
        offs.append(off)
        off += size
    return offs


def module_type(module):
    """Type partition of the module: its block sizes."""
    return module.parts


def submodule_span(module, generators):
    """Smallest invariant subspace containing the generators g: the span of T^r g."""
    gens = linalg.asmat(generators, module.dim, module.prime)
    powers = range(1, module.nilpotency_index)  # T^N is 0
    return Subspace(module, np.vstack([gens, *(module.shift(gens, r) for r in powers)]))


def quotient_type(module, sub):
    """Type of module/sub under the induced operator."""
    if not sub.is_invariant():
        raise NotInvariant("subspace is not stable under the operator")
    return _quotient_type(module, sub)


def _quotient_type(module, sub):
    """``quotient_type`` of a subspace known to be invariant: M / soc^N(sub)."""
    return _socle_quotient_type(module, sub, module.nilpotency_index)


def _socle_quotient_type(module, sub, ell):
    """Type of module / soc^ell(sub), for an invariant sub."""
    order = _read_off_order(module.parts, "socle", min(ell, module.nilpotency_index))
    return _quotient_off(module, _pivot_keys(sub, *order))


def _radical_quotient_type(module, sub, i):
    """Type of module / T^i sub, for an invariant sub."""
    order = _read_off_order(module.parts, "radical", min(i, module.nilpotency_index))
    return _quotient_off(module, _pivot_keys(sub, *order))


def _pivot_keys(sub, order, keys):
    """keys[k] of each pivot k of sub's basis with its columns in ``order``,
    leaving out the pivots keyed None."""
    rows = [[r[c] for c in order] for r in sub.rows]
    pivots = linalg._eliminate(rows, len(order), sub.module.prime)[1]
    return [keys[k] for k in pivots if keys[k] is not None]


def _quotient_off(module, levels):
    """Type of module / W from the levels of W's pivots in a read-off order.

    Row j + 1 of the conjugate type of module / W has as many boxes as
    module has coordinates of level j, less the pivots of level j.
    """
    rows = list(transpose(module.parts))  # the coordinates of each level
    for j in levels:
        rows[j] -= 1
    return transpose(tuple(r for r in rows if r))


def _sub_type(module, sub):
    """Type of sub as a module under the restricted operator.

    Row d of its conjugate type is dim ker T^d - dim ker T^(d-1) on sub,
    the number of pivots of depth d when the deepest columns come first.
    """
    rows = [0] * module.nilpotency_index
    for d in _pivot_keys(sub, *_read_off_order(module.parts, "depth")):
        rows[d] += 1
    return transpose(tuple(r for r in rows if r))


def annihilator(module, sub):
    """Functionals vanishing on sub, with coordinates reversed inside each block.

    The functionals form an invariant subspace of the dual module, whose
    operator is the transposed shift; reversing each block turns that back
    into the shift, so the result is an invariant subspace of ``module``.
    Applied twice it returns ``sub``.
    """
    rev = [
        off + size - 1 - i
        for off, size in zip(block_offsets(module.parts), module.parts)
        for i in range(size)
    ]
    return Subspace(module, sub.annihilator_basis[:, rev])
