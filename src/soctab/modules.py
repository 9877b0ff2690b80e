"""Finite-length modules over F_p[T]/(T^N), each a direct sum of Jordan blocks.

A module is kept as its type, the partition of its block sizes.  Basis
vector offset+i of block j represents p^i times the j-th generator, and
the operator, multiplication by the uniformizer, shifts it to the next
one in the block.  Subspaces carry their ambient module and a reduced row-echelon
basis, so equal subspaces have equal basis arrays.

The operator acts only through ``FpModule.shift``: on rows read as
vectors it returns T^r v, and on rows read as functionals (r < 0) it
returns f T^|r|.  How T is stored is known to this module alone, and
``standard_module`` returns one shared module per (prime, partition).

Module types are read off column slices of the standard basis.  T^r
moves coordinate off+i of a block to off+i+r, so T^r M is spanned by the
coordinates with i >= r, and T^r kills the rest.  With low(r) the
coordinates i < r and high(r) those with i < size - r, for a subspace U:

* rank(T^r U) = rank(U[:, high(r)]), which gives the type of U;
* dim ker T^r on M/U = dim M - dim(T^r M + U) = #low(r) - rank(U[:, low(r)])
  when U is invariant, which gives the type of M/U;
* {a in U : T^r a = 0} is the nullspace of U[:, high(r)]^T applied to U.

No annihilator and no shift product is needed; each module keeps its
column lists.

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
    """Raised when a module's modulus is not a prime its int64 products can hold."""


@lru_cache(maxsize=None)
def _is_prime(p):
    return all(p % d for d in range(2, isqrt(p) + 1))


def _check_prime(p, dim):
    """Reject p unless it is prime and dim * (p - 1)**2 < 2**63.

    The bound keeps every int64 matrix product over the module exact.  It
    is applied with dim at least 1, so the primality test only ever meets
    p < 3.04e9, and a modulus that no nonzero module could use is refused
    for the zero module as well.
    """
    if p < 2:
        raise BadPrime(f"modulus {p} is not a prime")
    if max(dim, 1) * (p - 1) ** 2 >= 2**63:
        raise BadPrime(f"modulus {p} overflows int64 products in dimension {max(dim, 1)}")
    if not _is_prime(p):
        raise BadPrime(f"modulus {p} is not a prime")


class FpModule:
    """Direct sum of Jordan blocks of the sizes ``parts`` over F_p."""

    __slots__ = ("prime", "parts", "dim", "_powers", "_low", "_high")

    def __init__(self, prime, parts):
        self.prime = int(prime)
        self.parts = partition(parts)
        self.dim = sum(self.parts)
        _check_prime(self.prime, self.dim)
        # T^0 .. T^N for N = parts[0]; T^N and every higher power are zero
        self._powers = [_shift_matrix(self.parts, r) for r in range(self.nilpotency_index + 1)]
        # low(r) and high(r) for r = 0..N, as lists of coordinates off+i;
        # both saturate at N, where low is everything and high is empty
        blocks = list(zip(block_offsets(self.parts), self.parts))
        levels = range(self.nilpotency_index + 1)
        self._low = [[o + i for o, n in blocks for i in range(min(r, n))] for r in levels]
        self._high = [[o + i for o, n in blocks for i in range(n - r)] for r in levels]

    def shift(self, rows, r):
        """T^r applied to each row, a fresh array reduced mod p.

        For r >= 0 the rows are vectors and the result holds T^r v; for
        r < 0 they are functionals and the result holds f T^|r|.  Powers
        saturate at zero beyond the nilpotency index.
        """
        mat = self._powers[min(abs(r), self.nilpotency_index)]
        return (rows @ (mat.T if r >= 0 else mat)) % self.prime

    def _low_cols(self, r):
        """Coordinates off+i with i < r (r >= 0): T^r M is spanned by the others."""
        return self._low[min(r, self.nilpotency_index)]

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


def _shift_matrix(parts, r):
    """T^r on the blocks ``parts``: p^i -> p^(i+r) inside each block."""
    n = sum(parts)
    a = np.zeros((n, n), dtype=np.int64)
    for off, size in zip(block_offsets(parts), parts):
        a[off : off + size, off : off + size] = np.eye(size, k=-r, dtype=np.int64)
    return a


class Subspace:
    """Subspace of an FpModule, held as reduced row-echelon basis rows."""

    __slots__ = ("module", "basis", "_annihilator")

    def __init__(self, module, basis):
        self.module = module
        self.basis = linalg.row_space(
            linalg.asmat(basis, module.dim, module.prime), module.prime
        )
        self._annihilator = None

    @classmethod
    def _canonical(cls, module, basis):
        """Subspace on a basis that is already reduced row-echelon, as
        ``linalg.nullspace`` and ``row_space`` return it; skips the second rref."""
        sub = cls.__new__(cls)
        sub.module = module
        sub.basis = basis
        sub._annihilator = None
        return sub

    @property
    def dim(self):
        return self.basis.shape[0]

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
        """True iff the operator maps this subspace into itself."""
        m = self.module
        return linalg.is_subspace(m.shift(self.basis, 1), self.basis, m.prime)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.module == other.module and np.array_equal(self.basis, other.basis)

    def __le__(self, other):
        return linalg.is_subspace(self.basis, other.basis, self.module.prime)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.module!r})"


def zero_subspace(module):
    return Subspace(module, np.zeros((0, module.dim), dtype=np.int64))


def full_subspace(module):
    return Subspace(module, np.eye(module.dim, dtype=np.int64))


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


def _type_from_kernels(dim, ker_dim):
    """Type of a dim-dimensional module from r -> dim ker T^r.

    The r-th row of the type has dim ker T^r - dim ker T^(r-1) boxes; rows
    are added until the kernels fill the module.
    """
    rows = []
    prev = 0
    r = 1
    while prev < dim:
        cur = ker_dim(r)
        rows.append(cur - prev)
        prev = cur
        r += 1
    return transpose(tuple(rows))


def module_type(module):
    """Type partition of the module: its block sizes."""
    return module.parts


def submodule_span(module, generators):
    """Smallest invariant subspace containing the generators."""
    gens = linalg.asmat(generators, module.dim, module.prime)
    rows = [gens]
    cur = gens
    for _ in range(module.nilpotency_index):
        cur = module.shift(cur, 1)
        if not cur.any():
            break
        rows.append(cur)
    return Subspace(module, np.vstack(rows))


def _require_invariant(sub):
    if not sub.is_invariant():
        raise NotInvariant("subspace is not stable under the operator")


def quotient_type(module, sub):
    """Type of module/sub under the induced operator."""
    _require_invariant(sub)
    return _quotient_type(module, sub)


def _quotient_type(module, sub):
    """``quotient_type`` of a subspace known to be invariant.

    dim ker T^r on module/sub is #low(r) - rank(sub[:, low(r)]).
    """
    basis, p = sub.basis, module.prime

    def ker_dim(r):
        low = module._low_cols(r)
        return len(low) - linalg.rank(basis[:, low], p)

    return _type_from_kernels(module.dim - sub.dim, ker_dim)


def _sub_type(module, sub):
    """Type of sub as a module under the restricted operator.

    dim ker T^r on sub is dim sub - rank(sub[:, high(r)]).
    """
    basis, p, dim = sub.basis, module.prime, sub.dim
    return _type_from_kernels(
        dim, lambda r: dim - linalg.rank(basis[:, module._high_cols(r)], p)
    )


def soc_layer(module, sub, ell):
    """{a in sub : T^ell a = 0}."""
    p = module.prime
    if ell <= 0 or sub.dim == 0:
        return zero_subspace(module)
    # coefficients x with T^ell (x . basis) = 0, that is x . basis[:, high(ell)] = 0
    coeffs = linalg.nullspace(sub.basis[:, module._high_cols(ell)].T, p)
    return Subspace(module, (coeffs @ sub.basis) % p)


def rad_layer(module, sub, m):
    """T^m applied to sub."""
    return Subspace._canonical(module, linalg.row_space(module.shift(sub.basis, m), module.prime))


def preimage(module, sub, r):
    """{b in module : T^r b in sub}: where f T^r vanishes for every f vanishing on sub.

    When no functional vanishes on sub (sub is the whole module), that is everything.
    """
    return Subspace._canonical(
        module, linalg.nullspace(module.shift(sub.annihilator_basis, -r), module.prime)
    )


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
