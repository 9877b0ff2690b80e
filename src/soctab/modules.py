"""Finite-length modules over F_p[T]/(T^N) as vector spaces with a nilpotent operator.

The operator plays multiplication by the uniformizer.  A module is
isomorphic to a direct sum of Jordan blocks; the block sizes, sorted,
are its type.  Subspaces carry their ambient module and a reduced
row-echelon basis, so equal subspaces have equal basis arrays.

A module's operator and its cached powers are read-only arrays, and its
type is kept once computed.  ``standard_module`` returns one shared module
per (prime, partition), so a write to a module's arrays raises instead of
changing every embedding built on it.

``dual_module`` has the transposed operator.  Each Jordan block is
self-dual, so reversing the basis inside every block of a standard module
turns its dual back into the same standard module, and no Jordan basis
needs computing.
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


def _read_only(a):
    a.flags.writeable = False
    return a


class FpModule:
    """F_p vector space with a nilpotent operator acting on column vectors.

    ``op`` and the arrays ``power`` returns are read-only.
    """

    __slots__ = ("prime", "op", "dim", "_powers", "_type")

    def __init__(self, prime, op):
        self.prime = int(prime)
        op = np.array(op, dtype=np.int64)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("operator must be square")
        _check_prime(self.prime, op.shape[0])
        op = _read_only(op % self.prime)
        self.op = op
        self.dim = op.shape[0]
        self._type = None
        self._powers = [_read_only(np.eye(self.dim, dtype=np.int64))]
        # cache powers up to the nilpotency index; fail fast otherwise
        cur = self._powers[0]
        for _ in range(self.dim):
            if not cur.any():
                break
            cur = _read_only((cur @ op) % self.prime)
            self._powers.append(cur)
        if self._powers[-1].any():
            raise ValueError("operator is not nilpotent")

    def power(self, r):
        """T^r as a matrix; saturates at zero beyond the nilpotency index."""
        if r < len(self._powers):
            return self._powers[r]
        return np.zeros((self.dim, self.dim), dtype=np.int64)

    @property
    def nilpotency_index(self):
        return len(self._powers) - 1

    def __eq__(self, other):
        if not isinstance(other, FpModule):
            return NotImplemented
        return self.prime == other.prime and np.array_equal(self.op, other.op)

    def __repr__(self):
        return f"FpModule(p={self.prime}, dim={self.dim})"


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
        ``linalg.nullspace``, ``row_space``, ``image`` and ``preimage``
        return it; skips the second rref."""
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
        img = linalg.image(self.module.op, self.basis, self.module.prime)
        return linalg.is_subspace(img, self.basis, self.module.prime)

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

    Basis vector offset+i of block j represents p^i times the j-th
    generator, so the operator sends it to the next one in the block.
    Equal (prime, partition) give the same shared, read-only module.
    """
    return _standard_module(int(prime), partition(parts))


@lru_cache(maxsize=None)
def _standard_module(prime, parts):
    # keyed by the validated partition, so one entry per partition a caller
    # visits; a construction that raises (BadPrime) caches nothing
    n = sum(parts)
    op = np.zeros((n, n), dtype=np.int64)
    for off, size in zip(block_offsets(parts), parts):
        for i in range(size - 1):
            op[off + i + 1, off + i] = 1
    return FpModule(prime, op)


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
    """Type partition of the module; kept on the module after the first call."""
    if module._type is None:
        p = module.prime
        module._type = _type_from_kernels(
            module.dim, lambda r: module.dim - linalg.rank(module.power(r), p)
        )
    return module._type


def submodule_span(module, generators):
    """Smallest invariant subspace containing the generators."""
    p = module.prime
    gens = linalg.asmat(generators, module.dim, p)
    rows = [gens]
    cur = gens
    for _ in range(module.nilpotency_index):
        cur = (cur @ module.op.T) % p
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
    p = module.prime
    ann = sub.annihilator_basis

    def ker_dim(r):
        # dim ker of the induced T^r equals dim {v : T^r v in sub} - dim sub
        return module.dim - linalg.rank((ann @ module.power(r)) % p, p) - sub.dim

    return _type_from_kernels(module.dim - sub.dim, ker_dim)


def soc_layer(module, sub, ell):
    """{a in sub : T^ell a = 0}."""
    p = module.prime
    if ell <= 0 or sub.dim == 0:
        return zero_subspace(module)
    # coefficients x with T^ell (x . basis) = 0
    mat = (module.power(ell) @ sub.basis.T) % p
    coeffs = linalg.nullspace(mat, p)
    return Subspace(module, (coeffs @ sub.basis) % p)


def rad_layer(module, sub, m):
    """T^m applied to sub."""
    return Subspace._canonical(module, linalg.image(module.power(m), sub.basis, module.prime))


def preimage(module, sub, r):
    """{b in module : T^r b in sub}."""
    return Subspace._canonical(
        module, linalg.preimage(module.power(r), sub.basis, module.prime)
    )


def dual_module(module):
    """Linear dual with the transposed operator."""
    return FpModule(module.prime, module.op.T % module.prime)


def annihilator(module, sub):
    """Functionals vanishing on sub, as a subspace of the dual module."""
    return Subspace(dual_module(module), sub.annihilator_basis)
