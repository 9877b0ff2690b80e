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
inside that prefix, so each type takes one forward pass of elimination
(``linalg._pivot_rows``) over U's basis, with the columns in an order that
makes every rank needed a prefix: by depth, deepest first, for U; H first
and the rest by level for M/soc^l U (H is empty from l = N on, which gives
M/U); high(i) by level and the rest last for M/T^i U.  No layer is built,
and each module keeps its column orders.  ``_read_type`` is that one
read-off; like the kernel it takes p None for integer rows valid mod every
prime, and then reads the type at every prime at once.

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

from . import linalg
from .partitions import partition, transpose


class NotInvariant(ValueError):
    """Raised when a subspace is required to be stable under the operator."""


class BadPrime(ValueError):
    """Raised when a module's modulus is not a prime within the dimension bound."""


class ModuleTooLarge(ValueError):
    """Raised when a module's dimension exceeds ``MAX_DIM``."""


# the largest module dimension accepted: the analysis of one block of size n
# grows faster than n**2, and takes seconds at 200
MAX_DIM = 200


@lru_cache(maxsize=None)
def _is_prime(p):
    return all(p % d for d in range(2, isqrt(p) + 1))


def _check_prime(p, dim):
    """Reject p unless it is prime and dim * (p - 1)**2 < 2**63.

    The library makes no int64 product (it works on rows of Python ints),
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
        if self.dim > MAX_DIM:
            raise ModuleTooLarge(f"module dimension {self.dim} exceeds the limit {MAX_DIM}")
        _check_prime(self.prime, self.dim)
        # high(r) for r = 0..N, the coordinates of depth > r; empty at N
        self._high = [
            [o + i for o, n in zip(block_offsets(self.parts), self.parts) for i in range(n) if n - i > r]
            for r in range(self.nilpotency_index + 1)
        ]

    def shift(self, rows, r):
        """T^r applied to each row, as fresh rows of ints reduced mod p.

        For r >= 0 the rows are vectors and the result holds T^r v: column
        c + r of it is column c of v for c in high(r).  For r < 0 they are
        functionals and the result holds f T^|r|: column c of it is column
        c + |r| of f for c in high(|r|).  Every other column is 0, so powers
        saturate at zero from the nilpotency index on, where high is empty.
        """
        k, p = abs(r), self.prime
        pairs = [(c + k, c) if r >= 0 else (c, c + k) for c in self._high_cols(k)]
        out = []
        for v in rows:
            w = [0] * self.dim
            for dst, src in pairs:
                w[dst] = v[src] % p
            out.append(w)
        return out

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
    lists of ints in [0, p)."""

    __slots__ = ("module", "rows", "_annihilator")

    def __init__(self, module, basis):
        p = module.prime
        rows = linalg.rref(linalg.asmat(basis, module.dim, p), p)[0]
        self.module, self.rows, self._annihilator = module, rows.tolist(), None

    @classmethod
    def _canonical(cls, module, rows):
        """Subspace on rows already reduced row-echelon, as ``linalg._null_rows`` returns."""
        sub = cls.__new__(cls)
        sub.module, sub.rows, sub._annihilator = module, rows, None
        return sub

    @property
    def dim(self):
        return len(self.rows)

    @property
    def annihilator_basis(self):
        """Canonical basis of the functionals vanishing on this subspace, as rows.

        Computed on first use and kept for the life of the object; callers
        must not write to the returned rows.
        """
        if self._annihilator is None:
            self._annihilator = linalg._null_rows(self.rows, self.module.dim, self.module.prime)
        return self._annihilator

    def is_invariant(self):
        """True iff the operator maps this subspace into itself."""
        return _is_invariant(self.rows, self.module._high_cols(1), self.module.prime)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.module == other.module and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.module!r})"


def _is_invariant(rows, high, p):
    """True iff T, which moves the columns in ``high`` by one, maps the span of
    the reduced row-echelon ``rows`` B into itself.

    With piv the pivot columns of B, v lies in the span iff v - sum of
    v[piv[k]] B[k] is 0: no elimination, and exact at any prime.  With p
    None this residual is taken over the integers; reduced mod p it is the
    residual at p, so True then holds at every prime.
    """
    piv = [row.index(1) for row in rows]  # each row leads with a 1
    for b in rows:
        v = [0] * len(b)
        for c in high:
            v[c + 1] = b[c]
        for c, r in zip(piv, rows):
            f = v[c]  # no other row of B is nonzero at c
            if f:
                v = [(x - f * y) % p for x, y in zip(v, r)] if p else [x - f * y for x, y in zip(v, r)]
        if any(v):
            return False
    return True


def zero_subspace(module):
    return Subspace(module, [])


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


def submodule_span(module, generators):
    """Smallest invariant subspace containing the generators g: the span of T^r g."""
    p = module.prime
    gens = linalg.asmat(generators, module.dim, p).tolist()
    powers = range(1, module.nilpotency_index)  # T^N is 0
    rows = gens + [v for r in powers for v in module.shift(gens, r)]
    return Subspace._canonical(module, linalg._eliminate(rows, module.dim, p)[0])


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
    return _read_type(module.parts, sub.rows, module.prime, "socle", min(ell, module.nilpotency_index))


def _radical_quotient_type(module, sub, i):
    """Type of module / T^i sub, for an invariant sub."""
    return _read_type(module.parts, sub.rows, module.prime, "radical", min(i, module.nilpotency_index))


def _sub_type(module, sub):
    """Type of sub as a module under the restricted operator."""
    return _read_type(module.parts, sub.rows, module.prime, "depth")


def _read_type(parts, rows, p, kind, r=0):
    """The type read off the pivots of ``rows``, the basis of an invariant U in
    the module M of ``parts``: of M / soc^r U ("socle"), of M / T^r U
    ("radical") or of U ("depth"), for r at most the nilpotency index.

    Row j + 1 of the conjugate type of U is dim ker T^(j+1) - dim ker T^j
    on U, the number of pivots of depth j + 1 when the deepest columns come
    first.  That of M / W is the number of M's coordinates of level j, less
    the pivots of level j.  With p None the rows are integer rows, valid
    mod every prime, and None means the forward pass over the integers
    gave up.
    """
    order, keys = _read_off_order(parts, kind, r)
    found = _pivot_keys(rows, p, order, keys)
    if found is None:
        return None
    conj, step = ([0] * (parts[0] if parts else 0), 1) if kind == "depth" else (list(transpose(parts)), -1)
    for j in found:
        conj[j] += step
    return transpose(tuple(k for k in conj if k))


def _pivot_keys(rows, p, order, keys):
    """keys[k] of each pivot k of ``rows`` with their columns in ``order``,
    leaving out the pivots keyed None; None where the forward pass over the
    integers (p None) gives up."""
    lead = linalg._pivot_rows([[r[c] for c in order] for r in rows], len(order), p)
    return None if lead is None else [keys[k] for k in lead if keys[k] is not None]


def annihilator(module, sub):
    """Functionals vanishing on sub, with coordinates reversed inside each block.

    The functionals form an invariant subspace of the dual module, whose
    operator is the transposed shift; reversing each block turns that back
    into the shift, so the result is an invariant subspace of ``module``.
    Applied twice it returns ``sub``.
    """
    return Subspace(module, _reverse_blocks(module.parts, sub.annihilator_basis))


def _reverse_blocks(parts, rows):
    """The rows with their coordinates reversed inside each block of ``parts``."""
    rev = [off + size - 1 - i for off, size in zip(block_offsets(parts), parts) for i in range(size)]
    return [[f[c] for c in rev] for f in rows]
