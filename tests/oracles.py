"""Reference computations that several test files check the library against."""

import numpy as np

from soctab import linalg
from soctab.modules import Subspace, zero_subspace


def intersection(a, b, p):
    """Canonical basis of span(a) & span(b): the common kernel of both annihilators."""
    return linalg.nullspace(np.vstack([linalg.nullspace(a, p), linalg.nullspace(b, p)]), p)


def _type_from_ker_dims(ker_dims):
    """Partition with ker_dims[r] - ker_dims[r - 1] boxes in row r (ker_dims[0] = 0)."""
    rows = [b - a for a, b in zip(ker_dims, ker_dims[1:]) if b > a]
    return tuple(sum(1 for n in rows if n >= c) for c in range(1, rows[0] + 1)) if rows else ()


def quotient_type(module, sub):
    """Type of module/sub: dim ker T^r there is dim {v : T^r v in sub} - dim sub,
    and T^r v lies in sub iff every functional vanishing on sub kills it."""
    ann, p = sub.annihilator_basis, module.prime
    return _type_from_ker_dims(
        [module.dim - linalg.rank(module.shift(ann, -r), p) - sub.dim
         for r in range(module.nilpotency_index + 1)]
    )


def sub_type(module, sub):
    """Type of sub: dim ker T^r there is dim sub - rank(T^r sub)."""
    p = module.prime
    return _type_from_ker_dims(
        [sub.dim - linalg.rank(module.shift(sub.basis, r), p)
         for r in range(module.nilpotency_index + 1)]
    )


def soc_layer(module, sub, ell):
    """{a in sub : T^ell a = 0}, from the kernel of T^ell on sub's basis."""
    p = module.prime
    if ell <= 0 or sub.dim == 0:
        return zero_subspace(module)
    coeffs = linalg.nullspace(module.shift(sub.basis, ell).T, p)
    return Subspace(module, (coeffs @ sub.basis) % p)
