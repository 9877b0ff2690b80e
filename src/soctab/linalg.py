"""Exact linear algebra over the prime field F_p.

The public interface is numpy: matrices are int64 arrays, vectors are
rows, and every function takes and returns such arrays, reduced mod p.
A subspace is its reduced row-echelon basis, held by ``modules.Subspace``
as kernel rows, so equal subspaces have equal rows.

Inside, every elimination runs in one routine, ``_eliminate``, on rows
held as lists of Python ints in [0, p), at every prime.  A public function
converts its arrays to rows once on entry and back once on exit, so the
matrices the library produces (mostly smaller than 20 x 20) pay no
per-entry numpy call, and arithmetic is exact at any prime (the
realization and subspaces pass in rows).  Rows bit-packed into one int and
eliminated by XOR at p = 2 (as in M4RI) ran the realization sweep slower,
so one row form serves every prime.  ``nullspace`` costs one elimination:
the reduced echelon basis of the kernel is read off the reduced rows.

This module knows nothing of the operator: ``FpModule.shift`` applies it,
and the callers hand the resulting arrays in.  The arrays only hold
residues mod p, and no function here multiplies them.  ``FpModule`` still
refuses moduli with ncols * (p - 1)**2 >= 2**63, the bound under which an
int64 product would be exact, so its trial-division primality test only
meets primes below 3.04e9.
"""

import itertools

import numpy as np


def asmat(rows, n, p):
    """Normalize ``rows`` to a 2-D int64 array with n columns, reduced mod p.

    Input with no entries is no rows; rows of any width but n, and entries
    outside the int64 range, raise ValueError.
    """
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError("matrix entries must lie in the int64 range") from None
    if a.size == 0:
        return np.zeros((0, n), dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"rows of width {n} expected, got an array of shape {a.shape}")
    return a % p


# ---------------------------------------------------------------------------
# the kernel: rows as Python ints


def _to_rows(mat, p):
    """Rows of an int64 matrix as lists of ints, reduced mod p."""
    return (mat % p).tolist()


def _to_array(rows, ncols):
    """Kernel rows back to an int64 array of shape (len(rows), ncols)."""
    flat = itertools.chain.from_iterable(rows)
    return np.fromiter(flat, np.int64, len(rows) * ncols).reshape(len(rows), ncols)


def _eliminate(rows, ncols, p):
    """The one elimination routine: reduced echelon rows and pivot columns."""
    lead = {}  # pivot column -> the row with leading entry 1 there
    for r in rows:
        c = 0
        while True:
            while c < ncols and not r[c]:
                c += 1
            if c == ncols:
                break
            q = lead.get(c)
            f = r[c]
            if q is None:
                if f != 1:
                    inv = pow(f, -1, p)
                    r = [x * inv % p for x in r]
                lead[c] = r
                break
            r = [(x - f * y) % p for x, y in zip(r, q)]
    cols = sorted(lead)
    out = [lead[c] for c in cols]
    # clear above each pivot, lowest pivot first, so that the row subtracted
    # is already clear at every pivot after its own
    for i in range(len(out) - 1, 0, -1):
        r, c = out[i], cols[i]
        for j in range(i):
            f = out[j][c]
            if f:
                out[j] = [(x - f * y) % p for x, y in zip(out[j], r)]
    return out, cols


def _null_rows(rows, ncols, p):
    """Reduced echelon basis of {x : row . x = 0 for every row}, as kernel rows.

    The rows are eliminated once, with their columns reversed.  The kernel
    vector of a free column c there (1 at c, -r[c] at the pivot of each
    reduced row r) is nonzero only at c and at pivots left of c, so with
    its columns reversed back it leads at its free column and vanishes at
    every other free column: taken in decreasing c, these vectors are
    already the reduced echelon basis.
    """
    red, pivots = _eliminate([r[::-1] for r in rows], ncols, p)
    basis = []
    for c in sorted(set(range(ncols)) - set(pivots), reverse=True):
        v = [0] * ncols
        v[c] = 1
        for r, pc in zip(red, pivots):
            v[pc] = -r[c] % p
        basis.append(v[::-1])
    return basis


# ---------------------------------------------------------------------------
# the array interface


def rref(mat, p):
    """Reduced row-echelon form and pivot columns."""
    ncols = mat.shape[1]
    rows, pivots = _eliminate(_to_rows(mat, p), ncols, p)
    return _to_array(rows, ncols), pivots


def rank(mat, p):
    return len(_eliminate(_to_rows(mat, p), mat.shape[1], p)[0])


def pivot_columns(mat, p):
    """Pivot columns of the reduced row-echelon form, in increasing order.

    The number of pivots before column k is the rank of mat[:, :k], so one
    elimination gives the rank of every column prefix.
    """
    return _eliminate(_to_rows(mat, p), mat.shape[1], p)[1]


def row_space(mat, p):
    """Canonical (rref) basis of the row space."""
    return rref(mat, p)[0]


def nullspace(mat, p):
    """Canonical basis of {x : mat @ x = 0}, as rows."""
    ncols = mat.shape[1]
    return _to_array(_null_rows(_to_rows(mat, p), ncols, p), ncols)


def left_annihilator(basis, n, p):
    """Canonical basis of {f : f . v = 0 for every row v of basis}."""
    return nullspace(asmat(basis, n, p), p)

