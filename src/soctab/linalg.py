"""Exact linear algebra over the prime field F_p, or over the integers for
every prime at once.

Every elimination runs in one routine, ``_eliminate``, on rows held as
lists of Python ints, at every prime.  It is built on one forward pass,
``_pivot_rows``, which fixes the pivot columns and so the rank; a caller
that needs only those calls the forward pass alone and pays for no
back-substitution.  The library holds rows throughout and calls these
routines and ``_null_rows`` directly, so the matrices it builds (mostly
smaller than 20 x 20) pay no per-entry numpy call, and arithmetic is exact
at any prime.  Rows bit-packed into one int and eliminated by XOR at p = 2
(as in M4RI) ran the realization sweep slower, so one row form serves
every prime.  ``_null_rows`` costs one elimination: the reduced echelon
basis of the kernel is read off the reduced rows.

Each routine takes a prime p, with rows of ints in [0, p), or p None.
With None it eliminates integer rows once, over the integers, for all
primes; the realization's matrices hold integers that mean the same at
every prime.  While every entry stays in {-1, 0, 1}, an entry is 0 iff it
is 0 mod p, at every p, and the pivot -1 is its own inverse, so the
elimination at any prime would take the same steps, and its rows and
pivots are these reduced mod p.  The first entry outside that set (a 2 is
0 mod 2 alone) makes the routine return None, and the caller eliminates
at each prime.

numpy serves only the checked entry for rows from outside, and the
public interface is that entry: ``asmat`` reads them into an int64 array
of the expected width, reduced mod p, and ``rref`` eliminates such an
array, converting to rows once on entry and back once on exit.
``modules.Subspace`` builds on the two.  No other module of the library
imports numpy.  A subspace is its reduced row-echelon basis, held by
``modules.Subspace`` as kernel rows, so equal subspaces have equal rows.

This module knows nothing of the operator: ``FpModule.shift`` applies it
to rows, and the callers hand the resulting rows in.  No function here
multiplies two matrices.  ``FpModule`` still refuses moduli with
ncols * (p - 1)**2 >= 2**63, the bound under which an int64 product would
be exact, so its trial-division primality test only meets primes below
3.04e9.
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


_UNITS = frozenset((-1, 0, 1))


def _pivot_rows(rows, ncols, p):
    """The forward pass of ``_eliminate``: {pivot column: its row, with
    leading entry 1}.  It fixes the pivot columns, and so the rank.

    With p None it runs over the integers, for every prime at once, and
    returns None as soon as a row given or formed holds an entry outside
    {-1, 0, 1}.  An entry in that set is 0 iff it is 0 mod p, at every
    prime p, and a leading -1 is its own inverse, so while every entry stays
    in it, the pass at any p takes these same steps on these rows reduced
    mod p.  A 2, which is 0 mod 2 only, or any other entry ends it.
    """
    if p is None and not _UNITS.issuperset(itertools.chain.from_iterable(rows)):
        return None
    lead = {}
    for r in rows:
        c = 0
        while True:
            while c < ncols and not r[c]:
                c += 1
            if c == ncols:
                break
            q = lead.get(c)
            if q is None:
                if r[c] == 1:
                    lead[c] = r
                elif p is None:
                    lead[c] = [-x for x in r]  # over the integers the pivot is -1, its own inverse
                else:
                    inv = pow(r[c], -1, p)
                    lead[c] = [x * inv % p for x in r]
                break
            if p is None:
                r = [x - y for x, y in zip(r, q)] if r[c] == 1 else [x + y for x, y in zip(r, q)]
                if 2 in r or -2 in r:
                    return None
            else:
                f = r[c]
                r = [(x - f * y) % p for x, y in zip(r, q)]
    return lead


def _eliminate(rows, ncols, p):
    """The one elimination routine: reduced echelon rows and pivot columns.

    With p None it runs over the integers, as ``_pivot_rows`` does, and
    returns None as soon as a row given or formed leaves {-1, 0, 1}; else
    its rows reduced mod p are the rows at every prime p.
    """
    lead = _pivot_rows(rows, ncols, p)
    if lead is None:
        return None
    cols = sorted(lead)
    out = [lead[c] for c in cols]
    # clear above each pivot, lowest pivot first, so that the row subtracted
    # is already clear at every pivot after its own
    for i in range(len(out) - 1, 0, -1):
        r, c = out[i], cols[i]
        for j in range(i):
            f = out[j][c]
            if f and p is None:
                out[j] = s = [x - f * y for x, y in zip(out[j], r)]
                if 2 in s or -2 in s:
                    return None
            elif f:
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

    With p None the elimination runs over the integers: the basis, with
    entries in {-1, 0, 1}, reduced mod any prime p is the basis at p, and
    None means that elimination gave up.
    """
    found = _eliminate([r[::-1] for r in rows], ncols, p)
    if found is None:
        return None
    red, pivots = found
    basis = []
    for c in sorted(set(range(ncols)) - set(pivots), reverse=True):
        v = [0] * ncols
        v[c] = 1
        for r, pc in zip(red, pivots):
            v[pc] = -r[c] % p if p else -r[c]
        basis.append(v[::-1])
    return basis


# ---------------------------------------------------------------------------
# the array interface


def rref(mat, p):
    """Reduced row-echelon form and pivot columns."""
    ncols = mat.shape[1]
    rows, pivots = _eliminate(_to_rows(mat, p), ncols, p)
    return _to_array(rows, ncols), pivots
