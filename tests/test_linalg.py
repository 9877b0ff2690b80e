"""The F_p elimination kernel: exactness at large primes and properties of
the reduced rows and the kernel rows of random matrices, checked in Python
integers, and the array entry that is linalg's public interface."""

import ast
import inspect
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from soctab import linalg

BIG = 4294967311  # smallest prime above 2**32; int64 products of residues overflow

PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, BIG]))
    nrows = draw(st.integers(0, 14))
    ncols = draw(st.integers(0, 14))
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), p


@PROPS
@given(matrices())
def test_rref_is_a_canonical_basis_of_the_row_space(mp):
    m, p = mp
    ncols = m.shape[1]
    r, pivots = linalg._eliminate(m.tolist(), ncols, p)
    assert len(r) == len(pivots) and all(len(row) == ncols for row in r)
    # the array entry converts the same elimination
    a, apivots = linalg.rref(m, p)
    assert a.dtype == np.int64 and a.shape == (len(r), ncols)
    assert a.tolist() == r and apivots == pivots
    assert linalg._eliminate(r, ncols, p) == (r, pivots)
    assert [[row[c] for c in pivots] for row in r] == [[int(i == k) for i in range(len(r))] for k in range(len(r))]
    for v in m.tolist():
        # the coordinates of v in an rref basis are its entries at the pivots
        combo = [sum(v[c] * b[k] for c, b in zip(pivots, r)) % p for k in range(ncols)]
        assert combo == v


@PROPS
@given(matrices())
def test_nullspace_is_annihilated_and_has_the_right_dimension(mp):
    m, p = mp
    ncols = m.shape[1]
    ns = linalg._null_rows(m.tolist(), ncols, p)
    assert all(len(x) == ncols for x in ns)
    assert len(ns) == ncols - len(linalg._eliminate(m.tolist(), ncols, p)[0])
    for v in m.tolist():
        for x in ns:
            assert sum(a * b for a, b in zip(v, x)) % p == 0
    # the basis is canonical: Subspace equality compares these rows
    assert linalg._eliminate(ns, ncols, p)[0] == ns


@PROPS
@given(matrices())
def test_pivot_columns_count_the_rank_of_every_column_prefix(mp):
    m, p = mp
    rows = m.tolist()
    pivots = linalg._eliminate(rows, m.shape[1], p)[1]
    assert pivots == linalg.rref(m, p)[1]
    for k in range(m.shape[1] + 1):
        assert sum(c < k for c in pivots) == len(linalg._eliminate([r[:k] for r in rows], k, p)[0])


def test_the_integer_elimination_refuses_a_matrix_whose_rank_depends_on_p():
    # the generators (1,0,1), (0,1,1), (1,1,0) span 2 dimensions at p = 2 and 3 at p = 3
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert [len(linalg._eliminate(rows, 3, p)[0]) for p in (2, 3)] == [2, 3]
    assert linalg._eliminate(rows, 3, None) is None
    assert linalg._null_rows(rows, 3, None) is None
    # an entry 2 given is refused before any step: it is 0 mod 2 alone
    assert linalg._eliminate([[2, 0]], 2, None) is None
    # and so is one formed while clearing above a pivot, here (1, 0, -2): the
    # steps agree at every prime, but a zero test on the row would not
    assert linalg._eliminate([[1, 1, -1], [0, 1, 1]], 3, None) is None
    assert linalg._eliminate([[1, 1, 1], [0, 1, 1]], 3, 2)[0] == [[1, 0, 0], [0, 1, 1]]


@st.composite
def unit_matrices(draw):
    """Matrices with entries in {-1, 0, 1}, at most 8 x 8."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    cells = st.lists(st.sampled_from([0, 0, 1, -1]), min_size=ncols, max_size=ncols)
    return draw(st.lists(cells, min_size=nrows, max_size=nrows)), ncols


@PROPS
@given(unit_matrices())
def test_a_certified_integer_elimination_is_the_elimination_at_every_prime(case):
    rows, ncols = case
    found = linalg._eliminate(rows, ncols, None)
    # the kernel eliminates the rows with their columns reversed
    kernel = linalg._null_rows(rows, ncols, None)
    assert (kernel is None) == (linalg._eliminate([r[::-1] for r in rows], ncols, None) is None)
    # the forward pass alone fixes the pivots: over Z it gives up whenever
    # the integer elimination gives up in it, and may pass where only the
    # back-substitution gives up
    lead = linalg._pivot_rows(rows, ncols, None)
    assert lead is not None or found is None
    for p in (2, 3, 5, BIG):
        at_p = [[x % p for x in r] for r in rows]
        red_p, pivots_p = linalg._eliminate(at_p, ncols, p)
        lead_p = linalg._pivot_rows(at_p, ncols, p)
        assert sorted(lead_p) == pivots_p and len(lead_p) == len(red_p)
        if lead is not None:
            assert sorted(lead) == pivots_p and len(lead) == len(red_p)
        if found is not None:
            red, pivots = found
            assert (red_p, pivots_p) == ([[x % p for x in r] for r in red], pivots)
        if kernel is not None:
            assert linalg._null_rows(at_p, ncols, p) == [[x % p for x in r] for r in kernel]


def test_only_linalg_imports_numpy():
    importers = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["linalg.py"]

    # and inside linalg, only the checked entry for outside rows uses numpy
    users = set()
    for node in ast.parse(Path(linalg.__file__).read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(node)):
            users.add(node.name if isinstance(node, ast.FunctionDef) else "<module>")
    assert users <= {"asmat", "_to_rows", "_to_array", "rref"}, users


def test_linalg_exposes_only_the_checked_entry():
    public = {
        name for name, obj in vars(linalg).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == linalg.__name__
    }
    assert public == {"asmat", "rref"}
