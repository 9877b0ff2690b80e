import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fixtures import DUAL_LR_M2, SOCLE_M1, SOCLE_M2
from oracles import (
    annihilator_array,
    basis,
    from_chain,
    full_subspace,
    intersection,
    nullspace,
    rad_layer,
    rank,
    shift,
    soc_layer,
    to_chain,
)
from soctab.embeddings import (
    BadIndex,
    Embedding,
    HomMatrix,
    PrimeMismatch,
    direct_sum,
    dual_embedding,
    embedding_from_json,
    embedding_from_spec,
    embedding_to_json,
    hom_matrix,
    load_fixture,
    lr_tableau,
    picket,
    random_corpus,
    socle_tableau,
)
from soctab.modules import (
    Subspace,
    quotient_type,
    standard_module,
    zero_subspace,
)
from soctab.tableaux import SkewTableau, check_lr, check_socle

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_picket():
    x = picket(2, 4, 5)
    assert x.shape == ((4,), (5,), (1,))
    assert picket(2, 0, 3).sub.dim == 0
    assert picket(2, 3, 3).gamma == ()
    assert picket(2, 0, 0).ambient.dim == 0
    with pytest.raises(BadIndex):
        picket(2, 4, 3)


def test_fixture_embeddings():
    m1, m2, m3 = (load_fixture(n) for n in ("m1", "m2", "m3"))
    for x in (m1, m2, m3):
        assert x.shape == ((4, 2), (5, 3, 2), (3, 1))
    assert socle_tableau(m2) == SOCLE_M2
    assert socle_tableau(m1) == SOCLE_M1
    assert lr_tableau(m1) == lr_tableau(m2)
    assert socle_tableau(m2) == socle_tableau(m3)
    assert socle_tableau(m1) != socle_tableau(m2)
    assert lr_tableau(m2) != lr_tableau(m3)
    assert lr_tableau(dual_embedding(m2)) == DUAL_LR_M2


def test_m1_lr_tableau_literal():
    # by hand from the summands: the radical layers of the sub have quotient
    # types (31), (321), (332), (432), (532), so the entries sit at
    # level 1: (2,2),(1,3); level 2: (3,2),(2,3); level 3: (4,1); level 4: (5,1)
    expected = SkewTableau(
        (4, 2),
        (5, 3, 2),
        (3, 1),
        {(2, 2): 1, (1, 3): 1, (3, 2): 2, (2, 3): 2, (4, 1): 3, (5, 1): 4},
    )
    assert lr_tableau(load_fixture("m1")) == expected
    assert to_chain(expected, "lr") == (
        (3, 1), (3, 2, 1), (3, 3, 2), (4, 3, 2), (5, 3, 2),
    )


def test_corpus_determinism():
    a = random_corpus(42, 25, 8)
    b = random_corpus(42, 25, 8)
    assert a == b
    assert len({json.dumps(s, sort_keys=True) for s in a}) == 25


def test_corpus_larger_than_its_weight_allows_is_refused():
    # p(w) (2^w + 4^w + 8^w) specs of weight w: 14 of weight 1, 168 more of weight 2
    assert len({json.dumps(s, sort_keys=True) for s in random_corpus(5, 14, 1)}) == 14
    assert len({json.dumps(s, sort_keys=True) for s in random_corpus(5, 182, 2)}) == 182
    assert random_corpus(5, 0, 0) == []
    for count, weight, distinct in ((1, 0, 0), (15, 1, 14), (183, 2, 182)):
        with pytest.raises(ValueError, match=f"only {distinct} distinct"):
            random_corpus(5, count, weight)


@pytest.mark.parametrize("max_beta", ["0", "1"])
def test_check_with_too_small_a_corpus_weight_exits_1(max_beta):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "soctab.cli", "check", "--max-beta", max_beta],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("invalid input: only") and "Traceback" not in proc.stderr


def test_picket_tableaux():
    x = picket(2, 4, 5)
    assert dict(socle_tableau(x).entries) == {(r, 1): 6 - r for r in range(2, 6)}
    assert dict(lr_tableau(x).entries) == {(r, 1): r - 1 for r in range(2, 6)}
    empty_sub = picket(2, 0, 3)
    t = socle_tableau(empty_sub)
    assert t.shape == ((), (3,), (3,))


def test_direct_sum():
    m1 = direct_sum(direct_sum(picket(2, 4, 5), picket(2, 0, 3)), picket(2, 2, 2))
    assert m1.shape == ((4, 2), (5, 3, 2), (3, 1))
    assert to_chain(socle_tableau(m1), "socle") == (
        (5, 3, 2), (4, 3, 1), (3, 3), (3, 2), (3, 1),
    )
    x = picket(2, 2, 3)
    same = direct_sum(x, picket(2, 0, 0))
    assert same.shape == x.shape
    assert socle_tableau(same) == socle_tableau(x)
    with pytest.raises(PrimeMismatch):
        direct_sum(picket(2, 1, 2), picket(3, 1, 2))


def test_dual_embedding():
    m2 = load_fixture("m2")
    d = dual_embedding(m2)
    assert d.shape == ((3, 1), (5, 3, 2), (4, 2))
    dd = dual_embedding(d)
    for f in (socle_tableau, lr_tableau):
        assert f(dd) == f(m2)
    for ell, m in ((0, 2), (1, 3), (2, 2), (4, 5)):
        a = dual_embedding(picket(2, ell, m))
        b = picket(2, m - ell, m)
        assert a.shape == b.shape
        assert socle_tableau(a) == socle_tableau(b)
        assert lr_tableau(a) == lr_tableau(b)
    whole = dual_embedding(picket(2, 0, 4))
    assert whole.sub.dim == 4


def test_dual_fixture_equalities():
    # duals of the three bundled embeddings share invariants in the mirrored
    # pattern: equal LR tableaux upstairs become equal socle tableaux of the
    # duals, and conversely
    m1, m2, m3 = (load_fixture(n) for n in ("m1", "m2", "m3"))
    d1, d2, d3 = (dual_embedding(x) for x in (m1, m2, m3))
    assert socle_tableau(d1) == socle_tableau(d2)
    assert lr_tableau(d2) == lr_tableau(d3)
    assert lr_tableau(d1) != lr_tableau(d2)
    assert socle_tableau(d2) != socle_tableau(d3)


def _read_back_cases(p):
    """Fixtures, pickets, direct sums and corpus embeddings, each with its dual."""
    xs = [load_fixture(name, prime=p) for name in ("m1", "m2", "m3")]
    xs += [picket(p, ell, m) for ell, m in ((0, 3), (1, 1), (2, 4), (4, 5))]
    xs += [
        direct_sum(picket(p, 2, 4), picket(p, 1, 3)),
        direct_sum(load_fixture("m2", prime=p), picket(p, 1, 2)),
        direct_sum(picket(p, 0, 0), picket(p, 0, 2)),
    ]
    xs += [embedding_from_spec(spec, p) for spec in random_corpus(31, 20, 8)]
    return xs + [dual_embedding(x) for x in xs]


@pytest.mark.parametrize("p", [2, 3])
def test_dual_and_direct_sum_stay_in_the_shared_module(p):
    xs = _read_back_cases(p)
    for x in xs:
        d = dual_embedding(x)
        assert d.ambient is x.ambient
        assert dual_embedding(d).sub == x.sub
    for x, y in zip(xs, xs[1:] + xs[:1]):
        merged = sorted(x.beta + y.beta, reverse=True)
        s = direct_sum(x, y)
        assert s.ambient is standard_module(p, merged)
        assert s.shape == tuple(
            tuple(sorted(a + b, reverse=True)) for a, b in zip(x.shape, y.shape)
        )


@pytest.mark.parametrize("p", [2, 3])
def test_read_back_end_layers_equal_direct_computation(p):
    for x in _read_back_cases(p):
        amb, sub = x.ambient, x.sub
        s = x.alpha[0] if x.alpha else 0
        socs = [quotient_type(amb, soc_layer(amb, sub, i)) for i in range(s + 1)]
        rads = [quotient_type(amb, rad_layer(amb, sub, i)) for i in range(s + 1)]
        beta = quotient_type(amb, zero_subspace(amb))
        gamma = quotient_type(amb, sub)
        # soc^0 = 0, soc^s = sub; rad^0 = sub, rad^s = 0
        assert (socs[0], socs[-1]) == (beta, gamma) == (x.beta, x.gamma)
        assert (rads[0], rads[-1]) == (gamma, beta)
        sigma, lam = socle_tableau(x), lr_tableau(x)
        assert sigma == from_chain(socs, "socle")
        assert lam == from_chain(rads, "lr")
        assert (to_chain(sigma, "socle")[0], to_chain(sigma, "socle")[-1]) == (beta, gamma)
        assert (to_chain(lam, "lr")[0], to_chain(lam, "lr")[-1]) == (gamma, beta)
        assert check_socle(sigma) and check_lr(lam)


def test_random_corpus_tableaux_valid():
    for spec in random_corpus(21, 60, 9):
        x = embedding_from_spec(spec, 2)
        assert check_socle(socle_tableau(x))
        assert check_lr(lr_tableau(x))


def hom_dim(x, y):
    """Dimension of {f : ambient_x -> ambient_y, f T = T f, f(sub_x) <= sub_y}.

    The reference for ``hom_matrix``: it solves for f itself, as a vector
    of nx * ny unknowns, instead of for the image of a picket generator.
    """
    if x.prime != y.prime:
        raise PrimeMismatch(f"primes differ: {x.prime} vs {y.prime}")
    p = x.prime
    nx, ny = x.ambient.dim, y.ambient.dim
    if nx == 0 or ny == 0:
        return 0
    ix = np.eye(nx, dtype=np.int64)
    iy = np.eye(ny, dtype=np.int64)
    # vec is column-major: vec(F Tx) = (Tx^T kron I) vec F, vec(Ty F) = (I kron Ty) vec F;
    # shift(I, 1) is T^T and shift(I, -1) is T
    blocks = [np.kron(shift(x.ambient, ix, 1), iy) - np.kron(ix, shift(y.ambient, iy, -1))]
    ann = annihilator_array(y.sub)
    if ann.shape[0] > 0:
        for a in basis(x.sub):
            blocks.append(np.kron(a.reshape(1, nx), ann))
    mat = np.vstack(blocks) % p
    return nx * ny - rank(mat, p)


def test_hom_dim_examples():
    assert hom_dim(picket(2, 2, 3), picket(2, 4, 5)) == 3
    assert hom_dim(picket(2, 4, 5), picket(2, 0, 0)) == 0
    m2 = load_fixture("m2")
    ident = np.eye(m2.ambient.dim, dtype=np.int64)
    for m in range(1, 4):
        # shift(I, -m) is T^m
        expect = m2.ambient.dim - rank(shift(m2.ambient, ident, -m), 2)
        assert hom_dim(picket(2, 0, m), m2) == expect
    with pytest.raises(PrimeMismatch):
        hom_dim(picket(2, 1, 2), picket(3, 1, 2))


def test_picket_to_picket_closed_form():
    # maps out of a picket are cut out by T^m b = 0 and T^(m-l) b landing in
    # the target sub; on a single block both conditions truncate coordinate
    # ranges, giving dim = min(m, n, m - l + k)
    for m in range(0, 6):
        for ell in range(0, m + 1):
            for n in range(0, 6):
                for k in range(0, n + 1):
                    got = hom_dim(picket(2, ell, m), picket(2, k, n))
                    assert got == min(m, n, m - ell + k), (ell, m, k, n)


def test_hom_matrix_matches_hom_dim():
    for x in (picket(2, 4, 5), load_fixture("m2"), picket(2, 0, 0)):
        h = hom_matrix(x)
        for ell in range(h.L + 1):
            for m in range(ell, h.M + 1):
                assert h.value(ell, m) == hom_dim(picket(x.prime, ell, m), x)


def test_hom_matrix_invariants():
    for spec in random_corpus(22, 30, 8):
        x = embedding_from_spec(spec, 2)
        h = hom_matrix(x)
        assert h.value(0, 0) == 0
        b1 = x.beta[0] if x.beta else 0
        for ell in range(h.L + 1):
            for m in range(ell + 1, h.M + 1):
                assert h.value(ell, m) >= h.value(ell, m - 1)
                if ell >= 1 and m >= ell:
                    assert h.value(ell, m) >= h.value(ell - 1, m - 1)
            if b1 + ell < h.M:
                assert h.value(ell, h.M) == h.value(ell, h.M - 1)


def solve_commutant(t_source, t_target, p):
    """Basis of maps F (target_dim x source_dim) with F @ t_source = t_target @ F.

    Returned as a list of matrices; the basis is canonical in the
    flattened coordinates.
    """
    ns, nt = t_source.shape[0], t_target.shape[0]
    if ns == 0 or nt == 0:
        return []
    lhs = np.kron(t_source.T, np.eye(nt, dtype=np.int64)) - np.kron(
        np.eye(ns, dtype=np.int64), t_target
    )
    sols = nullspace(lhs % p, p)
    return [v.reshape(ns, nt).T.copy() for v in sols]


def test_hom_isomorphism_invariance():
    rng = random.Random(23)
    for spec in random_corpus(24, 10, 8):
        x = embedding_from_spec(spec, 2)
        n = x.ambient.dim
        t = shift(x.ambient, np.eye(n, dtype=np.int64), -1)
        comm = solve_commutant(t, t, 2)
        u = None
        for _ in range(100):
            cand = np.zeros((n, n), dtype=np.int64)
            for mtx in comm:
                if rng.random() < 0.5:
                    cand = (cand + mtx) % 2
            if rank(cand, 2) == n:
                u = cand
                break
        assert u is not None
        moved = Subspace(x.ambient, (basis(x.sub) @ u.T) % 2)
        y = Embedding(x.ambient, moved)
        assert hom_matrix(y) == hom_matrix(x)


def entries_below(x, ell, r):
    """dim of (soc^ell sub & rad^(r-1) ambient) over (soc^(ell-1) sub & rad^(r-1) ambient)."""
    p = x.prime
    radb = rad_layer(x.ambient, full_subspace(x.ambient), r - 1)
    hi = intersection(basis(soc_layer(x.ambient, x.sub, ell)), basis(radb), p)
    lo = intersection(basis(soc_layer(x.ambient, x.sub, ell - 1)), basis(radb), p)
    return hi.shape[0] - lo.shape[0]


def test_entries_below():
    m2 = load_fixture("m2")
    assert entries_below(m2, 1, 1) == 2
    assert entries_below(m2, 1, m2.beta[0] + 1) == 0
    assert entries_below(picket(2, 4, 5), 2, 3) == 1
    # agreement with counting boxes in the socle tableau
    for spec in random_corpus(25, 40, 9):
        x = embedding_from_spec(spec, 2)
        t = socle_tableau(x)
        b1 = x.beta[0] if x.beta else 0
        a1 = x.alpha[0] if x.alpha else 0
        for ell in range(1, a1 + 1):
            for r in range(1, b1 + 2):
                want = sum(1 for (row, _c), v in t.entries.items() if v == ell and row >= r)
                assert entries_below(x, ell, r) == want


def test_json_round_trip():
    m2 = load_fixture("m2")
    blob = embedding_to_json(m2)
    again = embedding_from_json(blob)
    assert again.shape == m2.shape
    assert socle_tableau(again) == socle_tableau(m2)
    assert embedding_from_json(blob, prime=3).prime == 3
    # the dual lies in the same standard module, so it serializes too
    d = dual_embedding(m2)
    back = embedding_from_json(embedding_to_json(d))
    assert back.shape == (m2.gamma, m2.beta, m2.alpha)
    assert back.sub == d.sub


def test_spec_coefficients_beyond_int64_are_reduced_exactly():
    spec = embedding_to_json(load_fixture("m2"))
    big = {**spec, "generators": [
        [[v + 3**50 for v in coeffs] for coeffs in gen] for gen in spec["generators"]
    ]}
    assert embedding_from_spec(big, 3).sub == embedding_from_spec(spec, 3).sub


def test_hom_matrix_json():
    h = hom_matrix(load_fixture("m2"))
    blob = json.dumps(h.to_json_dict())
    assert HomMatrix.from_json_dict(json.loads(blob)) == h


def test_hom_matrix_rejects_bools():
    with pytest.raises(ValueError):
        HomMatrix(1, 1, [[0, True], [None, 1]])
    for L, M in ((True, 1), (1, True)):
        with pytest.raises(ValueError):
            HomMatrix.from_json_dict({"L": L, "M": M, "h": [[0, 1], [None, 1]]})
    assert HomMatrix(1, 1, [[0, 1], [None, 1]]).to_json_dict()["h"] == [[0, 1], [None, 1]]
