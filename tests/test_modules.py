import random
import tracemalloc
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import basis, full_subspace, intersection, is_subspace, preimage, rad_layer, soc_layer
from soctab import linalg, modules
from soctab.embeddings import Embedding, embedding_from_spec, load_fixture, random_corpus
from soctab.modules import (
    BadPrime,
    FpModule,
    NotInvariant,
    Subspace,
    _quotient_type,
    _radical_quotient_type,
    _socle_quotient_type,
    _sub_type,
    annihilator,
    quotient_type,
    standard_module,
    submodule_span,
    zero_subspace,
)
from soctab.partitions import partitions_of, weight


def test_standard_module():
    m = standard_module(2, (5, 3, 2))
    assert m.dim == 10
    assert m.nilpotency_index == 5
    m0 = standard_module(2, ())
    assert m0.dim == 0
    p3 = standard_module(3, (4,))
    assert p3.nilpotency_index == 4


def test_standard_modules_are_shared():
    m = standard_module(3, [2, 1])
    assert m is standard_module(3, (2, 1, 0))
    assert m is standard_module(3.0, (2, 1))
    assert m is not standard_module(2, (2, 1))
    assert m is not standard_module(3, (2, 2))


def _reference_operator(parts):
    """T on the blocks ``parts``, from its action T e_i = e_(i+1) inside a block."""
    n = sum(parts)
    t = np.zeros((n, n), dtype=np.int64)
    start = 0
    for size in parts:
        for i in range(start, start + size - 1):
            t[i + 1, i] = 1  # column i holds T e_i
        start += size
    return t


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shift_matches_a_reference_operator(p):
    rng = np.random.default_rng(p)
    for wgt in range(8):  # weight 0 is the zero module
        for lam in partitions_of(wgt):
            m = standard_module(p, lam)
            n = m.dim
            t = _reference_operator(lam)
            # unreduced entries too: the result is reduced mod p
            rows = np.vstack([np.eye(n, dtype=np.int64), rng.integers(0, 3 * p, size=(3, n))])
            tr = np.eye(n, dtype=np.int64)  # T^r
            for r in range(m.nilpotency_index + 2):
                for x in (rows, rows[:0]):  # and no rows at all
                    assert np.array_equal(oracles.shift(m, x, r), x @ tr.T % p), (lam, r)
                    assert np.array_equal(oracles.shift(m, x, -r), x @ tr % p), (lam, r)
                tr = tr @ t
            # the result is fresh rows: writing to them leaves the module as it was
            for row in m.shift(rows.tolist(), 1):
                row[:] = [1] * n
            assert np.array_equal(oracles.shift(m, rows, 1), rows @ t.T % p)


def test_a_module_stores_no_power_of_the_operator():
    # built directly, so that no cached module can serve it; dense powers
    # T^0..T^N would take (N + 1) * dim**2 * 8 bytes, about 65 MB here
    tracemalloc.start()
    try:
        FpModule(2, (200,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("rows", [[[0, 0, 0, 0, 0, 1]], [[1, 0, 0, 0]]], ids=["too-wide", "too-narrow"])
def test_a_basis_of_the_wrong_width_is_refused(rows):
    m = standard_module(2, (3, 2))
    with pytest.raises(ValueError):
        Subspace(m, rows)
    with pytest.raises(ValueError):
        submodule_span(m, rows)
    with pytest.raises(ValueError):
        linalg.asmat(rows, m.dim, m.prime)


@pytest.mark.parametrize("rows", [[[2**70, 1]], [[2**64, 1]], [[-(2**70), 1]]], ids=["2**70", "2**64", "-2**70"])
def test_an_entry_beyond_int64_is_refused(rows):
    m = standard_module(3, (2,))
    for build in (Subspace, submodule_span):
        with pytest.raises(ValueError, match="int64"):
            build(m, rows)
    with pytest.raises(ValueError, match="int64"):
        linalg.asmat(rows, m.dim, m.prime)


def test_module_type_is_kept():
    m = standard_module(5, (4, 2, 2))
    first = m.parts
    assert first == (4, 2, 2)
    assert m.parts is first
    assert quotient_type(m, zero_subspace(m)) == first


def test_bad_prime_is_raised_on_every_call():
    for _ in range(3):
        with pytest.raises(BadPrime):
            standard_module(4, (2,))
    with pytest.raises(ValueError):
        standard_module(2, (1, 2))


def test_direct_sum_and_dual_land_in_the_shared_module():
    from soctab.embeddings import direct_sum, dual_embedding, picket

    x = picket(2, 1, 2)
    s1, s2 = direct_sum(x, x), direct_sum(x, x)
    assert s1.ambient is s2.ambient is standard_module(2, (2, 2))
    d = dual_embedding(s1)
    assert d.ambient is s1.ambient


def test_embedding_rejects_non_invariant_subspace_of_shared_module():
    m = standard_module(2, (5,))
    ident = np.eye(5, dtype=np.int64)
    op_before = oracles.shift(m, ident, 1)
    with pytest.raises(ValueError):
        Embedding(m, Subspace(m, ident[:1]))
    assert np.array_equal(oracles.shift(standard_module(2, (5,)), ident, 1), op_before)


@pytest.mark.parametrize("q", [0, 1, 4, -3])
def test_non_prime_modulus_rejected(q):
    with pytest.raises(BadPrime):
        load_fixture("m2", prime=q)


def test_modulus_beyond_int64_products_rejected():
    # dim * (p - 1)**2 must stay below 2**63
    FpModule(3037000493, (1,))
    with pytest.raises(BadPrime):
        FpModule(3037000493, (1, 1))


def test_module_type_round_trip():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(60):
            wgt = rng.randint(0, 12)
            cands = list(partitions_of(wgt))
            lam = cands[rng.randrange(len(cands))]
            m = standard_module(p, lam)
            # through the kernel ranks of the operator's powers, not the stored parts
            assert quotient_type(m, zero_subspace(m)) == lam
            assert Embedding(m, full_subspace(m)).alpha == lam


def test_quotient_type():
    m = standard_module(2, (5,))
    soc2 = soc_layer(m, full_subspace(m), 2)
    assert quotient_type(m, soc2) == (3,)
    assert quotient_type(m, zero_subspace(m)) == (5,)
    with pytest.raises(NotInvariant):
        quotient_type(m, Subspace(m, np.eye(5, dtype=np.int64)[:1]))


def test_quotient_dimension_identity():
    for spec in random_corpus(11, 40, 8):
        x = embedding_from_spec(spec, 2)
        q = quotient_type(x.ambient, x.sub)
        assert weight(q) + x.sub.dim == x.ambient.dim


def test_submodule_span():
    # second example embedding: generators in blocks (5, 3, 2)
    m = standard_module(2, (5, 3, 2))
    g1 = np.zeros(10, dtype=np.int64)
    g1[1] = 1  # p * b
    g1[8] = 1  # b''
    g2 = np.zeros(10, dtype=np.int64)
    g2[6] = 1  # p * b'
    sub = submodule_span(m, [g1, g2])
    assert sub.dim == 6
    assert sub.is_invariant()
    x = embedding_from_spec(
        {"beta": [5, 3, 2], "generators": [
            [[0, 1, 0, 0, 0], [0, 0, 0], [1, 0]],
            [[0, 0, 0, 0, 0], [0, 1, 0], [0, 0]],
        ]},
        2,
    )
    assert x.alpha == (4, 2)
    assert submodule_span(m, []).dim == 0
    assert submodule_span(m, list(np.eye(10, dtype=np.int64))).dim == 10


def test_submodule_span_checks_and_converts_its_generators_once(monkeypatch):
    m = standard_module(3, (5, 3, 2))
    gens = [[0, 1, 0, 0, 0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0, 1]]
    want = Subspace(m, gens + [v for r in range(1, 5) for v in m.shift(gens, r)])
    calls = []
    asmat = linalg.asmat
    monkeypatch.setattr(linalg, "asmat", lambda *args: calls.append(args) or asmat(*args))
    monkeypatch.setattr(linalg, "rref", None)  # the stacked rows are eliminated as rows
    assert submodule_span(m, gens) == want
    assert calls == [(gens, m.dim, 3)]


def test_layers():
    m = standard_module(2, (5,))
    whole = full_subspace(m)
    assert soc_layer(m, whole, 2).dim == 2
    assert np.array_equal(
        basis(soc_layer(m, whole, 2)), basis(rad_layer(m, whole, 3))
    )
    assert rad_layer(m, whole, 0) == whole
    assert soc_layer(m, whole, 0).dim == 0
    ker2 = preimage(m, zero_subspace(m), 2)
    assert ker2.dim == 2
    assert np.array_equal(basis(ker2), basis(soc_layer(m, whole, 2)))
    for mod in (m, standard_module(2, ())):
        assert preimage(mod, full_subspace(mod), 3) == full_subspace(mod)


def test_layer_adjunction():
    rng = random.Random(6)
    for spec in random_corpus(7, 30, 8):
        x = embedding_from_spec(spec, 2)
        m, s = x.ambient, x.sub
        r = rng.randint(0, 4)
        pre = preimage(m, s, r)
        assert is_subspace(basis(rad_layer(m, pre, r)), basis(s), m.prime)
        ell = rng.randint(0, 4)
        lhs = soc_layer(m, s, ell)
        rhs_basis = intersection(
            basis(preimage(m, zero_subspace(m), ell)), basis(s), m.prime
        )
        assert np.array_equal(basis(lhs), rhs_basis)


def test_duality():
    for mm in (1, 2, 5):
        m = standard_module(2, (mm,))
        assert annihilator(m, zero_subspace(m)) == full_subspace(m)
        assert annihilator(m, full_subspace(m)) == zero_subspace(m)
    m = standard_module(2, (5,))
    whole = full_subspace(m)
    for ell in range(6):
        ann = annihilator(m, soc_layer(m, whole, ell))
        assert ann.dim == 5 - ell
        assert ann.is_invariant()
        # on one block, the reversed annihilator of soc^ell is soc^(5 - ell)
        assert ann == soc_layer(m, whole, 5 - ell)


def test_double_annihilator():
    for spec in random_corpus(8, 30, 8):
        x = embedding_from_spec(spec, 3)
        m, s = x.ambient, x.sub
        dd = annihilator(m, annihilator(m, s))
        # reversing each block twice is the identity, so the double dual is s itself
        assert np.array_equal(basis(dd), basis(s))


def test_socle_factor_monomorphism():
    # multiplication by the uniformizer embeds each socle factor, intersected
    # with any radical layer, into the next one down
    for spec in random_corpus(9, 40, 9):
        x = embedding_from_spec(spec, 2)
        m, a = x.ambient, x.sub
        whole = full_subspace(m)

        def layer(e, r):
            return intersection(
                basis(soc_layer(m, a, e)), basis(rad_layer(m, whole, r)), m.prime
            ).shape[0]

        for s in range(1, 4):
            for ell in range(2, 5):
                lhs = layer(ell, s - 1) - layer(ell - 1, s - 1)
                rhs = layer(ell - 1, s) - layer(ell - 2, s)
                assert lhs <= rhs, (spec, ell, s)


def test_prime_independence_of_types():
    for spec in random_corpus(10, 40, 9):
        x2 = embedding_from_spec(spec, 2)
        x3 = embedding_from_spec(spec, 3)
        assert x2.shape == x3.shape
        assert x2.sub.dim == x3.sub.dim


@st.composite
def random_vectors(draw):
    """A random standard module, |beta| <= 8, and up to three random vectors in it."""
    p = draw(st.sampled_from([2, 3, 5, 7, 1000003]))
    beta = draw(st.sampled_from([b for w in range(9) for b in partitions_of(w)]))
    m = standard_module(p, beta)
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    gens = draw(st.lists(st.lists(entry, min_size=m.dim, max_size=m.dim), max_size=3))
    return m, np.array(gens, dtype=np.int64).reshape(len(gens), m.dim)


def invariant_subspaces():
    """The span of up to three random generators in a random standard module, |beta| <= 8."""
    return random_vectors().map(lambda mg: (mg[0], submodule_span(*mg)))


def random_subspaces():
    """The span of random vectors, invariant or not, or of their submodule span."""
    return st.one_of(
        random_vectors().map(lambda mg: (mg[0], Subspace(*mg))),
        invariant_subspaces(),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(invariant_subspaces())
def test_column_slice_read_offs_match_the_annihilator_and_shift_formulas(case):
    m, sub = case
    x = Embedding(m, sub)
    assert quotient_type(m, sub) == x.gamma == _quotient_type(m, sub) == oracles.quotient_type(m, sub)
    assert x.alpha == _sub_type(m, sub) == oracles.sub_type(m, sub)
    for r in range(m.nilpotency_index + 2):
        # equal Subspaces have equal canonical bases
        soc, rad = soc_layer(m, sub, r), rad_layer(m, sub, r)
        assert soc == oracles.soc_layer_by_shift(m, sub, r)
        # one pivot read-off per layer, against the layer built and the
        # type of its quotient read off the annihilator
        assert _socle_quotient_type(m, sub, r) == oracles.quotient_type(m, soc), r
        assert _radical_quotient_type(m, sub, r) == oracles.quotient_type(m, rad), r


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(random_subspaces())
def test_is_invariant_agrees_with_an_elimination(case):
    m, sub = case
    b = basis(sub)
    assert sub.is_invariant() == is_subspace(oracles.shift(m, b, 1), b, m.prime)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(random_subspaces(), st.integers(0, 9))
def test_soc_layer_basis_is_already_reduced(case, ell):
    m, sub = case
    layer = soc_layer(m, sub, ell)
    # reducing the basis again changes nothing
    assert layer == Subspace(m, basis(layer)) == oracles.soc_layer_by_shift(m, sub, ell)


def _int64_bound(dim):
    """The largest p with dim * (p - 1)**2 < 2**63, the bound a module of dimension dim accepts."""
    return isqrt((2**63 - 1) // max(dim, 1)) + 1


@st.composite
def rows_at_random_primes(draw):
    """A standard module, |beta| <= 8, at a small prime or a prime at most
    2000 below its int64 bound, and up to three random generator rows in it."""
    beta = draw(st.sampled_from([b for w in range(9) for b in partitions_of(w)]))
    top = _int64_bound(weight(beta))
    p = draw(st.one_of(st.sampled_from([2, 3, 5, 7]), st.integers(top - 2000, top)))
    while not modules._is_prime(p):
        p -= 1
    m = standard_module(p, beta)
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    return m, draw(st.lists(st.lists(entry, min_size=m.dim, max_size=m.dim), max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows_at_random_primes())
def test_row_form_subspaces_agree_with_the_array_oracles(case):
    m, gens = case
    with pytest.raises(BadPrime):
        standard_module(_int64_bound(m.dim) + 1, m.parts)
    span, sub = Subspace(m, gens), submodule_span(m, gens)
    for s in (span, sub):
        # the rows are already canonical: the array entry reduces them to themselves
        assert linalg.rref(basis(s), m.prime)[0].tolist() == s.rows
        assert s.dim == basis(s).shape[0]
        assert s.is_invariant() == oracles.invariant_by_product(s)
        assert Subspace._canonical(m, s.rows) == s
    assert sub.is_invariant()
    assert (span == sub) == np.array_equal(basis(span), basis(sub))

    # every read-off of the invariant span, on rows and on the basis array
    def read_offs():
        rs = range(m.nilpotency_index + 2)
        return [_sub_type(m, sub)] + [
            f(m, sub, r) for r in rs for f in (_socle_quotient_type, _radical_quotient_type)
        ]

    on_rows = read_offs()
    with mock.patch.object(modules, "_pivot_keys", oracles.pivot_keys_by_array):
        assert read_offs() == on_rows
    assert on_rows[0] == oracles.sub_type(m, sub)
