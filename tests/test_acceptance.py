"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

from fixtures import DUAL_LR_M2, SOCLE_M2
from oracles import lattice_validator_sweep
from soctab import checks
from soctab.embeddings import (
    dual_embedding,
    load_fixture,
    lr_tableau,
    socle_tableau,
    hom_matrix,
)
from soctab.switching import check_conjecture, extract_duallr, init_switch, run_switch
from soctab.tableaux import enumerate_tableaux

CORPUS_SEED = 20260810
CORPUS_COUNT = 200


def _report(num, elapsed, detail):
    print(f"criterion {num}: PASS in {elapsed:.1f}s ({detail})")


def test_criterion_1_enumeration_counts():
    t0 = time.time()
    counts = (
        len(enumerate_tableaux((4, 2), (5, 3, 2), (3, 1), kind="socle")),
        len(enumerate_tableaux((4, 2), (5, 3, 2), (3, 1), kind="lr")),
        len(enumerate_tableaux((4, 2), (6, 4, 2), (4, 2), kind="socle")),
        len(enumerate_tableaux((4, 2), (6, 4, 2), (4, 2), kind="lr")),
    )
    elapsed = time.time() - t0
    assert counts == (2, 2, 3, 3)
    assert elapsed < 1.0
    _report(1, elapsed, "counts 2,2 and 3,3")


def test_criterion_2_count_and_bijection_laws():
    t0 = time.time()
    rep = checks.count_symmetry_sweep(12)
    elapsed = time.time() - t0
    assert rep.failures == []
    assert elapsed < 300
    _report(2, elapsed, f"{rep.cases} shape triples up to weight 12")


def test_criterion_3_realization_round_trip():
    t0 = time.time()
    rep = checks.realize_sweep(10, primes=(2, 3))
    elapsed = time.time() - t0
    assert rep.failures == []
    assert elapsed < 600
    _report(3, elapsed, f"{rep.cases} socle tableaux, primes 2 and 3")


def test_criterion_4_fixture_agreement():
    t0 = time.time()
    m1, m2, m3 = (load_fixture(n) for n in ("m1", "m2", "m3"))
    for x in (m1, m2, m3):
        assert x.shape == ((4, 2), (5, 3, 2), (3, 1))
    assert lr_tableau(m1) == lr_tableau(m2)
    assert socle_tableau(m2) == socle_tableau(m3)
    assert socle_tableau(m1) != socle_tableau(m2)
    assert lr_tableau(m2) != lr_tableau(m3)
    assert socle_tableau(m2) == SOCLE_M2
    assert lr_tableau(dual_embedding(m2)) == DUAL_LR_M2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(4, elapsed, "three bundled embeddings")


def test_criterion_5_hom_matrix_triple_agreement():
    t0 = time.time()
    rep = checks.hom_triple_sweep(
        corpus_seed=CORPUS_SEED, corpus_count=CORPUS_COUNT, max_beta_weight=10, primes=(2, 3)
    )
    elapsed = time.time() - t0
    assert rep.failures == []
    assert rep.cases >= 203
    assert elapsed < 300
    _report(5, elapsed, f"{rep.cases} embeddings, both closed forms and inverses")


def test_criterion_6_defect_formula():
    t0 = time.time()
    rep = checks.defect_sweep(
        corpus_seed=CORPUS_SEED, corpus_count=CORPUS_COUNT, max_beta_weight=10, primes=(2, 3)
    )
    elapsed = time.time() - t0
    assert rep.failures == []
    assert rep.cases >= 203
    _report(6, elapsed, f"{rep.cases} embeddings, defect = multiplicity = 4-term form")


def test_criterion_7_lattice_validator_equivalence():
    t0 = time.time()
    rep = lattice_validator_sweep(8)
    elapsed = time.time() - t0
    assert rep.failures == []
    _report(7, elapsed, f"{rep.cases} row/column-monotone fillings up to weight 8")


def test_criterion_8_switching_example():
    t0 = time.time()
    state = run_switch(init_switch(SOCLE_M2))
    assert len(state.history) == 8
    assert extract_duallr(state, (4, 2)) == DUAL_LR_M2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(8, elapsed, "8 swaps, expected terminal tableau")


def test_criterion_9_conjecture_sweep():
    t0 = time.time()
    rep = check_conjecture(9, seeds=5)
    elapsed = time.time() - t0
    assert rep.ok, rep.mismatches[:3]
    assert rep.mismatches == []
    assert elapsed < 900
    _report(
        9,
        elapsed,
        f"{rep.tableaux} tableaux, {rep.runs} runs, order-independent, 0 mismatches",
    )


def test_criterion_10_prime_independence():
    # criteria 3, 5 and 6 already run both primes and compare their integer
    # outputs; here the fixture analyses are compared directly
    t0 = time.time()
    for name in ("m1", "m2", "m3"):
        x2 = load_fixture(name, prime=2)
        x3 = load_fixture(name, prime=3)
        assert x2.shape == x3.shape
        assert socle_tableau(x2) == socle_tableau(x3)
        assert lr_tableau(x2) == lr_tableau(x3)
        assert lr_tableau(dual_embedding(x2)) == lr_tableau(dual_embedding(x3))
        assert hom_matrix(x2) == hom_matrix(x3)
    elapsed = time.time() - t0
    _report(10, elapsed, "fixture invariants agree between p=2 and p=3")
