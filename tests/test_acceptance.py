"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact arithmetic; every equality below is literal (tolerance
zero).  Stated runtime budgets are asserted with ``time.monotonic``.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from cgcasimir import (
    bb_count,
    jacobi_check,
    make_cga,
    parse_spec,
    solve_casimirs,
    verify_casimir,
    verify_realization,
)
from cgcasimir.solver import (
    element_vector,
    proportional,
    reduce_vector,
    rref,
    span_contains,
    vector_element,
)
from cgcasimir.theorems import theorem_report
from cgcasimir.uea import UEAElement, commutator, from_term_list, multiply, omega

import known_casimirs as kc

D1_SPECS = ["3/2", "5/2", "7/2", "9/2"]
D2_SPECS = [1, 2, 3]


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_structure_soundness(algebra):
    t0 = time.monotonic()
    for ell in D1_SPECS:
        assert jacobi_check(algebra(1, ell)) is None
    for ell in D2_SPECS:
        assert jacobi_check(algebra(2, ell)) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"Jacobi identity exact on all 7 specs in {elapsed:.2f}s")


def test_criterion_2_invariant_counts(algebra):
    t0 = time.monotonic()
    for ell in D1_SPECS:
        assert bb_count(algebra(1, ell)) == 2
    for ell in D2_SPECS:
        assert bb_count(algebra(2, ell)) == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(2, f"counts 2 (d=1) and 3 (d=2) on all specs in {elapsed:.2f}s")


def test_criterion_3_realization_fidelity(algebra):
    t0 = time.monotonic()
    for d, ells in [(1, ["3/2", "5/2"]), (2, D2_SPECS)]:
        for ell in ells:
            assert verify_realization(algebra(d, ell)) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"all generator pairs match the bracket table exactly in {elapsed:.2f}s")


def test_criterion_4_known_answers_d1(algebra):
    details = []
    for ell, key in [("3/2", "d1_l3/2"), ("5/2", "d1_l5/2")]:
        alg = algebra(1, ell)
        grade = (0, 2 * alg.spec.two_ell)
        t0 = time.monotonic()
        rep = solve_casimirs(alg, grade, 4, method="pipeline")
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        known = from_term_list(alg, kc.KNOWN[(key, "quartic")])
        assert rep.casimir_dim == 2
        rows, pivots = rref(rep.casimir_vectors, len(rep.ansatz.monomials))
        m2 = from_term_list(alg, [(1, ["M", "M"])])
        assert span_contains(rows, pivots, element_vector(rep.ansatz, m2))
        assert len(rep.canonical) == 1
        assert proportional(rep.canonical[0], known)
        details.append(f"ell={ell} in {elapsed:.2f}s")
    _report(4, "quartic canonical representatives match the published "
               f"closed forms up to scale ({', '.join(details)})")


def test_criterion_5_known_answers_d2_quadratic(algebra):
    t0 = time.monotonic()
    for ell, key in [(1, "d2_l1"), (2, "d2_l2"), (3, "d2_l3")]:
        alg = algebra(2, ell)
        rep = solve_casimirs(alg, (0, 1, 0), 2, method="pipeline")
        known = from_term_list(alg, kc.KNOWN[(key, "quadratic")])
        assert len(rep.canonical) == 1
        assert proportional(rep.canonical[0], known)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(5, f"quadratic Casimirs reproduced for ell=1,2,3 in {elapsed:.2f}s")


def test_criterion_6_known_answers_d2_quartic(algebra):
    t0 = time.monotonic()
    reps = {}
    for ell, key in [(1, "d2_l1"), (2, "d2_l2")]:
        alg = algebra(2, ell)
        rep = solve_casimirs(alg, (0, 2, 0), 4, method="pipeline")
        reps[ell] = rep
        known = from_term_list(alg, kc.KNOWN[(key, "quartic")])
        ncols = len(rep.ansatz.monomials)
        lrows, lpivots = rref([element_vector(rep.ansatz, e) for e in rep.lower_products],
                              ncols)
        reduced = vector_element(alg, rep.ansatz, reduce_vector(
            lrows, lpivots, element_vector(rep.ansatz, known)))
        assert len(rep.canonical) == 1
        assert proportional(reduced, rep.canonical[0])
    # ell=2: candidates strictly contain the Casimir span, and the
    # difference of the two published candidates is a Casimir
    alg = algebra(2, 2)
    rep = reps[2]
    assert rep.candidate_dim > rep.casimir_dim
    ncols = len(rep.ansatz.monomials)
    crows, cpivots = rref(rep.casimir_vectors, ncols)
    ka = from_term_list(alg, kc.D2_L2_QUARTIC_CAND_A)
    kb = from_term_list(alg, kc.D2_L2_QUARTIC_CAND_B)
    cdrows, cdpivots = rref(rep.candidate_vectors, ncols)
    assert span_contains(cdrows, cdpivots, element_vector(rep.ansatz, ka))
    assert span_contains(cdrows, cdpivots, element_vector(rep.ansatz, kb))
    assert not span_contains(crows, cpivots, element_vector(rep.ansatz, ka))
    assert span_contains(crows, cpivots, element_vector(rep.ansatz, ka - kb))
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(6, "quartic canonical complements match; candidate span strictly "
               f"larger at ell=2 with the published difference inside ({elapsed:.2f}s)")


SOLVED_TARGETS = [
    (1, "3/2", (0, 6), 4),
    (1, "5/2", (0, 10), 4),
    (1, "7/2", (0, 14), 4),
    (2, 1, (0, 1, 0), 2),
    (2, 2, (0, 1, 0), 2),
    (2, 3, (0, 1, 0), 2),
    (2, 1, (0, 2, 0), 4),
    (2, 2, (0, 2, 0), 4),
    (2, 3, (0, 2, 0), 4),
]


def test_criterion_7_reduced_conditions_suffice(solved, algebra):
    checked = 0
    for d, ell, grade, deg in SOLVED_TARGETS:
        alg = algebra(d, ell)
        rep = solved(d, ell, grade, deg, "algebraic")
        for e in rep.casimir_basis:
            assert verify_casimir(alg, e) is None
            checked += 1
    _report(7, f"all {checked} reduced-condition solutions commute with every "
               "generator (zero counterexamples)")


def _random_element(alg, rng, max_terms=2, max_degree=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        word = sorted(rng.randrange(alg.dim) for _ in range(deg))
        terms[tuple(word)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return UEAElement(alg, terms)


def test_criterion_8_antiautomorphism_suite(algebra):
    from cgcasimir.uea import omega_positions

    for d, ell in [(1, "3/2"), (1, "5/2"), (1, "7/2"), (2, 1), (2, 2), (2, 3)]:
        alg = algebra(d, ell)
        rng = random.Random(2024)
        for _ in range(1000):
            a = _random_element(alg, rng)
            b = _random_element(alg, rng)
            assert omega(alg, multiply(alg, a, b)) == multiply(
                alg, omega(alg, b), omega(alg, a))
            assert omega(alg, omega(alg, a)) == a
        # bracket reversal: omega([x, y]) = [omega(y), omega(x)]
        img = omega_positions(alg)
        for x in alg.basis:
            for y in alg.basis:
                lhs = omega(alg, commutator(alg, UEAElement.generator(alg, x), y))
                wy = alg.basis[img[alg.position(y)]]
                rhs = commutator(alg, UEAElement.generator(alg, wy),
                                 img[alg.position(x)])
                assert lhs == rhs
    _report(8, "anti-automorphism, involution and bracket reversal exact on "
               "1000 randomized elements per algebra (6 algebras)")


def test_criterion_9_theorem_builders(algebra):
    outcomes = []
    for d, ell, which in [(2, 1, "quadratic"), (2, 2, "quadratic"), (2, 3, "quadratic"),
                          (2, 3, "quartic"), (1, "5/2", "quartic"), (1, "7/2", "quartic")]:
        alg = algebra(d, ell)
        tr = theorem_report(alg.spec, which)
        if tr.verified:
            outcomes.append(f"d={d} ell={ell} {which}: verified as printed")
        else:
            assert tr.discrepancies, "failing closed form must localize coefficients"
            for disc in tr.discrepancies:
                assert disc.term
                assert disc.closed_form != disc.solver
            assert tr.corrected is not None
            assert verify_casimir(alg, tr.corrected) is None
            outcomes.append(
                f"d={d} ell={ell} {which}: {len(tr.discrepancies)} coefficient(s) "
                "corrected, corrected element verifies")
    assert any("verified as printed" in o for o in outcomes)
    _report(9, "; ".join(outcomes))


def test_criterion_10_path_agreement(solved):
    targets = [
        (1, "3/2", (0, 6), 4),
        (1, "5/2", (0, 10), 4),
        (2, 1, (0, 1, 0), 2),
        (2, 2, (0, 1, 0), 2),
        (2, 3, (0, 1, 0), 2),
        (2, 1, (0, 2, 0), 4),
        (2, 2, (0, 2, 0), 4),
    ]
    for d, ell, grade, deg in targets:
        rp = solved(d, ell, grade, deg, "pipeline")
        ra = solved(d, ell, grade, deg, "algebraic")
        assert rp.casimir_vectors == ra.casimir_vectors
        assert [e.terms for e in rp.canonical] == [e.terms for e in ra.canonical]
    _report(10, f"pipeline and algebraic spans identical on {len(targets)} targets")
