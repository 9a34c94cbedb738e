import hashlib
import json
import math
import os
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cgcasimir import liealg, solver
from cgcasimir.grading import default_grade, enumerate_ansatz, grade_of
from cgcasimir.liealg import PRIME, accumulate, bb_count, echelon, integerize, nullspace_basis
from cgcasimir.realization import DiffOp, VarSet, realize_element, t_jet
from cgcasimir.solver import (
    CasimirReport,
    LinearSystem,
    candidate_vectors,
    casimir_conditions_system,
    element_vector,
    nullspace,
    omega_orbit_vectors,
    omega_sums,
    primitive,
    proportional,
    realization_candidate_system,
    reduce_vector,
    rref,
    solve_casimirs,
    span_contains,
    vector_element,
    verify_casimir,
)
from cgcasimir.uea import (UEAElement, commutator, from_json_dict, from_term_list, multiply, omega,
                           omega_positions)

import known_casimirs as kc

Fr = Fraction


def candidates_via_realization(alg, grade, max_degree):
    """Combinations over the graded ansatz that behave like Casimirs when
    restricted to the realisation, as a reduced-echelon basis."""
    basis = enumerate_ansatz(alg, grade, max_degree)
    return [primitive(vector_element(alg, basis, v)) for v in candidate_vectors(alg, basis)]


def orbit_columns(alg, basis, coeff=int):
    """The algebraic route's condition columns, ``omega_orbit_vectors`` as
    elements, each coefficient passed through ``coeff``."""
    return [UEAElement(alg, {basis.monomials[i]: coeff(c) for i, c in v.items()})
            for v in omega_orbit_vectors(alg, basis)]


def sys_from_rows(rows, ncols):
    return LinearSystem(
        columns=list(range(ncols)),
        matrix=[{j: Fr(v) for j, v in enumerate(row) if v} for row in rows],
    )


def test_nullspace_identity():
    assert nullspace(sys_from_rows([[1, 0], [0, 1]], 2)) == []


def test_nullspace_zero_matrix():
    basis = nullspace(sys_from_rows([[0, 0, 0]], 3))
    assert basis == [{0: Fr(1)}, {1: Fr(1)}, {2: Fr(1)}]


def test_nullspace_hand_checked():
    basis = nullspace(sys_from_rows([[1, 1, 0], [0, 1, 1]], 3))
    assert basis == [{0: Fr(1), 1: Fr(-1), 2: Fr(1)}]


def test_nullspace_kills_fraction_rows():
    rows = [[Fr(1, 2), Fr(1, 3), 0], [0, Fr(2, 7), Fr(1, 5)]]
    (vec,) = nullspace(sys_from_rows(rows, 3))
    for row in rows:
        assert sum(c * vec.get(j, 0) for j, c in enumerate(row)) == 0


def _exact_rank(matrix: list[list[Fraction]]) -> int:
    """Row rank over the rationals by plain Gaussian elimination."""
    rows = [row[:] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_nullspace_randomized_rank_nullity():
    # oracle: dense Gaussian elimination over Fraction (_exact_rank above),
    # an independent code path from the fraction-free solver
    import random

    rng = random.Random(77)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        basis = nullspace(sys_from_rows(rows, ncols))
        rank = _exact_rank([r[:] for r in rows])
        assert len(basis) == ncols - rank
        for vec in basis:
            for row in rows:
                assert sum(c * vec.get(j, 0) for j, c in enumerate(row)) == 0
        # returned vectors are linearly independent
        rrows, _ = rref(basis, ncols)
        assert len(rrows) == len(basis)


def _nullspace_smallest_tag(system):
    """Reference elimination: pivot columns leftmost first, and each pivot
    row the one with the smallest row tag."""
    ncols = len(system.columns)
    active = [(i, r) for i, r in enumerate(map(integerize, system.matrix)) if r]
    pivot_rows, pivot_cols = [], []
    for col in range(ncols):
        cands = [item for item in active if col in item[1]]
        if not cands:
            continue
        best = min(cands, key=lambda item: item[0])
        active.remove(best)
        piv = best[1]
        pv = piv[col]
        reduced = []
        for idx, r in active:
            a = r.get(col)
            if a:
                r = {c: pv * r.get(c, 0) - a * piv.get(c, 0) for c in set(r) | set(piv)}
                r = {c: x for c, x in r.items() if x}
            if r:
                reduced.append((idx, r))
        active = reduced
        pivot_rows.append({c: Fr(x, pv) for c, x in piv.items()})
        pivot_cols.append(col)
    for k in range(len(pivot_rows) - 1, -1, -1):
        for i in range(k):
            a = pivot_rows[i].get(pivot_cols[k])
            if a:
                for c, x in pivot_rows[k].items():
                    pivot_rows[i][c] = pivot_rows[i].get(c, Fr(0)) - a * x
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v = {f: Fr(1)}
        for row, col in zip(pivot_rows, pivot_cols):
            if row.get(f):
                v[col] = -row[f]
        basis.append(v)
    return basis


def _rref_incremental(vectors, ncols):
    """Reference rref: each vector is reduced by the rows so far, scaled to
    a unit pivot and then cleared out of those rows, in rationals."""
    rows, pivots = [], []
    for vec in vectors:
        cur = {i: Fr(c) for i, c in vec.items() if c}
        for row, p in zip(rows, pivots):
            a = cur.get(p)
            if a:
                accumulate(cur, ((c, -a * x) for c, x in row.items()))
        if not cur:
            continue
        p = min(cur)
        pv = cur[p]
        cur = {c: x / pv for c, x in cur.items()}
        for r in rows:
            a = r.get(p)
            if a:
                accumulate(r, ((c, -a * x) for c, x in cur.items()))
        pos = sum(1 for q in pivots if q < p)
        rows.insert(pos, cur)
        pivots.insert(pos, p)
    return rows, pivots


def _null_basis_from_rref(rows, ncols):
    """Reference nullspace read off the reduced echelon form: per free
    column f, ``{f: 1}`` plus ``{pivot column: -entry / pivot entry}`` for
    each row with an entry at f."""
    irows, pivot_cols = echelon(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v = {f: Fr(1)}
        for row, col in zip(irows, pivot_cols):
            if row.get(f):
                v[col] = Fr(-row[f], row[col])
        basis.append(v)
    return basis


def _assert_primitive_rows(rows, leads):
    """Each row is a coprime ``int`` row with no zero entry, positive at
    its lead column."""
    assert len(rows) == len(leads)
    for row, lead in zip(rows, leads):
        assert all(type(c) is int for c in row.values())
        assert integerize(row) == row and row[lead] > 0


def _assert_nullspace_matches_oracle(system):
    """``nullspace``, each vector divided by its free-column entry, equals
    both reference eliminations in values and key order; every vector is
    a primitive ``int`` row, positive at its free column."""
    basis = nullspace(system)
    unit = [{c: Fr(x, next(iter(v.values()))) for c, x in v.items()} for v in basis]
    for want in (_nullspace_smallest_tag(system),
                 _null_basis_from_rref(system.matrix, len(system.columns))):
        assert [list(v.items()) for v in unit] == [list(v.items()) for v in want]
    _assert_primitive_rows(basis, [next(iter(v)) for v in basis])
    for vec in basis:
        assert all(vec.values()) and all(j < len(system.columns) for j in vec)
        for row in system.matrix:
            assert sum(c * vec.get(j, 0) for j, c in row.items()) == 0


def test_nullspace_matches_smallest_tag_oracle_randomized():
    import random

    rng = random.Random(91)
    cases = []
    for _ in range(120):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 10)
        density = rng.choice([0.15, 0.3, 0.6])
        rows = [[rng.randint(-5, 5) if rng.random() < density else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:  # rank deficiency: append combinations
            for _ in range(rng.randint(1, 4)):
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([s * x + t * y for x, y in zip(a, b)])
        rows.append([0] * ncols)
        rng.shuffle(rows)
        cases.append((rows, ncols))
    # tall systems, the pipeline's shape: up to 5x as many rows as columns,
    # most of them combinations of a few independent ones, so echelon
    # selects its rows modulo PRIME
    for _ in range(40):
        ncols = rng.randint(2, 10)
        density = rng.choice([0.3, 0.6])
        base = [[rng.randint(-9, 9) if rng.random() < density else 0
                 for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
        rows = [row[:] for row in base]
        for _ in range(rng.randint(ncols + 1, 5 * ncols) - len(base)):
            combo = [0] * ncols
            for row in rng.sample(base, rng.randint(1, len(base))):
                s = Fr(rng.randint(-4, 4), rng.randint(1, 3))
                combo = [x + s * y for x, y in zip(combo, row)]
            rows.append(combo)
        rng.shuffle(rows)
        cases.append((rows, ncols))
    for rows, ncols in cases:
        system = sys_from_rows(rows, ncols)
        _assert_nullspace_matches_oracle(system)
        want, pivots = _rref_incremental(system.matrix, ncols)
        assert rref(system.matrix, ncols) == ([integerize(r) for r in want], pivots)


def _random_sparse_system(rng, nrows, ncols, rank, fractions):
    """``nrows`` rows over ``ncols`` columns spanning at most ``rank``
    dimensions: sparse random combinations of ``rank`` sparse rows, with
    all-zero rows among them."""
    def entry():
        return Fr(rng.randint(-6, 6), rng.randint(1, 4)) if fractions else rng.randint(-6, 6)

    base = []
    for _ in range(rank):
        cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 4)))
        base.append({c: entry() or 1 for c in cols})
    rows = []
    for _ in range(nrows):
        if not base or rng.random() < 0.1:
            rows.append({})
            continue
        row = {}
        for b in rng.sample(base, rng.randint(1, min(len(base), 3))):
            accumulate(row, ((c, (entry() or 1) * x) for c, x in b.items()))
        rows.append(row)
    return LinearSystem(columns=list(range(ncols)), matrix=rows)


def test_nullspace_matches_rref_oracles_on_random_sparse_systems():
    # tall (the transposed selection and the certificate run), square and
    # wide systems, int and Fraction entries, nullity 0 up to ncols
    rng = random.Random(2407)
    shapes = [(3, 1), (2, 1), (1, 2)]  # nrows/ncols ratios: tall, square, wide
    for _ in range(150):
        ncols = rng.randint(1, 14)
        num, den = rng.choice(shapes)
        nrows = max(1, ncols * num // den)
        rank = rng.randint(0, min(nrows, ncols))
        system = _random_sparse_system(rng, nrows, ncols, rank, rng.random() < 0.5)
        _assert_nullspace_matches_oracle(system)
    for ncols in (0, 1, 5):
        empty = LinearSystem(columns=list(range(ncols)), matrix=[])
        _assert_nullspace_matches_oracle(empty)
        assert nullspace(empty) == [{f: Fr(1)} for f in range(ncols)]
    zeros = LinearSystem(columns=[0, 1, 2], matrix=[{}, {}, {}, {}])
    _assert_nullspace_matches_oracle(zeros)


def test_echelon_falls_back_when_the_prime_hides_a_pivot(monkeypatch):
    # the first two rows differ by PRIME in one entry: modulo PRIME all three
    # rows are multiples of the first, so only it is kept, and the
    # certificate must send echelon back to eliminating every row
    rows = [{0: Fr(1), 1: Fr(1)}, {0: Fr(1), 1: Fr(1 + PRIME)}, {0: Fr(2), 1: Fr(2 + PRIME)}]
    exact_calls = []
    exact = liealg._exact_forward

    def counted(ints, ncols):
        exact_calls.append(len(ints))
        return exact(ints, ncols)

    monkeypatch.setattr(liealg, "_exact_forward", counted)
    assert echelon(rows, 2) == ([{0: Fr(1)}, {1: Fr(1)}], [0, 1])
    assert exact_calls == [1, 3]
    system = LinearSystem(columns=[0, 1], matrix=rows)
    assert nullspace(system) == _nullspace_smallest_tag(system) == []
    # a free third column, and a fourth row to keep the system tall
    rows.append({0: Fr(3), 1: Fr(3)})
    system = LinearSystem(columns=[0, 1, 2], matrix=rows)
    assert nullspace(system) == _nullspace_smallest_tag(system) == [{2: Fr(1)}]
    assert exact_calls == [1, 3, 1, 3, 1, 4]


def _record_exact_inputs(monkeypatch):
    """The row lists ``echelon`` hands to ``_exact_forward``, one per call."""
    calls = []
    exact = liealg._exact_forward

    def recorded(ints, ncols):
        calls.append(list(ints))
        return exact(ints, ncols)

    monkeypatch.setattr(liealg, "_exact_forward", recorded)
    return calls


def test_echelon_keeps_the_sparsest_rows_that_span(monkeypatch):
    # the dense rows come first and are sums of the sparse ones; picking
    # pivots row by row with ties to the earliest row would keep dense[0]
    # at column 1, where it ties with sparse[1] after column 0 is cleared
    sparse = [{0: Fr(1)}, {1: Fr(1), 2: Fr(1)}, {3: Fr(1)}]
    dense = [accumulate(dict(sparse[0]), sparse[1].items()),
             accumulate({3: Fr(2)}, sparse[1].items()),
             accumulate(accumulate(dict(sparse[0]), sparse[1].items()), sparse[2].items())]
    calls = _record_exact_inputs(monkeypatch)
    frows, pivots = echelon(dense + sparse, 4)
    assert calls == [sparse]
    assert (frows, pivots) == _rref_incremental(dense + sparse, 4)
    assert pivots == [0, 1, 3]


@pytest.mark.parametrize("d,ell,conditions", [
    (1, "7/2", False), (1, "11/2", False), (2, 2, False), (2, 3, True)])
def test_echelon_certifies_the_kept_rows_without_a_fallback(d, ell, conditions, algebra,
                                                             monkeypatch):
    # the candidate systems (and one algebraic conditions system) are tall;
    # the rows kept modulo PRIME are exactly a basis, so the exact pass
    # runs once on rank-many rows and the certificate never falls back
    alg = algebra(d, ell)
    basis = enumerate_ansatz(alg, (0, 2 * alg.spec.two_ell) if d == 1 else (0, 2, 0), 4)
    if conditions:
        system = casimir_conditions_system(alg, orbit_columns(alg, basis))
    else:
        system = realization_candidate_system(alg, basis)
    ncols = len(system.columns)
    assert len(system.matrix) > ncols
    calls = _record_exact_inputs(monkeypatch)
    _, pivots = echelon(system.matrix, ncols)
    assert [len(rows) for rows in calls] == [len(pivots)]


def test_candidate_system_refuses_more_image_terms_than_the_bound(algebra, monkeypatch):
    # the bound counts the ansatz block's entries, one per image term: that
    # many are admitted, one fewer is refused
    alg = algebra(1, "3/2")
    basis = enumerate_ansatz(alg, (0, 6), 4)
    n = len(basis.monomials)
    system = realization_candidate_system(alg, basis)
    size = sum(1 for row in system.matrix for c in row if c < n)
    monkeypatch.setattr(solver, "MAX_SYSTEM_ENTRIES", size)
    assert realization_candidate_system(alg, basis) == system
    monkeypatch.setattr(solver, "MAX_SYSTEM_ENTRIES", size - 1)
    with pytest.raises(ValueError, match=f"more than {size - 1} image terms"):
        realization_candidate_system(alg, basis)


def _full_system_nullspace(alg, basis):
    """The candidate system's nullspace, built with no jet."""
    return nullspace(realization_candidate_system(alg, basis))


def _ansatz_echelon(vectors, n):
    return rref(({i: c for i, c in v.items() if i < n} for v in vectors), n)[0]


def _record_builds(monkeypatch):
    """The ``jet`` of every candidate system ``candidate_vectors`` builds."""
    jets = []
    build = solver.realization_candidate_system

    def recorded(alg, basis, jet=None, charge=None):
        jets.append(jet)
        return build(alg, basis, jet, charge)

    monkeypatch.setattr(solver, "realization_candidate_system", recorded)
    return jets


@pytest.mark.parametrize("d,ell,grade,degree", [
    # the pipeline-quartic ladder, then its two largest former rungs
    (1, "7/2", (0, 14), 4), (1, "9/2", (0, 18), 4), (1, "11/2", (0, 22), 4),
    (2, 2, (0, 2, 0), 4), (2, 3, (0, 2, 0), 4), (1, "17/2", (0, 34), 4), (2, 5, (0, 2, 0), 4),
    # degree 2, and the grade of M at degree 4, which no default names
    (2, 3, (0, 1, 0), 2), (1, "5/2", (0, 5), 4),
    # the one target whose images carry a Fraction (C's w**2/2)
    (1, "1/2", (0, 2), 4)])
def test_jet_candidates_equal_full_system_candidates(d, ell, grade, degree, algebra,
                                                      monkeypatch):
    # the rows of t-degree <= JET have the full system's nullspace, vector
    # for vector, and candidate_vectors builds no other system
    alg = algebra(d, ell)
    basis = enumerate_ansatz(alg, grade, degree)
    full = _full_system_nullspace(alg, basis)
    assert nullspace(realization_candidate_system(alg, basis, solver.JET)) == full
    jets = _record_builds(monkeypatch)
    assert candidate_vectors(alg, basis) == _ansatz_echelon(full, len(basis.monomials))
    assert jets == [solver.JET]


def test_a_zero_jet_is_cut_to_the_full_system_candidates(algebra, monkeypatch):
    # K = 0 keeps too few rows: the jet's nullspace is larger than the
    # true one, and the residuals of its vectors cut it to the true one
    # from the one system built
    monkeypatch.setattr(solver, "JET", 0)
    jets = _record_builds(monkeypatch)
    for d, ell, grade, jet_nullity, nullity in [(1, "9/2", (0, 18), 11, 3),
                                                 (2, 2, (0, 2, 0), 17, 8)]:
        alg = algebra(d, ell)
        basis = enumerate_ansatz(alg, grade, 4)
        assert len(nullspace(realization_candidate_system(alg, basis, 0))) == jet_nullity
        full = _full_system_nullspace(alg, basis)
        assert len(full) == nullity
        jets.clear()
        assert candidate_vectors(alg, basis) == _ansatz_echelon(full, len(basis.monomials))
        assert jets == [0]


def test_a_wrong_residual_image_cuts_exactly_one_candidate(algebra, monkeypatch):
    # an image off by the identity leaves every vector that is realised, one
    # that does not commute with H, the same nonzero residual and the others
    # none, so exactly one dimension is cut, inside the true candidate space
    realize = solver.realize_element

    def off_by_one(alg, a, charge=None):
        return realize(alg, a, charge) + DiffOp.identity(VarSet.for_spec(alg.spec))

    for d, ell, grade, dim in [(1, "9/2", (0, 18), 3), (2, 2, (0, 2, 0), 8)]:
        alg = algebra(d, ell)
        basis = enumerate_ansatz(alg, grade, 4)
        n = len(basis.monomials)
        expect = candidate_vectors(alg, basis)
        assert len(expect) == dim
        with monkeypatch.context() as m:
            m.setattr(solver, "realize_element", off_by_one)
            jets = _record_builds(m)
            got = candidate_vectors(alg, basis)
        assert len(got) == dim - 1 and jets == [solver.JET]
        rows, pivots = rref(expect, n)
        assert all(span_contains(rows, pivots, v) for v in got)


def _moved(op, shift, c):
    """``c`` times ``op`` with each term's exponents raised by those of the
    packed ``shift``, built from the unpacked terms."""
    lift = op.vs.unpack(shift)[1]
    return DiffOp(op.vs, {(deriv, tuple(map(sum, zip(expo, lift)))): c * x
                          for (deriv, expo), x in op.terms.items()})


@pytest.mark.parametrize("jet", [0, 1])
@pytest.mark.parametrize("d,ell", [(1, "7/2"), (1, "9/2"), (1, "11/2"), (2, 2), (2, 3)])
def test_a_jet_vector_that_commutes_with_h_has_the_residual_its_image_gives(d, ell, jet, algebra,
                                                                           monkeypatch):
    # every jet nullspace vector whose ansatz part K commutes with H, the
    # Casimirs among them: the residual read off its auxiliary sum equals
    # the one built from K's composed image, which is the sum's t-jet
    monkeypatch.setattr(solver, "JET", jet)
    alg = algebra(d, ell)
    basis = enumerate_ansatz(alg, default_grade(alg.spec, 4), 4)
    n = len(basis.monomials)
    system = realization_candidate_system(alg, basis, jet)
    null = nullspace(system)
    parts = [vector_element(alg, basis, {i: c for i, c in v.items() if i < n}) for v in null]
    rows = {}  # word of [K, H] -> {vector: coeff}
    for j, K in enumerate(parts):
        for w, c in commutator(alg, K, alg.generator("H")).terms.items():
            rows.setdefault(w, {})[j] = c
    commuting = solver.combine(nullspace_basis(list(rows.values()), len(null)), null)
    assert len(commuting) == (2 if d == 1 else 6)
    for v in commuting:
        K = vector_element(alg, basis, {i: c for i, c in v.items() if i < n})
        aux = DiffOp(VarSet.for_spec(alg.spec))
        for ci, c in v.items():
            if ci >= n:
                aux = aux + _moved(*system.columns[ci], c)
        image = realize_element(alg, K)
        assert image == t_jet(aux, jet)
        assert solver._residual(alg, basis, system.columns, v, solver._Realised()) == image - aux


def test_only_the_jet_vectors_that_do_not_commute_with_h_are_realised(algebra, monkeypatch):
    # at d=1 ell=17/2 two of the three jet vectors, one of them 156 words
    # long, commute with H; only the third, of one word, is composed
    realize = solver.realize_element
    calls = []

    def recorded(alg, a, charge=None):
        calls.append(len(a.terms))
        return realize(alg, a, charge)

    monkeypatch.setattr(solver, "realize_element", recorded)
    alg = algebra(1, "17/2")
    basis = enumerate_ansatz(alg, (0, 34), 4)
    assert len(nullspace(realization_candidate_system(alg, basis, solver.JET))) == 3
    assert len(candidate_vectors(alg, basis)) == 3
    assert calls == [1]


def test_candidate_stage_counts_the_certificate_products(algebra, monkeypatch):
    # the bound admits the jet system's image terms, but not those plus the
    # products its vectors' residuals realise
    alg = algebra(1, "3/2")
    basis = enumerate_ansatz(alg, (0, 6), 4)
    n = len(basis.monomials)
    jet = realization_candidate_system(alg, basis, solver.JET)
    size = sum(1 for row in jet.matrix for c in row if c < n)
    monkeypatch.setattr(solver, "MAX_SYSTEM_ENTRIES", size)
    assert realization_candidate_system(alg, basis, solver.JET) == jet
    with pytest.raises(ValueError, match=f"more than {size} image terms"):
        candidate_vectors(alg, basis)


@pytest.mark.parametrize("d,ell", [(1, "7/2"), (1, "11/2"), (2, 2), (2, 3)])
def test_nullspace_matches_smallest_tag_oracle_on_solver_systems(d, ell, algebra):
    alg = algebra(d, ell)
    grade = (0, 2 * alg.spec.two_ell) if d == 1 else (0, 2, 0)
    basis = enumerate_ansatz(alg, grade, 4)
    _assert_nullspace_matches_oracle(casimir_conditions_system(alg, orbit_columns(alg, basis, Fr)))
    _assert_nullspace_matches_oracle(realization_candidate_system(alg, basis))


def _assert_span_contract(system):
    """``rref``'s rows lead at their pivots and ``nullspace``'s vectors at
    their free columns, ascending, all in the one primitive format."""
    ncols = len(system.columns)
    rows, pivots = rref(system.matrix, ncols)
    assert pivots == [min(r) for r in rows]
    _assert_primitive_rows(rows, pivots)
    basis = nullspace(system)
    free = [f for f in range(ncols) if f not in pivots]
    assert [next(iter(v)) for v in basis] == free
    _assert_primitive_rows(basis, free)


@pytest.mark.parametrize("d,ell", [(1, "7/2"), (2, 3)])
def test_spans_and_nullspaces_are_primitive_int_rows(d, ell, algebra, solved):
    # the reduced echelon form is unique, so no comparison of outputs
    # would notice a row scaled by -1; this pins the sign and the scale
    rng = random.Random(2511 + d)
    for _ in range(60):
        ncols = rng.randint(1, 12)
        nrows = rng.randint(1, 3 * ncols)
        rank = rng.randint(0, min(nrows, ncols))
        _assert_span_contract(_random_sparse_system(rng, nrows, ncols, rank, rng.random() < 0.5))
    alg = algebra(d, ell)
    grade = (0, 2 * alg.spec.two_ell) if d == 1 else (0, 2, 0)
    basis = enumerate_ansatz(alg, grade, 4)
    _assert_span_contract(realization_candidate_system(alg, basis))
    _assert_span_contract(casimir_conditions_system(alg, orbit_columns(alg, basis)))
    rep = solved(d, ell, grade, 4, "pipeline")
    for vecs in (rep.casimir_vectors, rep.candidate_vectors):
        _assert_primitive_rows(vecs, [min(v) for v in vecs])
        assert rref(vecs, len(basis.monomials)) == (vecs, [min(v) for v in vecs])


def _integerize_via_lcm(row):
    """Scale by the lcm of the denominators, then divide by the gcd."""
    den = math.lcm(*(Fr(c).denominator for c in row.values()))
    ints = {k: int(c * den) for k, c in row.items() if c}
    g = math.gcd(*ints.values())
    return {k: v // g for k, v in ints.items()}


@pytest.mark.parametrize("row", [
    {0: 6, 2: -9, 5: 12},                 # all int, common factor 3
    {0: 2, 1: Fr(1, 3), 3: Fr(-5, 6)},   # int and Fraction entries
    {0: 0, 1: 4, 2: 10},                 # a zero entry, all int
])
def test_integerize_matches_lcm_path(row):
    out = integerize(row)
    assert out == _integerize_via_lcm(row)
    assert all(type(v) is int and v for v in out.values())
    assert math.gcd(*out.values()) == 1


def test_primitive_rows_are_read_in_place():
    # a row of coprime nonzero ints is not copied, and elimination, with
    # row selection (more rows than columns) or without, leaves it as it was
    rows = [{0: 2, 1: 3}, {0: 4, 1: 6, 2: 1}, {1: 1, 2: -5}, {0: 1}]
    before = [dict(r) for r in rows]
    assert integerize(rows[0]) is rows[0]
    assert integerize({0: 2, 1: 4}) == {0: 1, 1: 2}
    assert echelon(rows, 3)[1] == [0, 1, 2]
    assert echelon(rows[:2], 3)[1] == [0, 2]
    assert rows == before


def test_rref_and_span_utilities():
    rows, pivots = rref([{0: Fr(2), 1: Fr(4)}, {0: Fr(1), 1: Fr(2)}], 2)
    assert pivots == [0]
    assert rows == [{0: Fr(1), 1: Fr(2)}]
    assert span_contains(rows, pivots, {0: Fr(3), 1: Fr(6)})
    assert not span_contains(rows, pivots, {0: Fr(1)})
    assert reduce_vector(rows, pivots, {0: Fr(1), 1: Fr(2)}) == {}
    # explicit zero entries are dropped, not kept as nonzero residue
    assert span_contains(rows, pivots, {1: Fr(0)})
    assert reduce_vector(rows, pivots, {0: Fr(0)}) == {}


def _reduce_by_fractions(rows, pivots, vec):
    """Reference: subtract each pivot's multiple of its row in Fraction
    arithmetic."""
    out = {i: Fr(c) for i, c in vec.items() if c}
    for row, p in zip(rows, pivots):
        a = out.get(p)
        if a:
            f = a / row[p]
            accumulate(out, ((c, -f * x) for c, x in row.items()))
    return out


def test_reduce_vector_matches_fraction_arithmetic():
    # echelon rows of random rational rows, reduced vectors that are
    # integral, rational, inside the span and outside it
    rng = random.Random(5)
    for _ in range(40):
        ncols = rng.randint(2, 9)
        gen = [{c: Fr(rng.randint(-5, 5), rng.randint(1, 4)) for c in rng.sample(
            range(ncols), rng.randint(1, ncols))} for _ in range(rng.randint(1, 4))]
        rows, pivots = rref(gen, ncols)
        for _ in range(5):
            vec = {c: rng.choice((rng.randint(-7, 7), Fr(rng.randint(-7, 7), rng.randint(1, 6))))
                   for c in rng.sample(range(ncols), rng.randint(0, ncols))}
            if rng.random() < 0.3:
                vec = accumulate({}, ((c, 3 * x) for r in rows for c, x in r.items()))
            got = reduce_vector(rows, pivots, vec)
            assert got == _reduce_by_fractions(rows, pivots, vec)
            assert all(type(c) is int for c in got.values() if c.denominator == 1)


def test_primitive_normalization(algebra):
    alg = algebra(1, "3/2")
    k = from_term_list(alg, kc.D1_L32_QUARTIC)
    p = primitive(k.scale(Fr(-3, 7)))
    assert p == primitive(k)
    assert all(c.denominator == 1 for c in p.terms.values())
    assert p.terms[p.leading_monomial()] > 0
    assert proportional(k, p)
    zero = UEAElement.zero(alg)
    assert primitive(zero).is_zero()
    assert proportional(zero, zero)
    assert not proportional(k, zero) and not proportional(zero, k)


def test_candidates_contain_central(algebra):
    alg = algebra(2, 1)
    cands = candidates_via_realization(alg, (0, 1, 0), 1)
    theta = UEAElement.generator(alg, alg.generator("Theta"))
    assert len(cands) == 1 and proportional(cands[0], theta)


def test_candidates_d1_contain_known(solved, algebra):
    alg = algebra(1, "3/2")
    rep = solved(1, "3/2", (0, 6), 4, "pipeline")
    basis = rep.ansatz
    rows, pivots = rref(rep.candidate_vectors, len(basis.monomials))
    for terms in (kc.D1_L32_QUARTIC, [(1, ["M", "M"])]):
        e = from_term_list(alg, terms)
        assert span_contains(rows, pivots, element_vector(basis, e))


def test_candidates_d2_l2_contain_published_pair(solved, algebra):
    alg = algebra(2, 2)
    rep = solved(2, 2, (0, 2, 0), 4, "pipeline")
    basis = rep.ansatz
    rows, pivots = rref(rep.candidate_vectors, len(basis.monomials))
    ka = from_term_list(alg, kc.D2_L2_QUARTIC_CAND_A)
    kb = from_term_list(alg, kc.D2_L2_QUARTIC_CAND_B)
    assert span_contains(rows, pivots, element_vector(basis, ka))
    assert span_contains(rows, pivots, element_vector(basis, kb))


KNOWN_TARGETS = [
    (1, "3/2", (0, 6), 4, ("d1_l3/2", "quartic")),
    (1, "5/2", (0, 10), 4, ("d1_l5/2", "quartic")),
    (2, 1, (0, 1, 0), 2, ("d2_l1", "quadratic")),
    (2, 2, (0, 1, 0), 2, ("d2_l2", "quadratic")),
    (2, 3, (0, 1, 0), 2, ("d2_l3", "quadratic")),
]


@pytest.mark.parametrize("d,ell,grade,deg,key", KNOWN_TARGETS)
def test_solve_reproduces_published_casimirs(d, ell, grade, deg, key, solved, algebra):
    alg = algebra(d, ell)
    rep = solved(d, ell, grade, deg, "pipeline")
    known = from_term_list(alg, kc.KNOWN[key])
    assert len(rep.canonical) == 1
    assert proportional(rep.canonical[0], known)


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (1, "5/2")])
def test_d1_quartic_space_includes_central_square(d, ell, solved, algebra):
    alg = algebra(d, ell)
    grade = (0, 2 * alg.spec.two_ell)
    rep = solved(d, ell, grade, 4, "pipeline")
    assert rep.casimir_dim == 2
    basis = rep.ansatz
    rows, pivots = rref(rep.casimir_vectors, len(basis.monomials))
    m2 = from_term_list(alg, [(1, ["M", "M"])])
    assert span_contains(rows, pivots, element_vector(basis, m2))


@pytest.mark.parametrize("ell,key", [(1, "d2_l1"), (2, "d2_l2")])
def test_d2_quartic_canonical_complement(ell, key, solved, algebra):
    alg = algebra(2, ell)
    rep = solved(2, ell, (0, 2, 0), 4, "pipeline")
    basis = rep.ansatz
    ncols = len(basis.monomials)
    known = from_term_list(alg, kc.KNOWN[(key, "quartic")])
    lrows, lpivots = rref([element_vector(basis, e) for e in rep.lower_products], ncols)
    reduced = vector_element(alg, basis, reduce_vector(
        lrows, lpivots, element_vector(basis, known)))
    assert len(rep.canonical) == 1
    assert proportional(reduced, rep.canonical[0])
    # the quotiented subspace is the central square, the product of the
    # central element with the quadratic Casimir, and its square
    assert len(rep.lower_products) == 3


def test_beyond_gated_range_d1(algebra):
    # larger ell is exposed, not gated; spot-check one value
    from cgcasimir import solve_casimirs

    alg = algebra(1, "11/2")
    rep = solve_casimirs(alg, (0, 22), 4, method="algebraic")
    assert rep.casimir_dim == 2 and len(rep.canonical) == 1


def test_d2_l3_quartic_display_in_canonical_complement(solved, algebra):
    # the largest published quartic, against the solved space at ell=3
    alg = algebra(2, 3)
    rep = solved(2, 3, (0, 2, 0), 4, "algebraic")
    basis = rep.ansatz
    ncols = len(basis.monomials)
    known = from_term_list(alg, kc.D2_L3_QUARTIC)
    lrows, lpivots = rref([element_vector(basis, e) for e in rep.lower_products], ncols)
    reduced = vector_element(alg, basis, reduce_vector(
        lrows, lpivots, element_vector(basis, known)))
    assert len(rep.canonical) == 1
    assert proportional(reduced, rep.canonical[0])


def test_d2_l3_quartic_path_agreement(solved):
    rp = solved(2, 3, (0, 2, 0), 4, "pipeline")
    ra = solved(2, 3, (0, 2, 0), 4, "algebraic")
    assert rp.casimir_vectors == ra.casimir_vectors
    assert rp.candidate_dim > rp.casimir_dim


def test_d2_l2_candidate_span_strictly_larger(solved, algebra):
    alg = algebra(2, 2)
    rep = solved(2, 2, (0, 2, 0), 4, "pipeline")
    assert rep.candidate_dim > rep.casimir_dim
    basis = rep.ansatz
    crows, cpivots = rref(rep.casimir_vectors, len(basis.monomials))
    ka = from_term_list(alg, kc.D2_L2_QUARTIC_CAND_A)
    kb = from_term_list(alg, kc.D2_L2_QUARTIC_CAND_B)
    assert not span_contains(crows, cpivots, element_vector(basis, ka))
    assert not span_contains(crows, cpivots, element_vector(basis, kb))
    assert span_contains(crows, cpivots, element_vector(basis, ka - kb))
    assert (ka - kb) == from_term_list(alg, kc.D2_L2_QUARTIC)


PATH_TARGETS = [
    (1, "3/2", (0, 6), 4),
    (1, "5/2", (0, 10), 4),
    (2, 1, (0, 1, 0), 2),
    (2, 2, (0, 1, 0), 2),
    (2, 3, (0, 1, 0), 2),
    (2, 1, (0, 2, 0), 4),
    (2, 2, (0, 2, 0), 4),
    (1, "1/2", (0, 2), 4),
]


@pytest.mark.parametrize("d,ell,grade,deg", PATH_TARGETS)
def test_path_agreement(d, ell, grade, deg, solved):
    rp = solved(d, ell, grade, deg, "pipeline")
    ra = solved(d, ell, grade, deg, "algebraic")
    assert rp.casimir_vectors == ra.casimir_vectors
    assert [e.terms for e in rp.canonical] == [e.terms for e in ra.canonical]
    assert ra.candidate_dim is None and rp.candidate_dim is not None


@pytest.mark.parametrize("d,ell,grade,deg", PATH_TARGETS)
def test_casimir_span_inside_candidate_span(d, ell, grade, deg, solved):
    rep = solved(d, ell, grade, deg, "pipeline")
    ncols = len(rep.ansatz.monomials)
    for vec in rep.candidate_vectors + rep.casimir_vectors:
        assert all(vec.values()) and all(j < ncols for j in vec)
    rows, pivots = rref(rep.candidate_vectors, ncols)
    for vec in rep.casimir_vectors:
        assert span_contains(rows, pivots, vec)


@pytest.mark.parametrize("d,ell,grade,deg", PATH_TARGETS)
def test_full_verification_of_solved_bases(d, ell, grade, deg, solved, algebra):
    # every element satisfying the reduced conditions commutes with the
    # whole algebra, not just the checked subset
    alg = algebra(d, ell)
    rep = solved(d, ell, grade, deg, "pipeline")
    for e in rep.casimir_basis:
        assert verify_casimir(alg, e) is None


def test_verify_casimir_examples(solved, algebra):
    alg = algebra(2, 2)
    ka = from_term_list(alg, kc.D2_L2_QUARTIC_CAND_A)
    bad = verify_casimir(alg, ka)
    assert bad is not None
    gen, residual = bad
    assert not residual.is_zero()
    assert gen.name in {g.name for g in alg.basis}
    theta = UEAElement.generator(alg, alg.generator("Theta"))
    assert verify_casimir(alg, theta) is None
    assert verify_casimir(alg, from_term_list(alg, kc.D2_L2_QUARTIC)) is None


def test_verify_casimir_stops_at_the_first_failing_generator(algebra, monkeypatch):
    # the generators before the reported one commute with the element, and
    # none after it is tried
    alg = algebra(2, 2)
    ka = from_term_list(alg, kc.D2_L2_QUARTIC_CAND_A)
    tried = []

    def counted(alg, a, x):
        tried.append(x)
        return commutator(alg, a, x)

    monkeypatch.setattr(solver, "commutator", counted)
    gen, residual = verify_casimir(alg, ka)
    k = alg.basis.index(gen)
    assert tried == list(alg.basis[:k + 1])
    assert all(commutator(alg, ka, g).is_zero() for g in alg.basis[:k])
    assert residual == commutator(alg, ka, gen) and not residual.is_zero()


def _omega_fixed_oracle(alg, basis):
    """Echelon basis of the nullspace of omega(K) = K over unit monomial
    columns, one row per monomial, and the number of monomials whose
    letters omega maps onto the same sorted word."""
    n = len(basis.monomials)
    rows = {}
    for i, m in enumerate(basis.monomials):
        e = UEAElement(alg, {m: 1})
        for m2, c in (omega(alg, e) - e).terms.items():
            rows.setdefault(m2, {})[i] = c
    img = omega_positions(alg)
    fixed = sum(tuple(sorted(img[p] for p in m)) == m for m in basis.monomials)
    return rref(nullspace_basis(list(rows.values()), n), n)[0], fixed


def _assert_orbit_vectors_span_the_fixed_space(alg, basis):
    vecs = omega_orbit_vectors(alg, basis)
    want, fixed = _omega_fixed_oracle(alg, basis)
    n = len(basis.monomials)
    assert len(vecs) == (n + fixed) // 2 == len(want)
    assert rref(vecs, n)[0] == want


@pytest.mark.parametrize("d,ell", [(1, "7/2"), (1, "9/2"), (1, "11/2"), (1, "13/2"),
                                   (1, "15/2"), (1, "17/2"), (2, 2), (2, 3), (2, 4), (2, 5)])
def test_omega_orbit_vectors_span_the_omega_fixed_space(d, ell, algebra):
    # one vector per sigma-orbit, (N + #sigma-fixed) / 2 of them, spanning
    # exactly what the omega rows over unit columns leave
    alg = algebra(d, ell)
    basis = enumerate_ansatz(alg, default_grade(alg.spec, 4), 4)
    _assert_orbit_vectors_span_the_fixed_space(alg, basis)


def test_omega_orbit_vectors_keep_the_lower_words_of_omega(algebra):
    # at d=2 ell=2 grade (0, 1, 0) some omega images have a second, shorter
    # word, which a vector built from sigma(m) alone would drop
    alg = algebra(2, 2)
    basis = enumerate_ansatz(alg, (0, 1, 0), 4)
    images = [omega(alg, UEAElement(alg, {m: 1})) for m in basis.monomials]
    assert len(basis.monomials) == 78
    assert sum(len(e.terms) == 2 for e in images) == 4
    assert all(len(e.terms) <= 2 for e in images)
    _assert_orbit_vectors_span_the_fixed_space(alg, basis)


def test_omega_sums_of_a_spanning_set_span_its_omega_fixed_part(algebra):
    # the sums of all the unit vectors span what omega fixes in the ansatz,
    # a fixed vector comes back doubled, and at a grade omega moves there
    # are no sums
    alg = algebra(2, 2)
    basis = enumerate_ansatz(alg, (0, 1, 0), 4)
    n = len(basis.monomials)
    sums = omega_sums(alg, basis, [{i: 1} for i in range(n)])
    assert len(sums) == n
    assert rref(sums, n)[0] == _omega_fixed_oracle(alg, basis)[0]
    fixed = omega_orbit_vectors(alg, basis)
    assert omega_sums(alg, basis, fixed) == [{i: 2 * c for i, c in v.items()} for v in fixed]
    alg = algebra(1, "5/2")
    basis = enumerate_ansatz(alg, (2, 4), 4)
    assert omega_sums(alg, basis, [{0: 1}]) == []


def test_a_grade_omega_moves_has_no_omega_fixed_columns(algebra, solved):
    # omega maps grade (2, 4) at d=1 ell=5/2 to (-2, 6): no combination
    # there is omega-fixed, so both routes find no Casimir
    alg = algebra(1, "5/2")
    basis = enumerate_ansatz(alg, (2, 4), 4)
    assert basis.monomials and omega_orbit_vectors(alg, basis) == []
    assert _omega_fixed_oracle(alg, basis)[0] == []
    for method in ("pipeline", "algebraic"):
        assert solved(1, "5/2", (2, 4), 4, method).casimir_dim == 0


def test_the_pipeline_omega_step_drops_a_candidate_omega_moves(algebra, monkeypatch):
    # 2*M*H + P0*P2 - P1^2 at d=1 ell=3/2 commutes with H and P3 but not
    # with D, and omega moves its grade, (2, 2).  No natural input has a
    # candidate that omega moves, so it is patched in as the one candidate:
    # it leaves no omega-sum, so nothing is solved, and passed on without
    # the omega step it meets the reduced conditions and the exhaustive
    # check refuses it
    alg = algebra(1, "3/2")
    grade = (2, 2)
    k = from_term_list(alg, [(2, ["M", "H"]), (1, ["P0", "P2"]), (-1, ["P1", "P1"])])
    basis = enumerate_ansatz(alg, grade, 4)
    vec = element_vector(basis, k)
    assert omega_sums(alg, basis, [vec]) == []
    assert all(commutator(alg, k, g).is_zero() for g in solver.reduced_check_generators(alg))
    monkeypatch.setattr(solver, "candidate_vectors", lambda alg, basis: [vec])
    assert solve_casimirs(alg, grade, 4).casimir_dim == 0
    monkeypatch.setattr(solver, "omega_sums", lambda alg, basis, vecs: vecs)
    with pytest.raises(solver.ReducedCheckError, match="residual against D is "):
        solve_casimirs(alg, grade, 4)


def _refusal(alg, method, monkeypatch):
    """The message a solve with no reduced commutator conditions raises,
    with the generator and the whole residual of the exhaustive check's
    first failure."""
    checked = []
    real = solver.commutators

    def recorded(alg, elements, gens):
        for residuals in real(alg, elements, gens):
            checked.extend(zip(gens, residuals))
            yield residuals

    monkeypatch.setattr(solver, "reduced_check_generators", lambda alg: [])
    monkeypatch.setattr(solver, "commutators", recorded)
    with pytest.raises(solver.ReducedCheckError) as info:
        solver.solve_casimirs(alg, default_grade(alg.spec, 4), 4, method=method)
    g, res = next((g, r) for g, r in checked if not r.is_zero())
    return str(info.value), g, res


def _assert_bounded_residual(message, g, res):
    # the message names the generator and prints the residual's first five
    # terms as the whole residual prints them, then counts the rest
    prefix = f"reduced conditions accepted a non-Casimir: residual against {g.name} is "
    assert message.startswith(prefix)
    shown = message[len(prefix):]
    n = len(res.terms)
    if n <= 5:
        assert shown == str(res)
        return
    head, more = shown.rsplit(" and ", 1)
    assert more == f"{n - 5} more terms"
    assert len(re.split(" [+-] ", head)) == 5
    assert str(res).startswith(head + " ")


@pytest.mark.parametrize("d,ell", [(1, "5/2"), (2, 2)])
def test_exhaustive_check_refuses_what_weaker_conditions_admit(d, ell, algebra, monkeypatch):
    # with no reduced commutator conditions, omega-symmetry alone admits
    # non-Casimirs, and the check against every generator must refuse them
    message, g, res = _refusal(algebra(d, ell), "algebraic", monkeypatch)
    assert message.startswith(
        "reduced conditions accepted a non-Casimir: residual against H ")
    _assert_bounded_residual(message, g, res)


def test_a_long_residual_is_cut_to_its_first_five_terms(algebra, monkeypatch):
    # the pipeline's first refused element at d=2 ell=3 leaves eight terms
    # against Q0
    message, g, res = _refusal(algebra(2, 3), "pipeline", monkeypatch)
    assert g.name == "Q0" and len(res.terms) == 8
    assert message.endswith(" and 3 more terms")
    _assert_bounded_residual(message, g, res)


def _grades(alg, degree):
    """Every grade that a word of at most ``degree`` letters reaches."""
    return sorted({grade_of(alg, w) for k in range(degree + 1)
                   for w in combinations_with_replacement(range(alg.dim), k)})


@pytest.mark.parametrize("d,ell,grade", [(1, "17/2", (0, 34)), (2, 5, (0, 2, 0))])
def test_routes_agree_at_the_largest_ladder_points(d, ell, grade, solved):
    # the solves the golden digests make, compared across the routes
    a, b = (solved(d, ell, grade, 4, m) for m in ("pipeline", "algebraic"))
    assert a.casimir_vectors == b.casimir_vectors
    assert a.canonical == b.canonical


@pytest.mark.parametrize("d,ell,degree,count", [
    (1, "1/2", 4, 45), (1, "3/2", 4, 77), (1, "5/2", 4, 109), (2, 1, 4, 185), (2, 2, 3, 148)])
def test_routes_agree_at_every_grade(d, ell, degree, count, algebra):
    # both routes take their columns from omega_sums, over the candidates
    # or over one monomial per orbit; at every grade, the ones omega moves
    # included, they must find the same space and canonical basis
    alg = algebra(d, ell)
    grades = _grades(alg, degree)
    assert len(grades) == count
    for grade in grades:
        a, b = (solve_casimirs(alg, grade, degree, method=m) for m in ("pipeline", "algebraic"))
        assert a.casimir_vectors == b.casimir_vectors, grade
        assert a.canonical == b.canonical, grade


@pytest.mark.parametrize("method", ["pipeline", "algebraic"])
@pytest.mark.parametrize("d,ell,grade,degree", [(1, "3/2", (0, 0), 4), (2, 1, (0, 0, 0), 3)])
def test_the_constant_is_not_a_canonical_casimir(d, ell, grade, degree, method, algebra):
    # 1 is central, so the zero grade's space holds it; it is also the empty
    # product of lower Casimirs, so the canonical basis does not
    alg = algebra(d, ell)
    report = solve_casimirs(alg, grade, degree, method=method)
    assert report.casimir_basis == [UEAElement.one(alg)]
    assert report.lower_products == [UEAElement.one(alg)]
    assert report.canonical == []


def test_count_consistency_with_bb(solved, algebra):
    # canonical Casimirs across the default targets, plus the central
    # generator, match the structure-matrix count
    for d, ells, targets in [
        (1, ["3/2", "5/2"], [((0, None), 4)]),
        (2, [1, 2], [((0, 1, 0), 2), ((0, 2, 0), 4)]),
    ]:
        for ell in ells:
            alg = algebra(d, ell)
            total = 1  # central generator
            if d == 1:
                grades = [((0, 2 * alg.spec.two_ell), 4)]
            else:
                grades = targets
            for grade, deg in grades:
                total += len(solved(d, ell, grade, deg, "pipeline").canonical)
            assert total == bb_count(alg)


def test_products_of_casimirs_are_casimirs(solved, algebra):
    alg = algebra(2, 1)
    k2 = solved(2, 1, (0, 1, 0), 2, "pipeline").canonical[0]
    theta = UEAElement.generator(alg, alg.generator("Theta"))
    assert verify_casimir(alg, multiply(alg, k2, theta)) is None
    assert verify_casimir(alg, multiply(alg, k2, k2)) is None
    alg1 = algebra(1, "3/2")
    k4 = solved(1, "3/2", (0, 6), 4, "pipeline").canonical[0]
    m = UEAElement.generator(alg1, alg1.generator("M"))
    assert verify_casimir(alg1, multiply(alg1, k4, m)) is None


def test_report_json_schema(solved, algebra):
    rep = solved(2, 1, (0, 1, 0), 2, "pipeline")
    data = rep.to_json_dict()
    assert set(data) == {"spec", "grade", "max_degree", "canonical", "candidate_dim",
                         "casimir_dim", "verified", "provenance"}
    assert data["spec"] == {"d": 2, "ell": "1"}
    assert data["grade"] == [0, 1, 0]
    assert data["verified"] is True
    assert data["provenance"] == "pipeline"
    alg = algebra(2, 1)
    parsed = [from_json_dict(alg, entry) for entry in data["canonical"]]
    assert parsed == rep.canonical


GOLDEN_TARGETS = [
    (1, "3/2", (0, 6), 4),
    (1, "5/2", (0, 10), 4),
    (2, 1, (0, 1, 0), 2),
    (2, 2, (0, 1, 0), 2),
    (2, 3, (0, 1, 0), 2),
    (2, 1, (0, 2, 0), 4),
    (2, 2, (0, 2, 0), 4),
    (2, 3, (0, 2, 0), 4),
    (1, "11/2", (0, 22), 4),
    (1, "17/2", (0, 34), 4),
    (2, 4, (0, 2, 0), 4),
    (2, 5, (0, 2, 0), 4),
]


def test_solve_artifacts_match_golden_digests(solved):
    # the exact bytes `cgcasimir solve --out` writes, frozen per target and method
    path = os.path.join(os.path.dirname(__file__), "fixtures", "solve_golden_sha256.json")
    with open(path) as fh:
        golden = json.load(fh)
    seen = {}
    for d, ell, grade, deg in GOLDEN_TARGETS:
        for method in ("pipeline", "algebraic"):
            rep = solved(d, ell, grade, deg, method)
            artifact = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n"
            which = "quadratic" if deg == 2 else "quartic"
            key = f"d{d}_ell_{str(ell).replace('/', '_')}_{which}_{method}"
            seen[key] = hashlib.sha256(artifact.encode()).hexdigest()
    assert seen == golden


def test_element_vector_rejects_off_ansatz(solved, algebra):
    alg = algebra(2, 1)
    rep = solved(2, 1, (0, 1, 0), 2, "pipeline")
    with pytest.raises(ValueError):
        element_vector(rep.ansatz, UEAElement.generator(alg, alg.generator("H")))


def test_solve_rejects_unknown_method(algebra):
    from cgcasimir import solve_casimirs
    with pytest.raises(ValueError):
        solve_casimirs(algebra(2, 1), (0, 1, 0), 2, method="guess")
