import random
from fractions import Fraction

import pytest

from cgcasimir import liealg
from cgcasimir.liealg import (
    AlgebraSpec,
    GeneratorId,
    InvalidSpecError,
    LieAlgebra,
    bb_count,
    bracket,
    central_pairing,
    jacobi_check,
    make_cga,
    parse_spec,
)

D1_ELLS = ["1/2", "3/2", "5/2", "7/2", "9/2"]
D2_ELLS = [1, 2, 3]


def test_spec_validation():
    assert parse_spec(1, "3/2").two_ell == 3
    assert parse_spec(2, "2").ell == 2
    with pytest.raises(InvalidSpecError):
        parse_spec(1, 2)  # integer ell has no central extension at d=1
    with pytest.raises(InvalidSpecError):
        parse_spec(2, "3/2")  # exotic extension needs integer ell
    with pytest.raises(InvalidSpecError):
        parse_spec(3, 1)
    with pytest.raises(InvalidSpecError):
        parse_spec(1, "-3/2")
    with pytest.raises(InvalidSpecError):
        parse_spec(1, "nonsense")


def test_spec_dimension_bound_is_inclusive():
    # specs only: the largest admitted algebra takes seconds to build
    assert parse_spec(1, "4091/2").dim == liealg.MAX_DIM
    assert parse_spec(2, 1022).dim == liealg.MAX_DIM - 1
    for d, ell in [(1, "4093/2"), (2, 1023)]:
        with pytest.raises(InvalidSpecError, match=str(liealg.MAX_DIM)):
            parse_spec(d, ell)


@pytest.mark.parametrize("d,ells", [(1, D1_ELLS), (2, D2_ELLS)])
def test_dimension_formula(d, ells, algebra):
    for ell in ells:
        alg = algebra(d, ell)
        two_ell = alg.spec.two_ell
        assert alg.dim == d * two_ell + d * (d + 1) // 2 + 4
        assert len(set(alg.positions.values())) == alg.dim


def test_generator_ordering_d1(algebra):
    alg = algebra(1, "3/2")
    assert [g.name for g in alg.basis] == ["M", "P0", "H", "P1", "D", "P2", "C", "P3"]
    with pytest.raises(KeyError, match="no generator named 'Nope' in this algebra"):
        alg.generator("Nope")
    alg = algebra(1, "5/2")
    assert [g.name for g in alg.basis] == [
        "M", "P0", "P1", "H", "P2", "D", "P3", "C", "P4", "P5"]


def test_generator_ordering_d2(algebra):
    alg = algebra(2, 1)
    assert [g.name for g in alg.basis] == [
        "Theta", "Q0", "P0", "H", "D", "J", "Q1", "P1", "C", "Q2", "P2"]


def _vec(alg, combo):
    return {alg.position(alg.generator(n)): Fraction(c) for n, c in combo.items()}


def test_bracket_table_d1(algebra):
    alg = algebra(1, "3/2")
    g = alg.generator
    assert bracket(alg, g("D"), g("H")) == _vec(alg, {"H": 2})
    assert bracket(alg, g("D"), g("C")) == _vec(alg, {"C": -2})
    assert bracket(alg, g("C"), g("H")) == _vec(alg, {"D": 1})
    assert bracket(alg, g("H"), g("C")) == _vec(alg, {"D": -1})
    assert bracket(alg, g("H"), g("H")) == {}
    # I_0 = (-1)^(0+2) * 3! * 0! = 6
    assert bracket(alg, g("P0"), g("P3")) == _vec(alg, {"M": 6})
    assert bracket(alg, g("P1"), g("P2")) == _vec(alg, {"M": -2})
    for m in (-1, 4):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            central_pairing(alg.spec, m)


def test_bracket_table_d1_52(algebra):
    alg = algebra(1, "5/2")
    g = alg.generator
    assert bracket(alg, g("C"), g("P1")) == _vec(alg, {"P2": 4})
    assert bracket(alg, g("H"), g("P1")) == _vec(alg, {"P0": -1})
    assert bracket(alg, g("D"), g("P1")) == _vec(alg, {"P1": 3})
    assert bracket(alg, g("C"), g("P5")) == {}


def test_bracket_table_d2(algebra):
    alg = algebra(2, 1)
    g = alg.generator
    assert bracket(alg, g("J"), g("Q1")) == _vec(alg, {"Q1": 1})
    assert bracket(alg, g("J"), g("P1")) == _vec(alg, {"P1": -1})
    # I_0 = 2!0! = 2, I_1 = -1, I_2 = 2
    assert bracket(alg, g("Q0"), g("P2")) == _vec(alg, {"Theta": 2})
    assert bracket(alg, g("Q1"), g("P1")) == _vec(alg, {"Theta": -1})
    assert bracket(alg, g("P0"), g("Q2")) == _vec(alg, {"Theta": -2})
    assert bracket(alg, g("Q0"), g("Q2")) == {}
    assert bracket(alg, g("P0"), g("P2")) == {}


def test_antisymmetry_everywhere(algebra):
    for d, ell in [(1, "3/2"), (1, "5/2"), (2, 1), (2, 2)]:
        alg = algebra(d, ell)
        for x in alg.basis:
            for y in alg.basis:
                xy = bracket(alg, x, y)
                yx = bracket(alg, y, x)
                assert xy == {k: -c for k, c in yx.items()}


@pytest.mark.parametrize("d,ell", [(1, "1/2"), (1, "7/2"), (2, 1), (2, 3)])
def test_pair_table_is_antisymmetric_term_for_term(d, ell, algebra):
    # uea._place reads [x, j] for both of its moves and negates it for [j, x]
    table = algebra(d, ell).pair_table
    for x, row in enumerate(table):
        assert row[x] == ()
        for j, terms in enumerate(row):
            assert table[j][x] == tuple((u, -c) for u, c in terms)


def test_central_element_commutes(algebra):
    for d, ell in [(1, "3/2"), (1, "7/2"), (2, 1), (2, 3)]:
        alg = algebra(d, ell)
        z = alg.basis[alg.central_position()]
        for y in alg.basis:
            assert bracket(alg, z, y) == {}


@pytest.mark.parametrize("d,ell", [(1, "1/2"), (1, "3/2"), (1, "5/2"), (1, "7/2"),
                                   (1, "9/2"), (2, 1), (2, 2), (2, 3)])
def test_jacobi_factories(d, ell, algebra):
    assert jacobi_check(algebra(d, ell)) is None


def test_jacobi_detects_injected_fault(algebra):
    alg = algebra(1, "3/2")
    broken = {k: dict(v) for k, v in alg.brackets.items()}
    i, j = alg.position(alg.generator("H")), alg.position(alg.generator("D"))
    key = (min(i, j), max(i, j))
    broken[key] = {k: -c for k, c in broken[key].items()}
    bad = LieAlgebra(alg.spec, alg.basis, broken)
    failing = jacobi_check(bad)
    assert failing is not None
    names = {g.name for g in failing}
    assert names & {"D", "H"}
    # a bracket keyed (j, i) or (i, i) is refused, not stored
    for key in [(max(i, j), min(i, j)), (i, i)]:
        with pytest.raises(ValueError, match=r"must satisfy i < j"):
            LieAlgebra(alg.spec, alg.basis, {key: {i: 1}})


@pytest.mark.parametrize("d,ell,count", [(1, "3/2", 2), (1, "5/2", 2), (1, "7/2", 2),
                                         (1, "9/2", 2), (2, 1, 3), (2, 2, 3), (2, 3, 3)])
def test_bb_count(d, ell, count, algebra):
    assert bb_count(algebra(d, ell)) == count


def _integer_rank(matrix: list[list[int]]) -> int:
    """Row rank over the rationals by fraction-free (Bareiss) elimination
    of a dense integer matrix."""
    rows = [row[:] for row in matrix]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [(pv * a - f * b) // prev for a, b in zip(rows[r], rows[rank])]
        prev, rank = pv, rank + 1
    return rank


def _exact_bb_count(alg, trials=5, seed=0):
    """dim minus the largest exact rank of the structure matrix at the
    points ``bb_count`` draws from ``seed``."""
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        x = [rng.randint(-10**4, 10**4) for _ in range(alg.dim)]
        matrix = [[0] * alg.dim for _ in range(alg.dim)]
        for (i, j), vec in alg.brackets.items():
            matrix[i][j] = sum(c * x[k] for k, c in vec.items())
            matrix[j][i] = -matrix[i][j]
        best = max(best, _integer_rank(matrix))
    return alg.dim - best


@pytest.mark.parametrize("d,ell", [(1, f"{n}/2") for n in range(1, 22, 2)]
                         + [(2, ell) for ell in range(1, 11)])
def test_bb_count_modulo_prime_matches_exact_ranks(d, ell, algebra):
    # the ranks are taken modulo PRIME; at these points they equal the ranks
    # over the rationals
    assert bb_count(algebra(d, ell)) == _exact_bb_count(algebra(d, ell))


def test_bb_count_abelian():
    spec = AlgebraSpec(1, Fraction(3, 2))
    basis = [GeneratorId("P", n) for n in range(6)]
    abelian = LieAlgebra(spec, basis, {})
    assert bb_count(abelian) == 6


def test_bb_count_seed_stable(algebra):
    alg = algebra(1, "3/2")
    assert {bb_count(alg, seed=s) for s in range(6)} == {2}
    assert bb_count(alg, trials=1, seed=7) == 2


def _permuted(alg, seed):
    rng = random.Random(seed)
    perm = list(range(alg.dim))
    rng.shuffle(perm)  # new position of old index i is perm.index(i)
    inv = {old: new for new, old in enumerate(perm)}
    basis = [alg.basis[old] for old in perm]
    brackets = {}
    for (i, j), vec in alg.brackets.items():
        ni, nj = inv[i], inv[j]
        moved = {inv[k]: c for k, c in vec.items()}
        if ni < nj:
            brackets[(ni, nj)] = moved
        else:
            brackets[(nj, ni)] = {k: -c for k, c in moved.items()}
    return LieAlgebra(alg.spec, basis, brackets)


def test_bb_count_basis_permutation_invariant(algebra):
    for d, ell, expect in [(1, "3/2", 2), (2, 1, 3)]:
        alg = algebra(d, ell)
        for seed in range(4):
            assert bb_count(_permuted(alg, seed)) == expect


def test_hand_built_algebras_keep_their_own_cache_entries(algebra):
    # make_cga returns one algebra per spec; an equal-spec algebra built by
    # hand over a permuted basis is a different key of the per-algebra caches
    from cgcasimir.grading import generator_grades
    from cgcasimir.uea import omega_positions

    alg = algebra(1, "3/2")
    assert make_cga(parse_spec("1", "3/2")) is alg
    permuted = _permuted(alg, 0)
    assert permuted.basis != alg.basis
    grades = generator_grades(alg)
    assert generator_grades(permuted) == tuple(grades[alg.position(g)] for g in permuted.basis)
    img = omega_positions(alg)
    assert omega_positions(permuted) == tuple(
        permuted.position(alg.basis[img[alg.position(g)]]) for g in permuted.basis)


def test_trials_must_be_positive(algebra):
    with pytest.raises(ValueError):
        bb_count(algebra(1, "3/2"), trials=0)


def test_json_schema(algebra):
    alg = algebra(1, "3/2")
    data = liealg.to_json_dict(alg)
    assert data["spec"] == {"d": 1, "ell": "3/2"}
    assert data["basis"] == ["M", "P0", "H", "P1", "D", "P2", "C", "P3"]
    entry = next(e for e in data["brackets"] if {e["x"], e["y"]} == {"H", "D"})
    # stored for the lower position first: H precedes D in this ordering
    assert entry == {"x": "H", "y": "D", "value": [{"gen": "H", "coeff": "-2"}]}
    for e in data["brackets"]:
        for v in e["value"]:
            frac = Fraction(v["coeff"])
            assert str(frac) == v["coeff"]
    assert liealg.to_json_dict(alg) == liealg.to_json_dict(make_cga(alg.spec))


@pytest.mark.parametrize("ncols", [0, 1, 4])
def test_nullspace_basis_of_no_rows_is_the_unit_vectors(ncols):
    # the pipeline's candidate stage relies on this where every residual
    # of its jet nullspace vectors is zero
    units = [{f: 1} for f in range(ncols)]
    assert liealg.nullspace_basis([], ncols) == units
    assert liealg.nullspace_basis([{}, {}], ncols) == units
    assert liealg.nullspace_basis([{}] * (ncols + 2), ncols) == units
