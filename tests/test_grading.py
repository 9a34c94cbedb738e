import random

import pytest

from cgcasimir import grading
from cgcasimir.grading import (
    MAX_ANSATZ,
    MAX_HALF_WORDS,
    default_target_grades,
    enumerate_ansatz,
    generator_grades,
    grade_of,
    iter_exponents,
)
from cgcasimir.uea import (UEAElement, from_term_list, grlex_key, monomial_word, multiply,
                           normal_order, word_monomial)


def mono(alg, names):
    expo = [0] * alg.dim
    for n in names:
        expo[alg.position(alg.generator(n))] += 1
    return monomial_word(expo)


def test_generator_grades_d1(algebra):
    alg = algebra(1, "3/2")
    grades = dict(zip((g.name for g in alg.basis), generator_grades(alg)))
    assert grades["M"] == (0, 3)
    assert grades["H"] == (2, -1)
    assert grades["C"] == (-2, 1)
    assert grades["D"] == (0, 0)
    assert grades["P0"] == (3, 0)
    assert grades["P3"] == (-3, 3)


def test_generator_grades_d2(algebra):
    alg = algebra(2, 1)
    grades = dict(zip((g.name for g in alg.basis), generator_grades(alg)))
    assert grades["P1"] == (1, 0, -1)
    assert grades["Q0"] == (-1, 1, 2)
    assert grades["Theta"] == (0, 1, 0)
    assert grades["H"] == (0, 0, 1)
    assert grades["C"] == (0, 0, -1)
    assert grades["D"] == grades["J"] == (0, 0, 0)


def test_grade_of_examples(algebra):
    alg = algebra(1, "3/2")
    assert grade_of(alg, mono(alg, [])) == (0, 0)
    assert grade_of(alg, mono(alg, ["M", "P0", "P3"])) == (0, 6)
    alg2 = algebra(2, 1)
    assert grade_of(alg2, mono(alg2, ["Theta", "Theta", "H", "C"])) == (0, 2, 0)


def test_grade_additive_over_products(algebra):
    alg = algebra(2, 2)
    rng = random.Random(3)
    grades = generator_grades(alg)
    for _ in range(50):
        m1 = tuple(rng.randint(0, 1) for _ in range(alg.dim))
        m2 = tuple(rng.randint(0, 1) for _ in range(alg.dim))
        total = tuple(a + b for a, b in zip(m1, m2))
        expect = tuple(sum(g) for g in zip(grade_of(alg, monomial_word(m1)),
                                           grade_of(alg, monomial_word(m2))))
        assert grade_of(alg, monomial_word(total)) == expect
    assert grades  # silence unused warning


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (1, "5/2"), (2, 1), (2, 2)])
def test_brackets_respect_grading(d, ell, algebra):
    # every term of [x, y] carries grade(x) + grade(y)
    alg = algebra(d, ell)
    grades = generator_grades(alg)
    for (i, j), vec in alg.brackets.items():
        expect = tuple(a + b for a, b in zip(grades[i], grades[j]))
        for k in vec:
            assert grades[k] == expect


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (2, 2)])
def test_normal_order_preserves_grade(d, ell, algebra):
    alg = algebra(d, ell)
    grades = generator_grades(alg)
    rng = random.Random(23)
    zero = tuple(0 for _ in grades[0])
    for _ in range(60):
        word = [rng.randrange(alg.dim) for _ in range(rng.randint(1, 5))]
        total = zero
        for p in word:
            total = tuple(a + b for a, b in zip(total, grades[p]))
        for m in normal_order(alg, word).terms:
            assert grade_of(alg, m) == total


def exponent_grade(alg, expo):
    """Grade of an exponent tuple, summed here, apart from ``grade_of``."""
    grades = generator_grades(alg)
    return tuple(sum(e * g[c] for e, g in zip(expo, grades)) for c in range(len(grades[0])))


def brute_force_ansatz(alg, grade, max_degree):
    """Exponent tuples of the ansatz, filtered from every tuple."""
    return sorted(
        m for m in iter_exponents(alg.dim, max_degree)
        if exponent_grade(alg, m) == tuple(grade)
    )


@pytest.mark.parametrize("d,ell,grade,deg", [
    (1, "3/2", (0, 6), 4),
    (1, "3/2", (3, 0), 3),
    (2, 1, (0, 1, 0), 2),
    (2, 1, (0, 2, 0), 4),
    (2, 2, (0, 1, 0), 2),
    (1, "17/2", (0, 34), 4),
    (2, 5, (0, 2, 0), 4),
    # odd degrees: the longest words split into unequal head and tail
    (1, "3/2", (0, 6), 5),
    (2, 1, (0, 2, 0), 5),
])
def test_enumerate_matches_brute_force(d, ell, grade, deg, algebra):
    alg = algebra(d, ell)
    basis = enumerate_ansatz(alg, grade, deg)
    expos = [word_monomial(alg.dim, m) for m in basis.monomials]
    assert sorted(expos) == brute_force_ansatz(alg, grade, deg)
    assert expos == sorted(expos, key=grlex_key)
    assert len(set(basis.monomials)) == len(basis.monomials)
    for m in basis.monomials:
        assert list(m) == sorted(m)
        assert grade_of(alg, m) == tuple(grade)
        assert len(m) <= deg


def test_ansatz_quadratic_d2_exact_set(algebra):
    alg = algebra(2, 1)
    basis = enumerate_ansatz(alg, (0, 1, 0), 2)
    names = {tuple(sorted(alg.basis[p].name for p in m)) for m in basis.monomials}
    assert names == {
        ("Theta",), ("D", "Theta"), ("J", "Theta"),
        ("P2", "Q0"), ("P0", "Q2"), ("P1", "Q1"),
    }


def test_ansatz_contains_known_quartic_monomials(algebra):
    alg = algebra(1, "3/2")
    basis = set(enumerate_ansatz(alg, (0, 6), 4).monomials)
    for names in [["M", "M"], ["M", "M", "D"], ["M", "M", "D", "D"],
                  ["M", "M", "H", "C"], ["M", "P0", "P3"],
                  ["P0", "P0", "P3", "P3"], ["P1", "P1", "P1", "P3"]]:
        assert mono(alg, names) in basis


def test_ansatz_zero_grade(algebra):
    alg = algebra(1, "3/2")
    basis = enumerate_ansatz(alg, (0, 0), 1)
    assert basis.monomials == [mono(alg, []), mono(alg, ["D"])]
    alg2 = algebra(2, 1)
    basis2 = enumerate_ansatz(alg2, (0, 0, 0), 1)
    assert set(basis2.monomials) == {mono(alg2, []), mono(alg2, ["D"]), mono(alg2, ["J"])}


def test_empty_ansatz_is_valid(algebra):
    alg = algebra(1, "3/2")
    assert enumerate_ansatz(alg, (5, 0), 1).monomials == []


def test_max_degree_validated(algebra):
    with pytest.raises(ValueError):
        enumerate_ansatz(algebra(1, "3/2"), (0, 6), 0)


@pytest.mark.parametrize("d,ell,grade", [(1, "3/2", (0, 6, 0)), (2, 1, (0, 1))])
def test_grade_length_validated(d, ell, grade, algebra):
    with pytest.raises(ValueError, match="grade vector length"):
        enumerate_ansatz(algebra(d, ell), grade, 2)


def test_wide_algebra_needs_no_recursion(algebra):
    # 1,004 generators: one stack frame per basis position would overflow
    alg = algebra(1, "999/2")
    assert enumerate_ansatz(alg, (0, 1998), 2).monomials == [mono(alg, ["M", "M"])]


def test_oversized_tables_refused_before_any_word(algebra, monkeypatch):
    def never(*args):
        raise AssertionError("a half-word table was built")

    monkeypatch.setattr(grading, "combinations_with_replacement", never)
    # comb(1004 + 3, 3) = 169,684,535 half-words at degree 6
    with pytest.raises(ValueError, match=str(MAX_HALF_WORDS)):
        enumerate_ansatz(algebra(1, "999/2"), (0, 1998), 6)


def test_oversized_ansatz_refused_before_any_monomial(algebra, refuse_joins):
    # 12,403 half-words, under MAX_HALF_WORDS, join to 100,784 quartic monomials
    with pytest.raises(ValueError, match=f"has 100784 monomials, .* {MAX_ANSATZ}$"):
        enumerate_ansatz(algebra(1, "151/2"), (0, 302), 4)


@pytest.mark.parametrize("d,ell,grade,deg,size", [
    # sizes of the brute-force ansatz at targets of the test above
    (1, "17/2", (0, 34), 4, 247),
    (2, 5, (0, 2, 0), 4, 316),
    (1, "3/2", (0, 6), 5, 42),
    (2, 1, (0, 2, 0), 5, 84),
])
def test_ansatz_count_is_exact(d, ell, grade, deg, size, algebra, monkeypatch):
    # the count taken before the join is the size of the join: one below it
    # is refused, and the size itself is admitted
    alg = algebra(d, ell)
    monkeypatch.setattr(grading, "MAX_ANSATZ", size - 1)
    with pytest.raises(ValueError, match=f"has {size} monomials"):
        enumerate_ansatz(alg, grade, deg)
    monkeypatch.setattr(grading, "MAX_ANSATZ", size)
    assert len(enumerate_ansatz(alg, grade, deg)) == size


def test_default_targets():
    from cgcasimir import parse_spec
    assert default_target_grades(parse_spec(1, "5/2")) == [((0, 10), 4)]
    assert default_target_grades(parse_spec(1, "3/2")) == [((0, 6), 4)]
    for ell in (1, 2, 3):
        assert default_target_grades(parse_spec(2, ell)) == [((0, 1, 0), 2), ((0, 2, 0), 4)]
