import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgcasimir import uea
from cgcasimir.liealg import LieAlgebra, accumulate, jacobi_check
from cgcasimir.grading import default_target_grades, enumerate_ansatz
from cgcasimir.solver import (casimir_conditions_system, omega_orbit_vectors,
                              reduced_check_generators, vector_element)
from cgcasimir.uea import (
    MAX_DEGREE,
    MAX_LETTERS,
    UEAElement,
    commutator,
    commutators,
    from_json_dict,
    from_json_dicts,
    from_term_list,
    grlex_key,
    lex_key,
    monomial_word,
    multiply,
    normal_order,
    omega,
    to_json_dict,
    word_key,
    word_monomial,
)

import known_casimirs as kc

NEG_INF = float("-inf")


def elem(alg, terms):
    return from_term_list(alg, terms)


def test_normal_order_already_ordered(algebra):
    alg = algebra(1, "3/2")
    e = normal_order(alg, [alg.generator("M"), alg.generator("P0")])
    assert e == elem(alg, [(1, ["M", "P0"])])


def test_normal_order_single_swap(algebra):
    alg = algebra(1, "3/2")
    e = normal_order(alg, [alg.generator("P3"), alg.generator("P0")])
    assert e == elem(alg, [(1, ["P0", "P3"]), (-6, ["M"])])


def test_normal_order_bracket_correction_sign(algebra):
    # C H = H C + [C, H] and [C, H] = D
    alg = algebra(1, "3/2")
    e = normal_order(alg, [alg.generator("C"), alg.generator("H")])
    assert e == elem(alg, [(1, ["H", "C"]), (1, ["D"])])


def test_multiply_unit_law(algebra):
    alg = algebra(1, "3/2")
    k = elem(alg, kc.D1_L32_QUARTIC)
    assert multiply(alg, UEAElement.one(alg), k) == k
    assert multiply(alg, k, UEAElement.one(alg)) == k


def test_multiply_ordered_pair(algebra):
    alg = algebra(1, "3/2")
    h = UEAElement.generator(alg, alg.generator("H"))
    c = UEAElement.generator(alg, alg.generator("C"))
    assert multiply(alg, h, c) == elem(alg, [(1, ["H", "C"])])


def test_multiply_reorders_concatenated_word(algebra):
    # oracle: the product of monomials is the normal ordering of the
    # concatenated word
    alg = algebra(1, "3/2")
    a = elem(alg, [(1, ["P3"])])
    b = elem(alg, [(1, ["P0", "P3"])])
    prod = multiply(alg, a, b)
    assert prod == normal_order(alg, [alg.generator(n) for n in ["P3", "P0", "P3"]])
    assert a * b == prod
    assert prod == elem(alg, [(1, ["P0", "P3", "P3"]), (-6, ["M", "P3"])])


def _random_element(alg, rng, max_terms=2, max_degree=3, positions=None):
    positions = positions or range(alg.dim)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        word = sorted(positions[rng.randrange(len(positions))] for _ in range(deg))
        terms[tuple(word)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return UEAElement(alg, terms)


def _multiply_by_words(alg, a, b):
    """Reference: normal order each concatenated word alone, then sum."""
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            for m, ck in normal_order(alg, wa + wb).terms.items():
                out[m] = out.get(m, 0) + ca * cb * ck
    return UEAElement(alg, out)


@pytest.mark.parametrize("d,ell", [(1, "5/2"), (2, 2)])
def test_multiply_matches_word_oracle(d, ell, algebra):
    # multi-term factors over three generators, so that equal words from
    # different term pairs meet and merge inside one rewriting pass
    alg = algebra(d, ell)
    rng = random.Random(29)
    for _ in range(20):
        pool = rng.sample(range(alg.dim), 3)
        a, b = (_random_element(alg, rng, max_terms=4, max_degree=3, positions=pool)
                for _ in range(2))
        assert multiply(alg, a, b) == _multiply_by_words(alg, a, b)


@pytest.mark.parametrize("d,ell,words", [
    (1, "3/2", [(1, ["C", "H"]), (-1, ["H", "C"]), (-1, ["D"])]),
    (2, 2, [(1, ["J", "P0"]), (-1, ["P0", "J"]), (1, ["P0"])]),
], ids=["d1-CH", "d2-JP0"])
def test_from_term_list_merged_words_cancel(d, ell, words, algebra):
    # x y - y x - [x, y] = 0: the rewritten word merges with the other two
    # and every term cancels, leaving no zero-valued entry behind
    zero = from_term_list(algebra(d, ell), words)
    assert zero.terms == {} and zero.is_zero()


def test_multiply_associative_randomized(algebra):
    for d, ell in [(1, "3/2"), (2, 1)]:
        alg = algebra(d, ell)
        rng = random.Random(11)
        for _ in range(40):
            a, b, c = (_random_element(alg, rng) for _ in range(3))
            left = multiply(alg, multiply(alg, a, b), c)
            right = multiply(alg, a, multiply(alg, b, c))
            assert left == right


def test_normal_order_top_degree_permutation_invariant(algebra):
    alg = algebra(2, 2)
    rng = random.Random(5)
    for _ in range(60):
        word = [rng.randrange(alg.dim) for _ in range(rng.randint(2, 5))]
        base = normal_order(alg, word)
        deg = len(word)
        top = {m: c for m, c in base.terms.items() if len(m) == deg}
        shuffled = word[:]
        rng.shuffle(shuffled)
        other = normal_order(alg, shuffled)
        assert {m: c for m, c in other.terms.items() if len(m) == deg} == top


def test_commutator_with_central(algebra):
    alg = algebra(1, "5/2")
    m = UEAElement.generator(alg, alg.generator("M"))
    for g in alg.basis:
        assert commutator(alg, m, g).is_zero()


def test_commutator_known_casimir_vanishes(algebra):
    alg = algebra(1, "3/2")
    k = elem(alg, kc.D1_L32_QUARTIC)
    assert commutator(alg, k, alg.generator("H")).is_zero()
    assert commutator(alg, k, alg.generator("P3")).is_zero()


def _commutator_by_products(alg, a, p):
    """Reference: normal order both a*x and x*a, word by word, and subtract."""
    out = {}
    for w, c in a.terms.items():
        for m2, ck in normal_order(alg, w + (p,)).terms.items():
            out[m2] = out.get(m2, 0) + c * ck
        for m2, ck in normal_order(alg, (p,) + w).terms.items():
            out[m2] = out.get(m2, 0) - c * ck
    return UEAElement(alg, out)


@pytest.mark.parametrize("d,ell", [(1, "5/2"), (2, 2)])
def test_commutator_matches_product_oracle(d, ell, algebra):
    alg = algebra(d, ell)
    rng = random.Random(23)
    for _ in range(25):
        a = _random_element(alg, rng, max_terms=4, max_degree=4)
        for p in range(alg.dim):
            assert commutator(alg, a, p) == _commutator_by_products(alg, a, p)


@pytest.mark.parametrize("d,ell", [(1, "5/2"), (2, 2)])
def test_commutators_match_both_oracles(d, ell, algebra):
    # one pass over each element's words for a whole generator set gives, per
    # generator, what one generator at a time and the product oracle give
    alg = algebra(d, ell)
    rng = random.Random(31)
    pool = rng.sample(range(alg.dim), 4)
    elems = [_random_element(alg, rng, max_terms=4, max_degree=4, positions=pool)
             for _ in range(10)]
    elems += [_random_element(alg, rng, max_terms=4, max_degree=3) for _ in range(5)]
    elems.append(UEAElement.zero(alg))
    assert any(len(set(w)) < len(w) for a in elems for w in a.terms)
    for gens in (list(alg.basis), reduced_check_generators(alg)):
        batched = list(commutators(alg, elems, gens))
        assert len(batched) == len(elems)
        for a, residuals in zip(elems, batched):
            assert len(residuals) == len(gens)
            for g, res in zip(gens, residuals):
                assert res == commutator(alg, a, g)
                assert res == _commutator_by_products(alg, a, alg.position(g))
        assert any(not res.is_zero() for residuals in batched for res in residuals)


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (1, "5/2"), (1, "7/2"), (1, "9/2"),
                                   (2, 1), (2, 2), (2, 3)])
def test_coefficients_stay_int_where_exact(d, ell, algebra):
    # every structure constant is an integer, so brackets, normal ordering,
    # products, omega, commutators and the algebraic route's condition
    # matrix stay int
    alg = algebra(d, ell)

    def ints(values):
        return all(type(c) is int for c in values)

    assert all(ints(vec.values()) for vec in alg.brackets.values())
    assert all(ints(c for _, c in entry) for row in alg.pair_table for entry in row)
    word = [alg.generator(n) for n in ("C", f"P{alg.spec.two_ell}", "D", "H", "P0")]
    ordered = normal_order(alg, word)
    assert len(ordered.terms) > 1 and ints(ordered.terms.values())
    assert ints(omega(alg, ordered).terms.values())
    gens = [UEAElement.generator(alg, alg.generator(n)) for n in ("C", "H")]
    product = multiply(alg, *gens)
    assert len(product.terms) > 1 and ints(product.terms.values())
    for x in alg.basis:
        gen = UEAElement.generator(alg, x)
        assert all(ints(commutator(alg, gen, y).terms.values()) for y in alg.basis)
    grade, degree = default_target_grades(alg.spec)[0]
    basis = enumerate_ansatz(alg, grade, degree)
    columns = [vector_element(alg, basis, v) for v in omega_orbit_vectors(alg, basis)]
    matrix = casimir_conditions_system(alg, columns).matrix
    assert matrix and all(ints(row.values()) for row in matrix)


def test_omega_fixes_diagonal(algebra):
    for d, ell in [(1, "3/2"), (2, 2)]:
        alg = algebra(d, ell)
        for name in (["D", "M"] if d == 1 else ["D", "J", "Theta"]):
            e = UEAElement.generator(alg, alg.generator(name))
            assert omega(alg, e) == e


def test_omega_conjugate_pair(algebra):
    alg = algebra(1, "3/2")
    e = elem(alg, [(1, ["M", "H", "P1", "P3"])])
    assert omega(alg, e) == elem(alg, [(1, ["M", "P0", "P2", "C"])])


def test_omega_involution_on_words(algebra):
    alg = algebra(1, "3/2")
    hc = elem(alg, [(1, ["H", "C"])])
    assert omega(alg, omega(alg, hc)) == hc


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (1, "5/2"), (2, 1), (2, 2)])
def test_omega_antiautomorphism_randomized(d, ell, algebra):
    alg = algebra(d, ell)
    rng = random.Random(17)
    for _ in range(50):
        a, b = _random_element(alg, rng), _random_element(alg, rng)
        assert omega(alg, multiply(alg, a, b)) == multiply(alg, omega(alg, b), omega(alg, a))
        assert omega(alg, omega(alg, a)) == a


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (2, 1)])
def test_omega_reverses_brackets(d, ell, algebra):
    # omega([x, y]) = [omega(y), omega(x)] for all generator pairs
    alg = algebra(d, ell)
    for x in alg.basis:
        for y in alg.basis:
            lhs = omega(alg, commutator(alg, UEAElement.generator(alg, x), y))
            rhs = commutator(alg, omega(alg, UEAElement.generator(alg, y)),
                             alg.generator(omega_name(alg, x)))
            assert lhs == rhs


def omega_name(alg, g):
    from cgcasimir.uea import omega_positions
    return alg.basis[omega_positions(alg)[alg.position(g)]].name


def test_degree_and_zero(algebra):
    alg2 = algebra(2, 1)
    k2 = elem(alg2, kc.D2_L1_QUADRATIC)
    assert k2.degree() == 2
    alg1 = algebra(1, "3/2")
    k4 = elem(alg1, kc.D1_L32_QUARTIC)
    assert k4.degree() == 4
    assert (k4 - k4).is_zero()
    assert (k4 - k4).degree() == NEG_INF
    assert UEAElement.zero(alg1).is_zero()


def test_scale_add_subtract(algebra):
    alg = algebra(1, "3/2")
    k = elem(alg, kc.D1_L32_QUARTIC)
    assert (k + k) == k.scale(2) == 2 * k
    assert (k - k.scale(Fraction(1, 2))) == k.scale(Fraction(1, 2))
    assert k.scale(0).is_zero()
    assert (k - k).is_zero()
    assert k.degree() == 4
    assert UEAElement.zero(alg).degree() == NEG_INF


@pytest.mark.parametrize("coeff", [0.1, 2.0, True, None, [1]])
def test_inexact_coefficients_are_refused(coeff, algebra):
    # 0.1 would be stored as its binary value, 3602879701896397/2**55
    alg = algebra(1, "3/2")
    with pytest.raises(ValueError, match="coefficient"):
        from_term_list(alg, [(coeff, ["D"])])
    k = UEAElement(alg, {(4,): 1})
    with pytest.raises(ValueError, match="coefficient"):
        k.scale(coeff)
    with pytest.raises(ValueError, match="coefficient"):
        coeff * k


from cgcasimir import make_cga, parse_spec

_HYP_ALG = make_cga(parse_spec(1, "3/2"))


@st.composite
def small_elements(draw):
    alg = _HYP_ALG
    n = draw(st.integers(min_value=1, max_value=2))
    terms = {}
    for _ in range(n):
        deg = draw(st.integers(min_value=0, max_value=3))
        word = sorted(draw(st.integers(min_value=0, max_value=alg.dim - 1))
                      for _ in range(deg))
        terms[tuple(word)] = Fraction(draw(st.integers(min_value=-3, max_value=3)), 1)
    return UEAElement(alg, terms)


@settings(max_examples=60, deadline=None)
@given(a=small_elements(), b=small_elements())
def test_omega_antiautomorphism_property(a, b):
    alg = _HYP_ALG
    assert omega(alg, multiply(alg, a, b)) == multiply(alg, omega(alg, b), omega(alg, a))


@settings(max_examples=40, deadline=None)
@given(a=small_elements(), b=small_elements(), c=small_elements())
def test_distributivity_property(a, b, c):
    alg = _HYP_ALG
    assert multiply(alg, a, b + c) == multiply(alg, a, b) + multiply(alg, a, c)


def test_json_round_trip(algebra):
    alg = algebra(2, 2)
    k = elem(alg, kc.D2_L2_QUARTIC)
    data = to_json_dict(k)
    assert from_json_dict(alg, data) == k
    sample = data["terms"][0]
    assert set(sample) == {"monomial", "coeff"}
    assert all(isinstance(v, int) for v in sample["monomial"].values())


def test_json_skips_zero_exponents(algebra):
    alg = algebra(1, "3/2")
    data = to_json_dict(elem(alg, [(Fraction(-6), ["M", "M", "D"])]))
    assert data == {"terms": [{"monomial": {"M": 2, "D": 1}, "coeff": "-6"}]}


def test_json_coefficients_are_int_where_whole(algebra):
    alg = algebra(1, "3/2")
    coeffs = {"M": "6", "H": 6, "D": "7/3", "C": "4/2"}
    data = {"terms": [{"monomial": {n: 1}, "coeff": c} for n, c in coeffs.items()]}
    terms = from_json_dict(alg, data).terms
    assert sorted((type(c).__name__, c) for c in terms.values()) == [
        ("Fraction", Fraction(7, 3)), ("int", 2), ("int", 6), ("int", 6)]


def test_json_refuses_degree_above_bound(algebra):
    alg = algebra(1, "3/2")
    def element(h):
        return {"terms": [{"monomial": {"M": MAX_DEGREE - 1, "H": h}, "coeff": 1}]}

    assert from_json_dict(alg, element(1)).degree() == MAX_DEGREE
    with pytest.raises(ValueError, match="degree"):
        from_json_dict(alg, element(2))


def test_json_refuses_degree_before_spelling_a_word(algebra, monkeypatch):
    def never(*args):
        raise AssertionError("a word was spelled out")

    monkeypatch.setattr(uea, "monomial_word", never)
    data = {"terms": [{"monomial": {"M": MAX_DEGREE, "H": 1}, "coeff": 1}]}
    with pytest.raises(ValueError, match="degree"):
        from_json_dict(algebra(1, "3/2"), data)



def test_json_refuses_letters_across_elements_before_spelling_a_word(algebra, monkeypatch):
    # 64 one-term elements of degree MAX_DEGREE fill MAX_LETTERS; one more
    # letter anywhere in the input is refused before any word is spelled out
    def never(*args):
        raise AssertionError("a word was spelled out")

    monkeypatch.setattr(uea, "monomial_word", never)
    alg = algebra(1, "3/2")
    full = [{"terms": [{"monomial": {"M": MAX_DEGREE}, "coeff": 1}]}] * (MAX_LETTERS // MAX_DEGREE)
    extra = {"terms": [{"monomial": {"H": 1}, "coeff": 1}]}
    with pytest.raises(ValueError, match=f"{MAX_LETTERS + 1} letters"):
        from_json_dicts(alg, full + [extra])


def test_json_letter_bound_is_exact(algebra, monkeypatch):
    alg = algebra(1, "3/2")
    two = {"terms": [{"monomial": {"M": 1, "H": 1}, "coeff": 1},
                     {"monomial": {}, "coeff": 3}]}
    three = {"terms": [{"monomial": {"D": 3}, "coeff": "1/2"}]}
    monkeypatch.setattr(uea, "MAX_LETTERS", 5)
    loaded = from_json_dicts(alg, [two, three])
    assert [e.degree() for e in loaded] == [2, 3]
    monkeypatch.setattr(uea, "MAX_LETTERS", 4)
    with pytest.raises(ValueError, match="5 letters"):
        from_json_dicts(alg, [two, three])

@st.composite
def sorted_words(draw):
    dim = draw(st.integers(min_value=7, max_value=27))
    letters = st.integers(min_value=0, max_value=dim - 1)
    words = draw(st.lists(st.lists(letters, max_size=5).map(lambda w: tuple(sorted(w))),
                          min_size=2, max_size=30, unique=True))
    return dim, words


@settings(max_examples=200, deadline=None)
@given(sorted_words())
def test_word_keys_order_like_exponent_tuples(dim_words):
    # sorting words by a word key gives the order of their exponent tuples
    dim, words = dim_words
    assert all(monomial_word(word_monomial(dim, w)) == w for w in words)
    assert (sorted(words, key=word_key)
            == sorted(words, key=lambda w: grlex_key(word_monomial(dim, w))))
    assert sorted(words, key=lex_key) == sorted(words, key=lambda w: word_monomial(dim, w))


# -- an independent oracle: the adjacent-swap rewriting ----------------

def _first_descent(word):
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            return i
    return -1


def _bubble_normal_form(alg, work):
    """PBW expansion of a combination ``{word: coeff}`` of position words;
    consumes ``work``.  Each word's first out-of-order pair is swapped and
    its bracket terms added back, so equal words from different terms merge
    (or cancel) before they are rewritten again."""
    table = alg.pair_table
    done = {}
    while work:
        w, c = work.popitem()
        i = _first_descent(w)
        if i < 0:
            accumulate(done, ((w, c),))
            continue
        a, b = w[i], w[i + 1]
        head, tail = w[:i], w[i + 2:]
        accumulate(work, ((head + (b, a) + tail, c),))
        accumulate(work, ((head + (k,) + tail, c * ck) for k, ck in table[a][b]))
    return UEAElement(alg, done)


def _bubble(alg, pairs):
    """The adjacent-swap expansion of ``sum c * word`` over (word, c) pairs."""
    return _bubble_normal_form(alg, accumulate({}, pairs))


def _changed_basis(alg, seed, mixes=4):
    """The same algebra over the basis b'_i = sum_j U_ij b_j, for a random
    unimodular integer U, so that brackets have several terms."""
    rng = random.Random(seed)
    n = alg.dim
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]  # U^-1
    for _ in range(mixes):  # add +-1 times row j of U to row i, and undo it in U^-1
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((-1, 1))
        u[i] = [x + sign * y for x, y in zip(u[i], u[j])]
        for row in v:
            row[j] -= sign * row[i]
    assert all(sum(u[i][k] * v[k][j] for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = {}
            for a, ua in enumerate(u[i]):
                for b, ub in enumerate(u[j]):
                    if ua and ub:
                        for k, c in alg.pair_table[a][b]:
                            accumulate(vec, ((m, ua * ub * c * v[k][m]) for m in range(n)))
            brackets[(i, j)] = vec
    return LieAlgebra(alg.spec, alg.basis, brackets)


def test_changed_basis_is_a_lie_algebra_with_long_brackets(algebra):
    changed = _changed_basis(algebra(1, "3/2"), seed=3)
    assert jacobi_check(changed) is None
    sizes = [len(v) for v in changed.brackets.values()]
    assert max(sizes) >= 3 and sum(s >= 2 for s in sizes) >= 10


@pytest.mark.parametrize("d,ell,changed", [
    (1, "3/2", False), (1, "5/2", False), (2, 1, False), (2, 2, False), (1, "3/2", True),
], ids=["d1-3/2", "d1-5/2", "d2-1", "d2-2", "d1-3/2-changed-basis"])
def test_operations_match_bubble_oracle(d, ell, changed, algebra):
    # products, commutators, omega and normal ordering of random elements
    # agree with the adjacent-swap rewriting, word by word
    alg = _changed_basis(algebra(d, ell), seed=3) if changed else algebra(d, ell)
    img = uea.omega_positions(alg)
    rng = random.Random(41)
    for _ in range(12):
        pool = rng.sample(range(alg.dim), 4)
        a, b = (_random_element(alg, rng, max_terms=4, max_degree=4, positions=pool)
                for _ in range(2))
        word = tuple(rng.randrange(alg.dim) for _ in range(rng.randint(0, 6)))
        assert normal_order(alg, word) == _bubble(alg, [(word, 1)])
        assert multiply(alg, a, b) == _bubble(
            alg, ((wa + wb, ca * cb) for wa, ca in a.terms.items() for wb, cb in b.terms.items()))
        assert omega(alg, a) == _bubble(
            alg, ((tuple(img[p] for p in reversed(w)), c) for w, c in a.terms.items()))
        for p in range(alg.dim):
            assert commutator(alg, a, p) == _bubble(
                alg, [(w + (p,), c) for w, c in a.terms.items()]
                + [((p,) + w, -c) for w, c in a.terms.items()])


# -- polynomial time on high powers ------------------------------------

@pytest.fixture
def place_budget(monkeypatch):
    """Count the straightening steps; more than ``limit`` fails the test
    at once instead of running for hours."""
    calls = [0]

    def install(limit):
        place = uea._place

        def counted(*args):
            calls[0] += 1
            if calls[0] > limit:
                raise AssertionError(f"more than {limit} straightening steps")
            return place(*args)

        monkeypatch.setattr(uea, "_place", counted)
        return calls

    return install


def test_commutator_of_a_high_power_closed_form(algebra, place_budget):
    # [D, P0] = 3 P0, so D^n P0 = P0 (D + 3)^n and
    # [D^n, P0] = sum_(k<n) C(n, k) 3^(n-k) P0 D^k
    alg = algebra(1, "3/2")
    n, d, p0 = 40, alg.position(alg.generator("D")), alg.position(alg.generator("P0"))
    place_budget(n ** 3)
    dn = UEAElement(alg, {(d,) * n: 1})
    assert commutator(alg, dn, p0).terms == {(p0,) + (d,) * k: comb(n, k) * 3 ** (n - k)
                                             for k in range(n)}
    assert normal_order(alg, (d,) * n + (p0,)).terms == {
        (p0,) + (d,) * k: comb(n, k) * 3 ** (n - k) for k in range(n + 1)}


def test_straightening_steps_of_a_high_power_are_polynomial(algebra, place_budget):
    # every bracket term of [D^n, C] is a word D^a C D^b; merged by length
    # they need O(n^3) steps, where a depth-first rewriting needs about 2^n
    alg = algebra(1, "3/2")
    n, d = 40, alg.position(alg.generator("D"))
    c = UEAElement.generator(alg, alg.generator("C"))
    calls = place_budget(n ** 3)
    dn = UEAElement(alg, {(d,) * n: 1})
    res = commutator(alg, dn, alg.generator("C"))
    assert len(res.terms) == n and 0 < calls[0] <= n ** 3
    assert multiply(alg, c, dn) - multiply(alg, dn, c) == -res


def test_straightening_never_passes_an_equal_letter(algebra):
    # a letter commutes with its equal, so passing one adds no term but costs
    # a step: on the words D^a C D^b of [D^n, C] that is n more per word
    alg = algebra(1, "3/2")
    d, p0 = alg.position(alg.generator("D")), alg.position(alg.generator("P0"))
    looked = []

    class Row(tuple):
        def __getitem__(self, k):
            if k == d:
                looked.append(k)
            return tuple.__getitem__(self, k)

    counted = LieAlgebra(alg.spec, alg.basis, alg.brackets)
    counted.pair_table = tuple(Row(row) if i == d else row
                               for i, row in enumerate(alg.pair_table))
    dn = UEAElement(counted, {(d,) * 12: 1})
    assert len(commutator(counted, dn, alg.generator("C")).terms) == 12
    assert len(normal_order(counted, (d,) * 12 + (p0,)).terms) == 13
    assert looked == []
