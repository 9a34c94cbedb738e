import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from cgcasimir import realization, solver
from cgcasimir.grading import default_target_grades, enumerate_ansatz, iter_exponents
from cgcasimir.liealg import GeneratorId, accumulate
from cgcasimir.realization import (
    DiffOp,
    VarSet,
    compose,
    diffop_json_dict,
    is_parameter_scalar,
    pretty_diffop,
    realize_element,
    realize_generator,
    realize_monomials,
    t_jet,
    verify_realization,
)
from cgcasimir.solver import nullspace, realization_candidate_system
from cgcasimir.uea import UEAElement, from_term_list, multiply

import known_casimirs as kc


def symbol(vs, name, power=1):
    """Multiplication by a variable or parameter raised to ``power``."""
    e = [0] * vs.nsyms
    e[(vs.variables + vs.parameters).index(name)] = power
    return DiffOp(vs, {((0,) * vs.nvars, tuple(e)): 1})


def partial(vs, var_name):
    """The first derivative in one variable."""
    d = [0] * vs.nvars
    d[vs.variables.index(var_name)] = 1
    return DiffOp(vs, {(tuple(d), (0,) * vs.nsyms): 1})


def test_varset_layout():
    from cgcasimir import parse_spec
    vs = VarSet.for_spec(parse_spec(1, "5/2"))
    assert vs.variables == ("t", "x0", "x1", "x2")
    assert vs.parameters == ("delta", "m")
    vs2 = VarSet.for_spec(parse_spec(2, 2))
    assert vs2.variables == ("t", "x0", "x1", "x2", "y0", "y1")
    assert vs2.parameters == ("delta", "r", "theta")


def test_generator_images(algebra):
    alg = algebra(1, "3/2")
    spec = alg.spec
    vs = VarSet.for_spec(spec)
    h = realize_generator(spec, GeneratorId("H"))
    assert h == partial(vs, "t").scale(-1)
    assert -h == partial(vs, "t")
    assert pretty_diffop(h) == "-∂_t"
    assert pretty_diffop(h + -h) == "0"
    m = realize_generator(spec, GeneratorId("M"))
    assert m == symbol(vs, "m")
    d = realize_generator(spec, GeneratorId("D"))
    expect = (symbol(vs, "delta")
              + compose(symbol(vs, "t"), partial(vs, "t")).scale(-2)
              + compose(symbol(vs, "x0"), partial(vs, "x0")).scale(-3)
              + compose(symbol(vs, "x1"), partial(vs, "x1")).scale(-1))
    assert d == expect


def test_generator_images_match_pack_built_keys(algebra):
    # realize_generator sums field units over each term's nonzero fields:
    # each key is the one ``VarSet.pack`` builds from the term's full
    # derivative and exponent lists, and the images, as (deriv, expo)
    # terms, hash to the digest of the images built term by term with pack
    h = hashlib.sha256()
    for d, ell in [(1, "1/2"), (1, "3/2"), (1, "7/2"), (1, "21/2"), (2, 1), (2, 3), (2, 6)]:
        alg = algebra(d, ell)
        vs = VarSet.for_spec(alg.spec)
        for g in alg.basis:
            op = realize_generator(alg.spec, g)
            assert op.packed and op.packed == {vs.pack(dv, e): c for (dv, e), c in op.terms.items()}
            h.update(repr((g.name, sorted(op.terms.items()))).encode())
    assert h.hexdigest() == "9727195ec73629be44790b0c0f66f464253eb3c87b8084666cf5efdd443d15e9"


def test_generator_image_refuses_a_key_on_the_guard(algebra, monkeypatch):
    # no admitted spec reaches an exponent above FIELD_MAX, so the guard is
    # moved onto bit 0 of t's exponent field: an image with a t term is
    # refused, and one without is not
    spec = algebra(1, "3/2").spec
    monkeypatch.setattr(VarSet, "guard", property(lambda vs: 1 << 32 * vs.nvars))
    build = realize_generator.__wrapped__
    assert build(spec, GeneratorId("H")) == realize_generator(spec, GeneratorId("H"))
    with pytest.raises(ValueError, match="image of C exceeds"):
        build(spec, GeneratorId("C"))


def test_central_images_d2(algebra):
    alg = algebra(2, 1)
    theta = realize_generator(alg.spec, GeneratorId("Theta"))
    vs = VarSet.for_spec(alg.spec)
    assert theta == symbol(vs, "theta").scale(-1)


def test_compose_leibniz_base(algebra):
    vs = VarSet.for_spec(algebra(1, "3/2").spec)
    dt = partial(vs, "t")
    t = symbol(vs, "t")
    # d/dt ∘ t = t d/dt + 1
    assert compose(dt, t) == compose(t, dt) + DiffOp.identity(vs)
    assert compose(DiffOp.identity(vs), dt) == dt
    assert compose(dt, DiffOp.identity(vs)) == dt
    with pytest.raises(ValueError, match="different variable sets"):
        compose(dt, partial(VarSet.for_spec(algebra(2, 1).spec), "t"))


def test_compose_reproduces_bracket(algebra):
    alg = algebra(1, "3/2")
    spec = alg.spec
    d = realize_generator(spec, GeneratorId("D"))
    h = realize_generator(spec, GeneratorId("H"))
    assert compose(d, h) - compose(h, d) == h.scale(2)


def _random_op(vs, rng, nterms=3, degree=2):
    terms = {}
    for _ in range(nterms):
        deriv = [0] * vs.nvars
        for _ in range(rng.randint(0, degree)):
            deriv[rng.randrange(vs.nvars)] += 1
        expo = [0] * vs.nsyms
        for _ in range(rng.randint(0, degree)):
            expo[rng.randrange(vs.nsyms)] += 1
        key = (tuple(deriv), tuple(expo))
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return DiffOp(vs, terms)


def test_compose_associative_randomized(algebra):
    vs = VarSet.for_spec(algebra(1, "3/2").spec)
    rng = random.Random(31)
    for _ in range(25):
        a, b, c = (_random_op(vs, rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def _leibniz_oracle(a, b):
    """a∘b by the Leibniz rule on unpacked ``(deriv, expo)`` tuples: each
    term pair gives, for every ``γ <= min(α, e₂)``, the coefficient
    ``Πᵢ C(αᵢ, γᵢ) (e₂ᵢ)↓γᵢ`` at ``(α + β - γ, e₁ + e₂ - γ)``."""
    nv = a.vs.nvars

    def products():
        for (alpha, e1), c1 in a.terms.items():
            for (beta, e2), c2 in b.terms.items():
                lim = tuple(map(min, alpha, e2))
                deriv = tuple(x + y for x, y in zip(alpha, beta))
                expo = tuple(x + y for x, y in zip(e1, e2))
                for gamma in itertools.product(*[range(k + 1) for k in lim]):
                    c = c1 * c2
                    for ai, ei, gi in zip(alpha, e2, gamma):
                        c *= math.comb(ai, gi) * math.perm(ei, gi)
                    yield ((tuple(x - g for x, g in zip(deriv, gamma)),
                            tuple(x - g for x, g in zip(expo, gamma)) + expo[nv:]), c)

    return DiffOp(a.vs, accumulate({}, products()))


def _shifted(op, deriv_by, expo_by):
    """The operator with every derivative order raised by ``deriv_by`` and
    every exponent by ``expo_by``."""
    return DiffOp(op.vs, {(tuple(x + deriv_by for x in d), tuple(x + expo_by for x in e)): c
                          for (d, e), c in op.terms.items()})


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (2, 1)])
def test_compose_matches_leibniz_oracle(d, ell, algebra):
    alg = algebra(d, ell)
    vs = VarSet.for_spec(alg.spec)
    rng = random.Random(67)
    # generator images are first order on the left; their products are not
    images = [realize_generator(alg.spec, g) for g in alg.basis]
    for x, y in itertools.product(images, repeat=2):
        assert compose(x, y) == _leibniz_oracle(x, y)
    for x, y, z in (rng.sample(images, 3) for _ in range(10)):
        xy = compose(x, y)
        assert compose(xy, z) == _leibniz_oracle(xy, z)
        assert compose(z, xy) == _leibniz_oracle(z, xy)
    big = 2**30
    for _ in range(20):
        a, b = _random_op(vs, rng, degree=4), _random_op(vs, rng, degree=4)
        assert compose(a, b) == _leibniz_oracle(a, b)
        # entries near 2^30: fields sum to just under the guard bit, and
        # Leibniz terms come from large orders (left) or exponents (right)
        pairs = [(_shifted(a, big - 3, big - 5), b), (a, _shifted(b, big - 7, big + 4))]
        for x, y in pairs:
            assert compose(x, y) == _leibniz_oracle(x, y)


def test_compose_refuses_a_carry_into_the_guard_bit(algebra):
    vs = VarSet.for_spec(algebra(1, "3/2").spec)
    top = symbol(vs, "t", 2**31 - 1)
    assert compose(partial(vs, "t"), top).terms  # stays inside its field
    with pytest.raises(ValueError):
        compose(top, symbol(vs, "t"))
    with pytest.raises(ValueError):  # a first-order left term: t ∂_t ∘ t^(2^31-1)
        compose(compose(symbol(vs, "t"), partial(vs, "t")), top)
    with pytest.raises(ValueError):
        compose(symbol(vs, "m", 2**30), symbol(vs, "m", 2**30))


def test_compose_refuses_a_product_above_max_terms(algebra, monkeypatch):
    alg = algebra(1, "3/2")
    d = realize_generator(alg.spec, alg.generator("D"))
    dd = compose(d, d)
    monkeypatch.setattr(realization, "MAX_TERMS", len(dd.packed))
    assert compose(d, d) == dd
    monkeypatch.setattr(realization, "MAX_TERMS", len(dd.packed) - 1)
    with pytest.raises(ValueError, match="exceeds the bound"):
        compose(d, d)


def _order(op):
    return max(sum(dk) for dk, _ in op.terms)


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (2, 1)])
def test_compose_under_a_cap_is_the_t_jet_of_the_product(d, ell, algebra):
    # generator images and their products on the left, as the jet walk
    # composes them, and one left operand of order two or more, whose
    # terms go through the higher-order loop
    alg = algebra(d, ell)
    vs = VarSet.for_spec(alg.spec)
    rng = random.Random(73)
    images = [realize_generator(alg.spec, g) for g in alg.basis]
    products = [compose(x, y) for x, y in (rng.sample(images, 2) for _ in range(8))]
    dd = compose(images[alg.position(alg.generator("D"))], images[alg.position(alg.generator("C"))])
    assert _order(dd) >= 2
    lefts = images + products + [dd, _random_op(vs, rng, nterms=6, degree=4)]
    rights = images + products + [_random_op(vs, rng, nterms=6, degree=4) for _ in range(4)]
    for a in lefts:
        for b in rng.sample(rights, 6):
            full = compose(a, b)
            for cap in range(4):
                assert compose(a, b, cap) == t_jet(full, cap)


@pytest.mark.parametrize("d,ell", [(1, "1/2"), (1, "7/2"), (2, 2)])
def test_compose_of_a_many_term_left_operand_matches_leibniz_oracle(d, ell, algebra):
    # left terms of order two or more loop inside the image's terms; at
    # ell=1/2 rho(C) has the coefficient 1/2
    alg = algebra(d, ell)
    word = max((op for _, op in realize_monomials(alg, _quartic_ansatz(alg).monomials)),
               key=lambda op: len(op.packed))
    assert _order(word) >= 2
    for g in alg.basis:
        img = realize_generator(alg.spec, g)
        assert compose(word, img) == _leibniz_oracle(word, img), g.name


def test_compose_refuses_through_the_higher_order_loop(algebra, monkeypatch):
    alg = algebra(1, "3/2")
    vs = VarSet.for_spec(alg.spec)
    d = realize_generator(alg.spec, alg.generator("D"))
    dd = compose(d, d)
    assert _order(dd) == 2
    ddd = compose(dd, d)
    monkeypatch.setattr(realization, "MAX_TERMS", len(ddd.packed))
    assert compose(dd, d) == ddd
    monkeypatch.setattr(realization, "MAX_TERMS", len(ddd.packed) - 1)
    with pytest.raises(ValueError, match="exceeds the bound"):
        compose(dd, d)
    # t^(2^31-1) ∂_t² ∘ t carries t's exponent into its guard bit
    top = compose(symbol(vs, "t", 2**31 - 1), compose(partial(vs, "t"), partial(vs, "t")))
    assert compose(top, symbol(vs, "x0")).terms  # stays inside its field
    with pytest.raises(ValueError, match="exceeds 2147483647"):
        compose(top, symbol(vs, "t"))


def test_diffop_entries_must_fit_a_field(algebra):
    vs = VarSet.for_spec(algebra(1, "3/2").spec)
    deriv, expo = (0,) * vs.nvars, (0,) * vs.nsyms
    key = (deriv[:-1] + (2**31 - 1,), expo[:-1] + (5,))
    assert vs.unpack(vs.pack(*key)) == key
    assert DiffOp(vs, {key: 3}).terms == {key: 3}
    for bad in (2**31, -1):
        with pytest.raises(ValueError):
            DiffOp(vs, {(deriv, (bad,) + expo[1:]): 1})
        with pytest.raises(ValueError):
            symbol(vs, "delta", bad)


def _apply(op, f):
    """The operator acting on a polynomial ``f = {expo: coeff}``: each
    monomial of f is differentiated by ``deriv`` one step at a time, then
    multiplied by ``x^expo``."""
    out = {}
    for (deriv, expo), c in op.terms.items():
        for fe, fc in f.items():
            fe, fc = list(fe), fc * c
            for i, k in enumerate(deriv):
                for _ in range(k):
                    fc *= fe[i]
                    fe[i] -= 1
            if fc:
                key = tuple(a + b for a, b in zip(fe, expo))
                out[key] = out.get(key, 0) + fc
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("d,ell", [(1, "3/2"), (2, 1)])
def test_compose_matches_action_on_polynomials(d, ell, algebra):
    # the Weyl algebra acts faithfully on polynomials: an operator of order
    # <= n is fixed by its action on the monomials of degree <= n
    vs = VarSet.for_spec(algebra(d, ell).spec)
    rng = random.Random(53)
    for _ in range(20):
        a, b = _random_op(vs, rng, degree=4), _random_op(vs, rng, degree=4)
        order = sum(max((sum(dv) for dv, _ in op.terms), default=0) for op in (a, b))
        for mono in iter_exponents(vs.nvars, order):
            f = {mono + (0,) * len(vs.parameters): 1}
            assert _apply(compose(a, b), f) == _apply(a, _apply(b, f))


@pytest.mark.parametrize("d,ell", [(1, f"{n}/2") for n in range(1, 18, 2)]
                         + [(2, ell) for ell in range(1, 6)])
def test_verify_realization(d, ell, algebra):
    assert verify_realization(algebra(d, ell)) == []


def test_verify_realization_fault_injection(algebra, monkeypatch):
    alg = algebra(1, "3/2")
    monkeypatch.setattr(realization, "realize_generator", lambda spec, g: realize_generator(
        spec, g).scale(-1 if g.name == "C" else 1))
    failures = verify_realization(alg)
    assert failures
    assert any({x.name, y.name} == {"C", "H"} for x, y, _ in failures)


def test_realize_element_basics(algebra):
    alg = algebra(1, "3/2")
    vs = VarSet.for_spec(alg.spec)
    assert realize_element(alg, UEAElement.one(alg)) == DiffOp.identity(vs)
    m2 = from_term_list(alg, [(1, ["M", "M"])])
    op = realize_element(alg, m2)
    assert op == symbol(vs, "m", 2)
    ok, residual = is_parameter_scalar(op)
    assert ok and residual.is_zero()


def _word_fold(alg, mono):
    """The monomial's image as a left fold of its generator images from
    the identity, one compose per letter and no shared prefixes."""
    op = DiffOp.identity(VarSet.for_spec(alg.spec))
    for p in mono:
        op = compose(op, realize_generator(alg.spec, alg.basis[p]))
    return op


def _quartic_ansatz(alg):
    grade, degree = default_target_grades(alg.spec)[-1]
    return enumerate_ansatz(alg, grade, degree)


def _t_degree_at_most(op, cap):
    return DiffOp(op.vs, {(dk, e): c for (dk, e), c in op.terms.items() if e[0] <= cap})


def _check_monomials_against_folds(alg, jet):
    monos = _quartic_ansatz(alg).monomials
    folds = [_word_fold(alg, m) for m in monos]
    if jet is not None:
        folds = [_t_degree_at_most(op, jet) for op in folds]
    seen = []
    for i, op in realize_monomials(alg, monos, jet):
        assert op == folds[i], monos[i]
        seen.append(i)
    assert sorted(seen) == list(range(len(monos)))


@pytest.mark.parametrize("d,ell", [(1, "7/2"), (2, 2)])
def test_realize_monomials_matches_word_folds(d, ell, algebra):
    _check_monomials_against_folds(algebra(d, ell), None)


@pytest.mark.parametrize("jet", [0, 1, 3])
@pytest.mark.parametrize("d,ell", [(1, "7/2"), (2, 2)])
def test_realize_monomials_under_a_jet_matches_truncated_word_folds(d, ell, jet, algebra):
    # with a jet K, each image is the fold's terms of t-degree at most K
    _check_monomials_against_folds(algebra(d, ell), jet)


@pytest.mark.parametrize("d,ell", [(1, "9/2"), (2, 3)])
def test_realize_monomials_under_the_jet_cuts_the_uncapped_walk(d, ell, algebra):
    # the capped walk makes only the terms each image keeps; they are the
    # uncapped images' terms of t-degree at most JET
    alg = algebra(d, ell)
    monos = _quartic_ansatz(alg).monomials
    full = dict(realize_monomials(alg, monos))
    capped = dict(realize_monomials(alg, monos, solver.JET))
    assert sorted(capped) == sorted(full) == list(range(len(monos)))
    for i, op in capped.items():
        assert op == t_jet(full[i], solver.JET), monos[i]


# d=1 ell=3/2 letters: M 0, P0 1, H 2, P1 3, D 4, P2 5, C 6, P3 7
@pytest.mark.parametrize("jet", [0, 1])
def test_realize_monomials_shares_a_suffix_only_under_equal_caps(jet, algebra):
    # P0 P3 and H P3 share the suffix P3, whose t-degree cap is K under P0
    # but K + 1 under H
    alg = algebra(1, "3/2")
    monos = [(1, 7), (2, 7), (2, 2, 7), (1, 2, 7)]
    for i, op in realize_monomials(alg, monos, jet):
        assert op == _t_degree_at_most(_word_fold(alg, monos[i]), jet), monos[i]


@pytest.mark.parametrize("terms", [
    {(): 5, (4,): -2},
    {(2,): 1, (2, 4): 3, (2, 4, 4): Fraction(-1, 2), (2, 4, 6): 2, (4, 6): 1},
    # P1² and P0 P2 share t²∂_x0² and 2t∂_x0∂_x1, which cancel under M
    {(0, 3, 3): 1, (0, 1, 5): -1},
    # one long word, 20,451 terms; D^40's fold alone would take about 4 s
    {(4,) * 24: 1},
], ids=["empty_word", "prefixes", "cancelling_pair", "D^24"])
def test_realize_element_matches_word_folds(terms, algebra):
    alg = algebra(1, "3/2")
    expect = DiffOp(VarSet.for_spec(alg.spec))
    for w, c in terms.items():
        expect += _word_fold(alg, w).scale(c)
    assert realize_element(alg, UEAElement(alg, terms)) == expect


def test_realize_element_composes_each_prefix_once(algebra, monkeypatch):
    # the prefixes of the reversed words, each right-multiplied by the
    # image of its last letter
    alg = algebra(1, "7/2")
    monos = _quartic_ansatz(alg).monomials
    rng = random.Random(61)
    element = UEAElement(alg, {m: rng.randint(1, 9) for m in monos})
    images = [realize_generator(alg.spec, g) for g in alg.basis]
    rights = []

    def counting(a, b):
        rights.append(b)
        return compose(a, b)

    monkeypatch.setattr(realization, "compose", counting)
    realize_element(alg, element)
    prefixes = {m[::-1][:j] for m in monos for j in range(1, len(m) + 1)}
    assert len(rights) == len(prefixes)
    assert all(b in images for b in rights)
    assert sorted(images.index(b) for b in rights) == sorted(p[-1] for p in prefixes)


@pytest.mark.parametrize("d,ell", [(1, "9/2"), (2, 3)])
def test_realize_element_of_each_jet_nullspace_vector_matches_word_folds(d, ell, algebra):
    # the elements the pipeline's certificate realises
    alg = algebra(d, ell)
    basis = _quartic_ansatz(alg)
    n = len(basis.monomials)
    null = nullspace(realization_candidate_system(alg, basis, solver.JET))
    assert null
    for v in null:
        ansatz = {basis.monomials[i]: c for i, c in v.items() if i < n}
        expect = DiffOp(VarSet.for_spec(alg.spec))
        for w, c in ansatz.items():
            expect += _word_fold(alg, w).scale(c)
        assert realize_element(alg, UEAElement(alg, ansatz)) == expect


@pytest.mark.parametrize("d,ell", [(1, "7/2"), (2, 2)])
def test_candidate_system_matches_build_from_folds(d, ell, algebra):
    alg = algebra(d, ell)
    basis = _quartic_ansatz(alg)
    vs = VarSet.for_spec(alg.spec)
    rows, columns = {}, list(basis.monomials)
    for ci, mono in enumerate(basis.monomials):
        for (dk, e), c in _word_fold(alg, mono).terms.items():
            rows.setdefault(("real", dk, e), {})[ci] = c
    pmax = max(sum(e[vs.nvars:]) for _, _, e in rows)
    diagonal = [DiffOp.identity(vs), realize_generator(alg.spec, alg.generator("D"))]
    if d == 2:
        diagonal.append(realize_generator(alg.spec, alg.generator("J")))
    for bop in diagonal:
        for tail in iter_exponents(len(vs.parameters), pmax):
            pm = (0,) * vs.nvars + tail
            columns.append((bop, vs.pack((0,) * vs.nvars, pm)))
            for (dk, e), c in bop.terms.items():
                key = ("real", dk, tuple(a + b for a, b in zip(e, pm)))
                rows.setdefault(key, {})[len(columns) - 1] = -c
    sys = realization_candidate_system(alg, basis)
    assert sys.columns == columns
    assert sys.matrix == [rows[t] for t in sorted(rows)]


@pytest.mark.parametrize("d,ell", [(1, "7/2"), (2, 2)])
def test_realize_element_ignores_term_order(d, ell, algebra):
    alg = algebra(d, ell)
    monos = list(_quartic_ansatz(alg).monomials)
    rng = random.Random(59)
    coeffs = {m: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for m in monos}
    vs = VarSet.for_spec(alg.spec)
    expect = DiffOp(vs)
    for m in monos:
        expect += _word_fold(alg, m).scale(coeffs[m])
    rng.shuffle(monos)
    shuffled = UEAElement(alg, {m: coeffs[m] for m in monos})
    assert list(shuffled.terms) == monos
    assert realize_element(alg, shuffled) == expect


def test_realize_casimirs_are_parameter_scalars(algebra):
    alg = algebra(2, 1)
    k2 = from_term_list(alg, kc.D2_L1_QUADRATIC)
    op = realize_element(alg, k2)
    ok, _ = is_parameter_scalar(op)
    assert ok
    scalar = op - is_parameter_scalar(op)[1]
    vs = op.vs
    assert not scalar.is_zero()
    names = vs.variables + vs.parameters
    used = {names[i] for _, e in scalar.terms for i, k in enumerate(e) if k}
    assert used <= {"r", "theta"}

    alg1 = algebra(1, "3/2")
    ok1, _ = is_parameter_scalar(realize_element(alg1, from_term_list(alg1, kc.D1_L32_QUARTIC)))
    assert ok1


def test_is_parameter_scalar_residual(algebra):
    vs = VarSet.for_spec(algebra(1, "3/2").spec)
    dt = partial(vs, "t")
    ok, residual = is_parameter_scalar(dt)
    assert not ok and residual == dt
    tx = symbol(vs, "t")
    ok2, residual2 = is_parameter_scalar(tx)
    assert not ok2 and residual2 == tx


def test_realize_is_morphism_randomized(algebra):
    alg = algebra(1, "3/2")
    rng = random.Random(41)
    for _ in range(15):
        terms_a = {}
        terms_b = {}
        for terms in (terms_a, terms_b):
            for _ in range(2):
                word = sorted(rng.randrange(alg.dim) for _ in range(rng.randint(0, 2)))
                terms[tuple(word)] = Fraction(rng.randint(-3, 3), 1)
        a, b = UEAElement(alg, terms_a), UEAElement(alg, terms_b)
        assert realize_element(alg, multiply(alg, a, b)) == compose(
            realize_element(alg, a), realize_element(alg, b))


def test_casimir_image_commutes_with_generator_images(algebra):
    alg = algebra(2, 1)
    k2 = realize_element(alg, from_term_list(alg, kc.D2_L1_QUADRATIC))
    for g in alg.basis:
        img = realize_generator(alg.spec, g)
        assert (compose(k2, img) - compose(img, k2)).is_zero()


def test_diffop_json(algebra):
    alg = algebra(1, "3/2")
    op = realize_generator(alg.spec, GeneratorId("D"))
    data = diffop_json_dict(op)
    assert {"deriv": {"t": 1}, "poly": [{"monomial": {"t": 1}, "coeff": "-2"}]} in data["terms"]
    const = next(e for e in data["terms"] if e["deriv"] == {})
    assert const["poly"] == [{"monomial": {"delta": 1}, "coeff": "1"}]
