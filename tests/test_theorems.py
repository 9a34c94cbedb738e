import hashlib
import json
import os
import re
from fractions import Fraction

import pytest

from cgcasimir import theorems
from cgcasimir.solver import proportional, rref, span_contains, element_vector, verify_casimir
from cgcasimir.theorems import (
    TheoremRangeError,
    TheoremTerm,
    build_theorem_casimir,
    theorem_casimir_report,
    theorem_report,
    theorem_terms,
)
from cgcasimir.uea import UEAElement, from_term_list, monomial_word, omega, word_monomial

import known_casimirs as kc

# every point where a closed form is defined, up to the top of the ladder
CLOSED_FORM_POINTS = ([(1, f"{n}/2", "quartic") for n in range(5, 18, 2)]
                      + [(2, str(ell), "quartic") for ell in range(3, 7)]
                      + [(2, str(ell), "quadratic") for ell in range(1, 7)])


@pytest.mark.parametrize("ell,key", [(1, "d2_l1"), (2, "d2_l2"), (3, "d2_l3")])
def test_quadratic_closed_form_matches_displays(ell, key, algebra):
    alg = algebra(2, ell)
    built = build_theorem_casimir(alg.spec, "quadratic")
    assert (built - from_term_list(alg, kc.KNOWN[(key, "quadratic")])).is_zero()
    assert verify_casimir(alg, built) is None


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_quadratic_report_verifies_as_printed(ell, algebra):
    tr = theorem_report(algebra(2, ell).spec, "quadratic")
    assert tr.verified
    assert tr.discrepancies == []
    assert tr.corrected is None


def test_term_supports_are_disjoint(algebra):
    for spec, which in [(algebra(2, 3).spec, "quartic"),
                        (algebra(1, "5/2").spec, "quartic"),
                        (algebra(2, 2).spec, "quadratic")]:
        seen = set()
        for t in theorem_terms(spec, which):
            monos = set(t.element.terms)
            assert not (monos & seen)
            assert all(c == 1 for c in t.element.terms.values())
            seen |= monos


def _golden_terms_digests():
    with open(os.path.join(os.path.dirname(__file__), "fixtures",
                           "theorem_terms_sha256.json")) as fh:
        return json.load(fh)


def _terms_digest(terms):
    rows = [[t.name, str(t.value),
             sorted([list(w), str(c)] for w, c in t.element.terms.items())]
            for t in terms]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_theorem_terms_match_golden_digests(algebra):
    # each closed form's (name, value, element) list, pinned term by term
    seen = {}
    for d, ell, which in CLOSED_FORM_POINTS:
        key = f"d{d}_ell_{ell.replace('/', '_')}_{which}"
        seen[key] = _terms_digest(theorem_terms(algebra(d, ell).spec, which))
    assert seen == _golden_terms_digests()


def test_whole_coefficients_stay_int(algebra):
    alg = algebra(1, "3/2")
    elem = from_term_list(alg, [(1, ["D"] * 3), ("6/3", ["C", "H"]), (Fraction(1, 2), ["P0"])])
    assert {type(c) for m, c in elem.terms.items() if m != (1,)} == {int}
    assert elem.terms[(1,)] == Fraction(1, 2)
    integral = from_term_list(alg, [(1, ["D"] * 3), (2, ["C", "H"])])
    assert {type(c) for c in integral.scale(2).terms.values()} == {int}
    assert {type(c) for c in integral.scale(Fraction(4, 2)).terms.values()} == {int}
    terms = theorem_terms(algebra(2, 3).spec, "quartic")
    assert {type(t.value) for t in terms if t.value.denominator == 1} == {int}
    assert {type(t.value) for t in terms if t.value.denominator != 1} == {Fraction}
    # str(3) is str(Fraction(3)), so the pinned terms are unchanged
    assert _terms_digest(terms) == _golden_terms_digests()["d2_ell_3_quartic"]


# what the solver puts on the pair P_(ell-2)*P_(ell-1)*Q_(ell+1)*Q_(ell+2)
# and its ω-image, which the d=2 quartic tables print as 0
_D2_UNPRINTED_PAIR = {3: Fraction(-7, 12), 4: Fraction(-77, 360), 5: Fraction(-2, 45),
                      6: Fraction(-121, 20160)}


def _discrepancy_family(spec, term):
    """(family, index) of one quartic discrepancy, read off its term name;
    family None when no family claims it."""
    n = spec.two_ell
    half = n // 2
    idx = [int(x) for x in re.findall(r"(?<=[PQ])\d+", term)]
    shape = re.sub(r"(?<=[PQ])\d+", "#", term)
    if spec.d == 1 and shape == "P#^2*P#^2" and idx == [half, half + 1]:
        return "self-mirror square", None
    if spec.d == 1:
        return None, term
    if shape == "Theta*Q#*P#" and idx[0] + idx[1] == n:
        return "theta sign", idx[0]
    if shape == "Q#*P#*Q#*P#" and idx[0] == idx[1] and idx[2] == idx[3] == n - idx[0]:
        return "tower square", idx[0]
    if shape == "P#*Q#*P#*Q# + P#*Q#*P#*Q#":
        i, j = idx[0], idx[1] - 3
        if idx[2:4] == [n - j - 2, n - i - 1]:
            return "paired sign", (i, j)
    if shape in ("P#*P#*Q#*Q#", "Q#*Q#*P#*P#") and idx == [half - 2, half - 1, half + 1, half + 2]:
        return "unprinted pair", shape[0]
    return None, term


@pytest.mark.parametrize("d,ell", [(d, ell) for d, ell, which in CLOSED_FORM_POINTS
                                   if which == "quartic"])
def test_quartic_discrepancies_fall_into_named_families(d, ell, algebra):
    # every way the printed quartic tables differ from the solved Casimir,
    # one family at a time; a drift in the tables, the solver or the report
    # fails under the family's name
    spec = algebra(d, ell).spec
    n, half = spec.two_ell, spec.two_ell // 2
    families = {}
    for disc in theorem_report(spec, "quartic").discrepancies:
        name, index = _discrepancy_family(spec, disc.term)
        families.setdefault(name, {})[index] = (disc.closed_form, disc.solver)
    assert None not in families, f"unclassified: {families.get(None)}"
    if d == 1:
        # P_k^2*P_(k+1)^2, k = ell - 1/2, the one term ω fixes: off by (ell + 1/2)^2
        ((printed, solver),) = families.pop("self-mirror square").values()
        assert printed == solver / (spec.ell + Fraction(1, 2)) ** 2
    else:
        # Theta*Q_k*P_(2ell-k), k = 0 .. ell-2: sign flipped
        theta = families.pop("theta sign")
        assert sorted(theta) == list(range(half - 1)), "theta sign"
        assert all(p == -s for p, s in theta.values()), "theta sign"
        # Q_k*P_k*Q_(2ell-k)*P_(2ell-k), k = 0 .. ell-1: printed = solver * (2ell-k)^2
        square = families.pop("tower square")
        assert sorted(square) == list(range(half)), "tower square"
        assert all(p == s * (n - k) ** 2 for k, (p, s) in square.items()), "tower square"
        # P_i*Q_(j+3)*P_(2ell-j-2)*Q_(2ell-i-1) plus its ω-image, 0 <= i <= j <= ell-3:
        # every sign flipped at odd ell, none at even ell
        paired = families.pop("paired sign", {})
        flipped = [(i, j) for i in range(half - 2) for j in range(i, half - 2)] if half % 2 else []
        assert sorted(paired) == flipped, "paired sign"
        assert all(p == -s for p, s in paired.values()), "paired sign"
        # P_(ell-2)*P_(ell-1)*Q_(ell+1)*Q_(ell+2) and its ω-image: printed as 0
        unprinted = families.pop("unprinted pair")
        assert unprinted == {k: (0, _D2_UNPRINTED_PAIR[half]) for k in "PQ"}, "unprinted pair"
    assert not families


@pytest.mark.parametrize("d,ell,which", CLOSED_FORM_POINTS)
def test_theorem_terms_are_omega_invariant(d, ell, which, algebra):
    alg = algebra(d, ell)
    for t in theorem_terms(alg.spec, which):
        assert omega(alg, t.element) == t.element, t.name


def test_d1_quartic_leading_coefficients_ell_52(algebra):
    alg = algebra(1, "5/2")
    built = build_theorem_casimir(alg.spec, "quartic")

    def coeff(names):
        expo = [0] * alg.dim
        for n in names:
            expo[alg.position(alg.generator(n))] += 1
        return built.coefficient(monomial_word(expo))

    assert coeff(["M", "M", "D"]) == 132
    assert coeff(["M", "M", "D", "D"]) == -12
    assert coeff(["M", "M", "H", "C"]) == 48


def test_d1_quartic_report_ell_52(algebra):
    # the closed form as printed disagrees with the solved Casimir in
    # exactly one coefficient; the corrected element is the published one
    alg = algebra(1, "5/2")
    tr = theorem_report(alg.spec, "quartic")
    assert not tr.verified
    assert [d.term for d in tr.discrepancies] == ["P2^2*P3^2"]
    d = tr.discrepancies[0]
    assert d.closed_form == Fraction(2, 27)
    assert d.solver == Fraction(2, 3)
    assert verify_casimir(alg, tr.corrected) is None
    assert (tr.corrected - from_term_list(alg, kc.D1_L52_QUARTIC)).is_zero()


@pytest.mark.parametrize("ell", ["5/2", "9/2"])
def test_d1_quartic_discrepancies_are_fractions(ell, algebra):
    # the solver's ratios are exact: an int / int division would be a float
    tr = theorem_report(algebra(1, ell).spec, "quartic")
    assert tr.discrepancies
    assert all(type(d.solver) is Fraction for d in tr.discrepancies)


def test_d1_quartic_report_ell_72(algebra):
    alg = algebra(1, "7/2")
    tr = theorem_report(alg.spec, "quartic")
    assert not tr.verified
    # the same single misprinted coefficient, off by (ell + 1/2)^2
    assert [d.term for d in tr.discrepancies] == ["P3^2*P4^2"]
    d = tr.discrepancies[0]
    assert d.solver / d.closed_form == 16
    assert verify_casimir(alg, tr.corrected) is None


def test_d2_quartic_report_ell_3(algebra):
    alg = algebra(2, 3)
    tr = theorem_report(alg.spec, "quartic")
    assert not tr.verified
    got = {d.term: (d.closed_form, d.solver) for d in tr.discrepancies}
    # two sign-flipped term families, three denominator slips, one
    # whole pair missing from the printed coefficient table
    assert got["Theta*Q0*P6"] == (Fraction(8), Fraction(-8))
    assert got["Theta*Q1*P5"] == (Fraction(-24), Fraction(24))
    assert got["Q0*P0*Q6*P6"] == (Fraction(-3, 10), Fraction(-1, 120))
    assert got["Q1*P1*Q5*P5"] == (Fraction(-10, 3), Fraction(-2, 15))
    assert got["Q2*P2*Q4*P4"] == (Fraction(-10, 3), Fraction(-5, 24))
    assert got["P0*Q3*P4*Q5 + P1*Q2*P3*Q6"] == (Fraction(-1, 6), Fraction(1, 6))
    assert got["P1*P2*Q4*Q5"] == (Fraction(0), Fraction(-7, 12))
    assert got["Q1*Q2*P4*P5"] == (Fraction(0), Fraction(-7, 12))
    assert len(got) == 8
    assert verify_casimir(alg, tr.corrected) is None
    assert (tr.corrected - from_term_list(alg, kc.D2_L3_QUARTIC)).is_zero()


def test_split_term_reports_monomials_in_exponent_order(algebra, monkeypatch):
    # three printed terms that the solver corrects by different factors,
    # merged into one term with the same sum, are reported monomial by
    # monomial in the plain order of their exponent tuples
    alg = algebra(2, 3)
    terms = theorem_terms(alg.spec, "quartic")
    names = ["Q0*P0*Q6*P6", "Q1*P1*Q5*P5", "Q2*P2*Q4*P4"]
    group = [t for t in terms if t.name in names]
    lead = group[0]
    merged = TheoremTerm("merged", lead.value, sum(
        (t.element.scale(t.value / lead.value) for t in group), UEAElement.zero(alg)))
    monkeypatch.setattr(theorems, "theorem_terms",
                        lambda spec, which: [t for t in terms if t not in group] + [merged])
    tr = theorem_report(alg.spec, "quartic")
    expo = {t.name: word_monomial(alg.dim, next(iter(t.element.terms))) for t in group}
    assert [d.term for d in tr.discrepancies if d.term.startswith("merged")] == [
        f"merged [{n}]" for n in sorted(names, key=expo.__getitem__)]


def test_d2_quartic_report_ell_4(algebra):
    # beyond the gated range: the same misprint families recur at ell=4,
    # except the sign-alternating family whose printed exponent has the
    # right parity at even ell
    alg = algebra(2, 4)
    tr = theorem_report(alg.spec, "quartic")
    assert not tr.verified
    terms = [d.term for d in tr.discrepancies]
    assert "Theta*Q0*P8" in terms and "Theta*Q2*P6" in terms
    assert "Q0*P0*Q8*P8" in terms
    assert "P2*P3*Q5*Q6" in terms  # the pair the printed ranges omit
    assert not any(t.startswith("P0*Q3") for t in terms)
    assert verify_casimir(alg, tr.corrected) is None


@pytest.mark.parametrize("d,ell,which", [
    (1, "3/2", "quartic"),   # stated special case below the covered range
    (1, "5/2", "quadratic"),
    (2, 2, "quartic"),
    (2, 1, "nonsense"),
])
def test_out_of_range(d, ell, which, algebra):
    with pytest.raises(TheoremRangeError):
        build_theorem_casimir(algebra(d, ell).spec, which)


def test_closed_forms_lie_in_solved_span(solved, algebra):
    # a verified closed form (or its corrected projection) always lies in
    # the solver's Casimir span
    for d, ell, which, grade, deg in [
        (2, 1, "quadratic", (0, 1, 0), 2),
        (2, 2, "quadratic", (0, 1, 0), 2),
        (1, "5/2", "quartic", (0, 10), 4),
    ]:
        alg = algebra(d, ell)
        tr = theorem_report(alg.spec, which)
        rep = solved(d, ell, grade, deg, "pipeline")
        rows, pivots = rref(rep.casimir_vectors, len(rep.ansatz.monomials))
        assert span_contains(rows, pivots, element_vector(rep.ansatz, tr.best))


def test_theorem_payload(algebra):
    tr, payload = theorem_casimir_report(algebra(1, "5/2").spec, "quartic")
    assert payload["provenance"] == "theorem"
    assert payload["verified"] is True  # the corrected element verifies
    assert payload["closed_form"]["as_printed_verified"] is False
    assert payload["closed_form"]["discrepancies"] == [
        {"term": "P2^2*P3^2", "closed_form": "2/27", "solver": "2/3"}]
    tr2, payload2 = theorem_casimir_report(algebra(2, 3).spec, "quadratic")
    assert payload2["verified"] is True
    assert payload2["closed_form"]["as_printed_verified"] is True
