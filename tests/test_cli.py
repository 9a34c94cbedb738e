import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgcasimir import cli, grading, liealg, realization, solver, theorems, uea
from cgcasimir.cli import main
from cgcasimir.grading import MAX_ANSATZ, MAX_HALF_WORDS
from cgcasimir.liealg import MAX_DIM, MAX_TRIALS, make_cga, parse_spec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_d1(capsys):
    code, out, _ = run(capsys, "algebra", "--d", "1", "--ell", "3/2")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == ["M", "P0", "H", "P1", "D", "P2", "C", "P3"]


def test_algebra_d2_dimension(capsys):
    code, out, _ = run(capsys, "algebra", "--d", "2", "--ell", "1")
    assert code == 0
    assert len(json.loads(out)["basis"]) == 11


def test_algebra_rejects_bad_spec(capsys):
    code, _, err = run(capsys, "algebra", "--d", "1", "--ell", "2")
    assert code == 2
    assert "central extension" in err


def test_rank(capsys):
    code, out, _ = run(capsys, "rank", "--d", "1", "--ell", "5/2")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "rank", "--d", "2", "--ell", "3")
    assert code == 0 and out.strip() == "3"


def test_rank_seed_independent(capsys):
    outs = set()
    for seed in ("0", "7", "123"):
        code, out, _ = run(capsys, "rank", "--d", "1", "--ell", "3/2", "--seed", seed)
        assert code == 0
        outs.add(out.strip())
    assert outs == {"2"}


def test_solve_writes_verified_report(tmp_path, capsys, algebra):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "2",
                       "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["verified"] is True
    assert report["grade"] == [0, 1, 0]
    assert report["provenance"] == "pipeline"
    assert len(report["canonical"]) == 1
    assert json.loads(out) == report
    # the canonical element is the published quadratic Casimir up to scale
    from cgcasimir.solver import proportional
    from cgcasimir.uea import from_json_dict
    alg = algebra(2, 1)
    got = from_json_dict(alg, report["canonical"][0])
    with open(fixture("d2_ell_1_quadratic.json")) as fh:
        known = from_json_dict(alg, json.load(fh))
    assert proportional(got, known)


def test_solve_round_trips_through_verify(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "solve", "--d", "1", "--ell", "3/2", "--degree", "4",
                     "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--d", "1", "--ell", "3/2",
                       "--in", str(out_file))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_solve_deterministic_output(tmp_path, capsys):
    paths = []
    for i in range(2):
        p = tmp_path / f"r{i}.json"
        code, _, _ = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "2",
                         "--out", str(p))
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_solve_methods_agree_on_canonical(tmp_path, capsys):
    reports = {}
    for method in ("pipeline", "algebraic"):
        p = tmp_path / f"{method}.json"
        code, _, _ = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "2",
                         "--method", method, "--out", str(p))
        assert code == 0
        reports[method] = json.loads(p.read_text())
    assert reports["pipeline"]["canonical"] == reports["algebraic"]["canonical"]


def test_solve_explicit_grade(capsys):
    code, out, _ = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "1",
                       "--grade", "0,1,0")
    assert code == 0
    data = json.loads(out)
    assert data["casimir_dim"] == 1  # just the central element


def test_solve_rejects_degree_zero(capsys):
    code, _, err = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "0",
                       "--grade", "0,1,0")
    assert code == 2


def test_rank_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "rank", "--d", "1", "--ell", "3/2", "--trials", "0")
    assert code == 2


def test_rank_refuses_huge_trials_before_any_point(capsys, monkeypatch):
    def no_rank(*args):
        raise AssertionError("a structure matrix was evaluated")

    monkeypatch.setattr(liealg, "_forward", no_rank)
    code, out, err = run(capsys, "rank", "--d", "1", "--ell", "3/2", "--trials", "1000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(MAX_TRIALS) in err


@pytest.mark.parametrize("argv", [["algebra"], ["rank"], ["solve", "--degree", "2"]])
def test_oversized_algebra_is_refused_before_any_basis(argv, capsys, monkeypatch):
    # d=1 ell=9999/2 has 10,004 generators; its dense bracket table alone
    # would take gigabytes
    def never(spec):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(liealg, "_basis_d1", never)
    code, out, err = run(capsys, argv[0], "--d", "1", "--ell", "9999/2", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(MAX_DIM) in err


def test_algebra_prints_integers_past_the_interpreter_digit_limit(capsys):
    # d=1 ell=1559/2's central pairings (1559-m)!·m! pass 4,300 decimal
    # digits, the default limit of Python 3.11's int-to-str conversion
    code, out, err = run(capsys, "algebra", "--d", "1", "--ell", "1559/2")
    assert code == 0 and err == ""
    assert max(len(e["value"][0]["coeff"]) for e in json.loads(out)["brackets"]) > 4300


def test_solve_over_a_thousand_generators(capsys):
    code, out, _ = run(capsys, "solve", "--d", "1", "--ell", "999/2", "--degree", "2",
                       "--grade", "0,1998", "--method", "algebraic")
    assert code == 0
    assert json.loads(out)["casimir_dim"] == 1  # M^2


def test_solve_refuses_oversized_ansatz_before_any_table(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a half-word table was built")

    monkeypatch.setattr(grading, "combinations_with_replacement", never)
    code, out, err = run(capsys, "solve", "--d", "1", "--ell", "999/2", "--degree", "6",
                         "--grade", "0,1998")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(MAX_HALF_WORDS) in err


def test_solve_refuses_oversized_join_before_any_monomial(capsys, refuse_joins):
    # 82,215 half-words pass MAX_HALF_WORDS; the joined ansatz would not fit
    # in memory as a list
    code, out, err = run(capsys, "solve", "--d", "1", "--ell", "399/2", "--degree", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(MAX_ANSATZ) in err


def test_solve_rejects_unresolvable_grade(capsys):
    code, _, err = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "3")
    assert code == 2 and "grade" in err
    assert err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "2",
                       "--grade", "0,1")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "2",
                       "--grade", "a,b")
    assert code == 2
    assert err == "error: cannot parse grade 'a,b'\n"


def test_verify_fixture_casimirs(capsys):
    code, _, _ = run(capsys, "verify", "--d", "1", "--ell", "5/2",
                     "--in", fixture("d1_ell_5_2_quartic.json"))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--d", "2", "--ell", "1",
                     "--in", fixture("d2_ell_1_central.json"))
    assert code == 0


def test_verify_rejects_non_casimir(capsys):
    code, out, _ = run(capsys, "verify", "--d", "2", "--ell", "2",
                       "--in", fixture("d2_ell_2_quartic_candidate_a.json"))
    assert code == 1
    data = json.loads(out)
    assert data["verified"] is False
    assert data["failures"][0]["generator"]


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--d", "1", "--ell", "3/2",
                       "--in", "/nonexistent.json")
    assert code == 2


def test_verify_report_spec_mismatch(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "solve", "--d", "2", "--ell", "1", "--degree", "2",
                     "--out", str(out_file))
    assert code == 0
    code, _, err = run(capsys, "verify", "--d", "2", "--ell", "2",
                       "--in", str(out_file))
    assert code == 2
    assert "produced for" in err


def test_theorem_quadratic(capsys):
    code, out, _ = run(capsys, "theorem", "--d", "2", "--ell", "3", "--which", "quadratic")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["closed_form"]["as_printed_verified"] is True


def test_theorem_quartic_with_corrections(capsys):
    code, out, _ = run(capsys, "theorem", "--d", "1", "--ell", "5/2", "--which", "quartic")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["closed_form"]["as_printed_verified"] is False
    assert data["closed_form"]["discrepancies"]


def test_theorem_out_of_range(capsys):
    code, _, err = run(capsys, "theorem", "--d", "1", "--ell", "3/2", "--which", "quartic")
    assert code == 2
    assert "special" in err


def test_realize_generator(capsys):
    code, out, _ = run(capsys, "realize", "--d", "1", "--ell", "3/2", "--gen", "H",
                       "--format", "text")
    assert code == 0
    assert "-∂_t" in out
    code, out, _ = run(capsys, "realize", "--d", "1", "--ell", "3/2", "--gen", "D",
                       "--format", "text")
    assert code == 0
    assert "δ" in out


def test_realize_casimir_fixture_is_scalar(capsys):
    code, out, _ = run(capsys, "realize", "--d", "2", "--ell", "1",
                       "--in", fixture("d2_ell_1_quadratic.json"))
    assert code == 0
    data = json.loads(out)
    assert data["parameter_scalar"] is True
    assert data["residual_components"] == 0
    syms = {s for t in data["operator"]["terms"] for s in t["poly"][0]["monomial"]}
    assert syms <= {"r", "theta"}


def test_realize_exponents_wider_than_16_bits(capsys, tmp_path):
    # M^40000 realises as m^40000: the exponent fills more than 16 bits
    path = tmp_path / "m40000.json"
    path.write_text('{"terms":[{"monomial":{"M":40000,"H":2},"coeff":"1"}]}')
    code, out, _ = run(capsys, "realize", "--d", "1", "--ell", "3/2", "--in", str(path))
    assert code == 0
    assert json.loads(out)["operator"]["terms"] == [
        {"deriv": {"t": 2}, "poly": [{"coeff": "1", "monomial": {"m": 40000}}]}]


@pytest.mark.parametrize("command", ["realize", "verify"])
def test_oversized_element_refused_up_front(capsys, tmp_path, monkeypatch, command):
    # M^1000000000 would spell out a word of 10**9 letters; its degree alone refuses it
    def never(*args):
        raise AssertionError("work started on an oversized element")

    monkeypatch.setattr(realization, "compose", never)
    monkeypatch.setattr(solver, "commutator", never)
    path = tmp_path / "huge.json"
    path.write_text('{"terms":[{"monomial":{"M":1000000000},"coeff":"1"}]}')
    code, out, err = run(capsys, command, "--d", "1", "--ell", "3/2", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "degree" in err



def test_report_of_many_high_degree_terms_refused_up_front(capsys, tmp_path, monkeypatch):
    # each term is under MAX_DEGREE, but the report's words would hold
    # 65 * 2**16 letters together
    def never(*args):
        raise AssertionError("a word was spelled out")

    monkeypatch.setattr(uea, "monomial_word", never)
    element = {"terms": [{"monomial": {"M": uea.MAX_DEGREE}, "coeff": "1"}]}
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"canonical": [element] * 65}))
    code, out, err = run(capsys, "verify", "--d", "1", "--ell", "3/2", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(uea.MAX_LETTERS) in err

def test_realize_needs_input(capsys, tmp_path):
    code, _, err = run(capsys, "realize", "--d", "1", "--ell", "3/2")
    assert code == 2
    # a report of two elements is not one input
    path = tmp_path / "two.json"
    element = {"terms": [{"monomial": {"M": 1}, "coeff": "1"}]}
    path.write_text(json.dumps({"canonical": [element, element]}))
    _assert_rejected(*run(capsys, "realize", "--d", "1", "--ell", "3/2", "--in", str(path)))
    # an unknown name prints as it does inside a JSON element
    code, out, err = run(capsys, "realize", "--d", "1", "--ell", "3/2", "--gen", "Nope")
    _assert_rejected(code, out, err)
    assert err == "error: no generator named 'Nope' in this algebra\n"


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_fixtures_match_transcriptions(algebra):
    # the JSON assets are locked copies of the in-repo transcriptions
    import known_casimirs as kc
    from cgcasimir.uea import from_json_dict, from_term_list

    cases = {
        "d1_ell_3_2_quartic.json": (1, "3/2", kc.D1_L32_QUARTIC),
        "d1_ell_5_2_quartic.json": (1, "5/2", kc.D1_L52_QUARTIC),
        "d2_ell_1_quadratic.json": (2, 1, kc.D2_L1_QUADRATIC),
        "d2_ell_2_quadratic.json": (2, 2, kc.D2_L2_QUADRATIC),
        "d2_ell_3_quadratic.json": (2, 3, kc.D2_L3_QUADRATIC),
        "d2_ell_1_quartic.json": (2, 1, kc.D2_L1_QUARTIC),
        "d2_ell_2_quartic.json": (2, 2, kc.D2_L2_QUARTIC),
        "d2_ell_3_quartic.json": (2, 3, kc.D2_L3_QUARTIC),
        "d2_ell_1_quartic_candidate_a.json": (2, 1, kc.D2_L1_QUARTIC_CAND_A),
        "d2_ell_1_quartic_candidate_b.json": (2, 1, kc.D2_L1_QUARTIC_CAND_B),
        "d2_ell_2_quartic_candidate_a.json": (2, 2, kc.D2_L2_QUARTIC_CAND_A),
        "d2_ell_2_quartic_candidate_b.json": (2, 2, kc.D2_L2_QUARTIC_CAND_B),
    }
    for name, (d, ell, terms) in cases.items():
        alg = algebra(d, ell)
        with open(fixture(name)) as fh:
            stored = from_json_dict(alg, json.load(fh))
        assert stored == from_term_list(alg, terms), name


def _verify_json(tmp_path, capsys, payload, d="1", ell="3/2"):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return run(capsys, "verify", "--d", d, "--ell", ell, "--in", str(path))


def _assert_rejected(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _assert_rejected_naming_the_file(tmp_path, code, out, err):
    _assert_rejected(code, out, err)
    assert err.startswith(f"error: {tmp_path / 'input.json'}: ")


def test_verify_rejects_terms_not_a_list(tmp_path, capsys):
    _assert_rejected_naming_the_file(tmp_path, *_verify_json(tmp_path, capsys, {"terms": 5}))


def test_verify_rejects_zero_denominator(tmp_path, capsys):
    payload = {"terms": [{"monomial": {"M": 1}, "coeff": "1/0"}]}
    _assert_rejected_naming_the_file(tmp_path, *_verify_json(tmp_path, capsys, payload))


def test_verify_rejects_report_spec_without_ell(tmp_path, capsys):
    payload = {"spec": {"d": 1}, "canonical": [
        {"terms": [{"monomial": {"M": 1}, "coeff": "1"}]}]}
    _assert_rejected(*_verify_json(tmp_path, capsys, payload))


@pytest.mark.parametrize("spec", [{"d": True, "ell": 1.5}, {"d": 1, "ell": 1.5},
                                  {"d": True, "ell": "3/2"}, {"d": 1.0, "ell": "3/2"}])
def test_verify_rejects_a_report_spec_of_bool_or_float(tmp_path, capsys, spec):
    # int(True) is 1 and Fraction(1.5) is 3/2, so {"d": true, "ell": 1.5}
    # used to pass as d=1 ell=3/2 and verify
    payload = {"spec": spec, "canonical": [{"terms": [{"monomial": {"M": 1}, "coeff": "1"}]}]}
    _assert_rejected_naming_the_file(tmp_path, *_verify_json(tmp_path, capsys, payload))


@pytest.mark.parametrize("exponent", [-1, 1.5, True, "2"])
def test_verify_rejects_bad_exponent(tmp_path, capsys, exponent):
    # {"H": -1} used to become the empty monomial and verify as central
    payload = {"terms": [{"monomial": {"H": exponent}, "coeff": "1"}]}
    _assert_rejected_naming_the_file(tmp_path, *_verify_json(tmp_path, capsys, payload))


@pytest.mark.parametrize("term", [
    {"monomial": {"X9": 1}, "coeff": "1"},
    {"monomial": {"M": 1}, "coeff": 0.5},
    {"monomial": {"M": 1}, "coeff": "nan"},
    {"monomial": {"M": 1}},
])
def test_verify_rejects_malformed_terms(tmp_path, capsys, term):
    _assert_rejected_naming_the_file(tmp_path, *_verify_json(tmp_path, capsys, {"terms": [term]}))


@pytest.mark.parametrize("payload", [
    {"terms": []},
    {"terms": [{"monomial": {"Theta": 1}, "coeff": "0"}]},
    {"canonical": []},
    {"canonical": {"terms": []}},
], ids=["empty_element", "zero_coefficient", "empty_report", "report_of_no_list"])
def test_verify_rejects_zero_or_empty_input(tmp_path, capsys, payload):
    # zero commutes with every generator, but it is not a Casimir
    _assert_rejected_naming_the_file(tmp_path,
                                     *_verify_json(tmp_path, capsys, payload, d="2", ell="1"))


@pytest.mark.parametrize("command", ["realize", "verify"])
def test_malformed_json_is_bad_input(tmp_path, capsys, command):
    path = tmp_path / "truncated.json"
    path.write_text('{"terms": [\n')
    code, out, err = run(capsys, command, "--d", "1", "--ell", "3/2", "--in", str(path))
    _assert_rejected(code, out, err)
    assert err.startswith(f"error: bad input ({path}: ")


@pytest.mark.parametrize("command", ["realize", "verify"])
@pytest.mark.parametrize("key", ["terms", "canonical"], ids=["element", "report"])
def test_deeply_nested_json_is_bad_input(tmp_path, capsys, command, key):
    # the decoder recurses once per bracket, past the interpreter's depth limit
    path = tmp_path / "deep.json"
    path.write_text(f'{{"{key}": ' + "[" * 200000 + "]" * 200000 + "}")
    code, out, err = run(capsys, command, "--d", "1", "--ell", "3/2", "--in", str(path))
    _assert_rejected(code, out, err)
    assert str(path) in err


def test_realize_refuses_a_generator_and_a_file_together(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text('{"terms": [{"monomial": {"M": 1}, "coeff": 1}]}')
    code, out, err = run(capsys, "realize", "--d", "1", "--ell", "3/2",
                         "--gen", "P0", "--in", str(path))
    _assert_rejected(code, out, err)
    assert "--in" in err and "--gen" in err


def test_realize_refuses_an_image_above_max_terms(tmp_path, capsys, monkeypatch):
    # D^8 at d=1 ell=3/2 has 487 terms, D^7 323
    monkeypatch.setattr(realization, "MAX_TERMS", 400)
    path = tmp_path / "d8.json"
    path.write_text('{"terms": [{"monomial": {"D": 8}, "coeff": 1}]}')
    code, out, err = run(capsys, "realize", "--d", "1", "--ell", "3/2", "--in", str(path))
    _assert_rejected(code, out, err)
    assert "exceeds the bound of 400" in err


def test_solve_refuses_a_candidate_system_above_the_bound(capsys, monkeypatch):
    # the d=1 ell=3/2 quartic candidate system holds hundreds of image terms
    monkeypatch.setattr(solver, "MAX_SYSTEM_ENTRIES", 100)
    code, out, err = run(capsys, "solve", "--d", "1", "--ell", "3/2", "--degree", "4")
    _assert_rejected(code, out, err)
    assert "more than 100 image terms" in err
    # the algebraic route builds no candidate system
    code, _, _ = run(capsys, "solve", "--d", "1", "--ell", "3/2", "--degree", "4",
                     "--method", "algebraic")
    assert code == 0


def test_a_failed_reduced_check_exits_1_with_a_bounded_line(capsys, monkeypatch):
    # with no reduced commutator conditions the exhaustive check refuses a
    # non-Casimir: a verification failure, so exit 1, and one error line
    # that prints five of the residual's eight terms
    monkeypatch.setattr(solver, "reduced_check_generators", lambda alg: [])
    code, out, err = run(capsys, "solve", "--d", "2", "--ell", "3", "--degree", "4")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: reduced conditions accepted a non-Casimir: residual against Q0 is ")
    assert err.endswith(" and 3 more terms\n")
    assert len(re.split(" [+-] ", err)) == 5


def test_a_lower_product_outside_the_solved_space_exits_1(capsys, monkeypatch):
    # a non-central ansatz monomial passed off as a lower product adds rank
    # to the solved space: a verification failure, so exit 1, on one line
    lower = solver.lower_casimir_products

    def with_a_stray(alg, grade, max_degree):
        monos = grading.enumerate_ansatz(alg, grade, max_degree).monomials
        stray = next(e for e in (uea.UEAElement(alg, {m: 1}) for m in monos)
                     if solver.verify_casimir(alg, e) is not None)
        return lower(alg, grade, max_degree) + [stray]

    monkeypatch.setattr(solver, "lower_casimir_products", with_a_stray)
    code, out, err = run(capsys, "solve", "--d", "1", "--ell", "3/2", "--degree", "4")
    assert code == 1 and out == ""
    assert err == "error: a product of lower Casimirs escaped the solved space\n"


def test_a_failed_theorem_projection_exits_1(capsys, monkeypatch):
    # a projection that removes nothing leaves a zero corrected element: the
    # theorem's self-check fails, so exit 1 on one line, not a traceback
    monkeypatch.setattr(theorems, "reduce_vector", lambda rows, pivots, vec: vec)
    code, out, err = run(capsys, "theorem", "--d", "1", "--ell", "5/2", "--which", "quartic")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_input_directory_exits_2(tmp_path, capsys):
    _assert_rejected(*run(capsys, "verify", "--d", "1", "--ell", "3/2",
                          "--in", str(tmp_path)))


def test_algebra_output_directory_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "algebra", "--d", "1", "--ell", "3/2", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["rank"], ["solve", "--degree", "4"]])
def test_unwritable_out_prints_nothing_and_exits_2(argv, tmp_path, capsys):
    # the artifact is written before the result is printed, so a bad --out
    # leaves no complete answer on stdout next to the input error
    code, out, err = run(capsys, *argv, "--d", "1", "--ell", "3/2",
                         "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_141_with_no_error_line(unbuffered):
    # stdout is a pipe whose reader has already gone, as under `| head`;
    # buffered or not, the process exits as a shell reports SIGPIPE, and
    # says nothing of bad input
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run([sys.executable, "-m", "cgcasimir.cli", "solve", "--d", "1",
                               "--ell", "3/2", "--degree", "4"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_theorem_artifacts_match_golden_digests(tmp_path, capsys):
    # the exact bytes `cgcasimir theorem --out` writes, frozen per target
    with open(fixture("theorem_golden_sha256.json")) as fh:
        golden = json.load(fh)
    seen = {}
    targets = [(1, "5/2", "quartic"), (2, "3", "quadratic"), (2, "3", "quartic")]
    # and every other quartic ladder point
    targets += [(1, f"{n}/2", "quartic") for n in (7, 9, 11, 13, 15, 17)]
    targets += [(2, "4", "quartic"), (2, "5", "quartic")]
    for d, ell, which in targets:
        out_file = tmp_path / "theorem.json"
        code, _, _ = run(capsys, "theorem", "--d", str(d), "--ell", ell, "--which", which,
                         "--out", str(out_file))
        assert code == 0
        key = f"d{d}_ell_{ell.replace('/', '_')}_{which}"
        seen[key] = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert seen == golden


def _cli_golden_runs():
    """(key, argv) of every CLI run whose stdout, and --out where given, is
    pinned by cli_golden_sha256.json."""
    runs = []

    def spec(d, ell):
        return f"d{d}_ell_{ell.replace('/', '_')}", ["--d", str(d), "--ell", ell]

    def summary(key, argv):
        # one run for the JSON summary and the artifact, one for the text summary
        runs.append((f"{key}/json", argv + ["--out"]))
        runs.append((f"{key}/text", argv + ["--format", "text"]))

    for d, ell in [(1, "3/2"), (2, "2")]:
        tag, flags = spec(d, ell)
        summary(f"algebra_{tag}", ["algebra"] + flags)
        runs.append((f"rank_{tag}", ["rank"] + flags + ["--out"]))
    # ell=1/2 holds the only Fraction coefficient of an image, w²/2 in C
    for d, ell in [(1, "1/2"), (1, "5/2"), (1, "9/2"), (2, "2"), (2, "3")]:
        tag, flags = spec(d, ell)
        for g in make_cga(parse_spec(d, ell)).basis:
            summary(f"realize_{tag}_{g.name}", ["realize"] + flags + ["--gen", g.name])
    for name in sorted(os.listdir(FIXTURES)):
        m = re.fullmatch(r"d(\d)_ell_(\d+(?:_\d+)?)_(\w+)\.json", name)
        if not m:
            continue
        tag, flags = spec(int(m[1]), m[2].replace("_", "/"))
        for command in ("realize", "verify"):
            # a bare name, run from FIXTURES: `realize` echoes the path it was given
            summary(f"{command}_{tag}_{m[3]}", [command] + flags + ["--in", name])
    for d, ell, degree in [(1, "3/2", "4"), (2, "1", "2"), (2, "2", "2")]:
        tag, flags = spec(d, ell)
        for method in ("pipeline", "algebraic"):
            runs.append((f"solve_{tag}_degree_{degree}_{method}/text",
                         ["solve"] + flags + ["--degree", degree, "--method", method,
                                              "--format", "text"]))
    tag, flags = spec(1, "5/2")
    runs.append((f"theorem_{tag}_quartic/text",
                 ["theorem"] + flags + ["--which", "quartic", "--format", "text"]))
    return runs


def test_cli_outputs_match_golden_digests(tmp_path, capsys, monkeypatch):
    # the exact stdout and --out bytes of the printing and naming paths
    with open(fixture("cli_golden_sha256.json")) as fh:
        golden = json.load(fh)
    monkeypatch.chdir(FIXTURES)
    seen = {}
    out_file = tmp_path / "artifact.json"
    for key, argv in _cli_golden_runs():
        with_out = argv[-1] == "--out"
        code, out, err = run(capsys, *argv, *([str(out_file)] if with_out else []))
        # the candidate fixtures are not Casimirs, so only they fail verification
        assert code == (1 if key.startswith("verify_") and "candidate" in key else 0), key
        assert err == "", key
        seen[key] = hashlib.sha256(out.encode()).hexdigest()
        if with_out:
            seen[key.replace("/json", "/out")] = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert seen == golden


@pytest.mark.parametrize("argv", [
    ["theorem", "--d", "1", "--ell", "5/2", "--which", "quartic", "--method", "pipeline"],
    ["rank", "--d", "1", "--ell", "5/2", "--format", "text"],
])
def test_route_and_format_only_where_they_act(capsys, argv):
    # solve alone picks the route; rank prints a bare count, so has no --format
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


_COMMANDS = [
    ("rank", "--d", "1", "--ell", "3/2"),
    ("solve", "--d", "2", "--ell", "1", "--degree", "2"),
    ("verify", "--d", "1", "--ell", "3/2", "--in", fixture("d1_ell_3_2_quartic.json")),
    ("solve", "--d", "1", "--ell", "3/2", "--degree", "2", "--nonsense"),
    ("rank", "--d", "2", "--ell", "1", "--format", "text"),
    ("solve", "--d", "1", "--ell", "3/2", "--degree", "4", "--format", "text"),
    ("verify", "--d", "1", "--ell", "3/2", "--in", fixture("d1_ell_3_2_quartic.json")),
]


def test_one_parser_serves_many_commands(capsys, monkeypatch):
    # the parser is built once per process: rank's text default does not
    # leak into solve or verify, an argparse error (exit 2) leaves it
    # usable, and every call prints what a freshly built parser would
    assert cli.build_parser() is cli.build_parser()
    shared = [run(capsys, *argv) for argv in _COMMANDS]
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 2, 0, 0]
    assert json.loads(shared[1][1])["verified"] is True
    assert json.loads(shared[6][1])["verified"] is True
    for argv in (_COMMANDS[1], _COMMANDS[2]):
        assert cli.build_parser().parse_args(argv).format == "json"
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(capsys, *argv) for argv in _COMMANDS] == shared


def test_one_algebra_per_spec(capsys):
    assert make_cga(parse_spec(2, 3)) is make_cga(parse_spec("2", "3"))
    argv = ("solve", "--d", "1", "--ell", "5/2", "--degree", "4", "--method", "algebraic")
    assert run(capsys, *argv)[0] == 0
    sizes = (grading.generator_grades.cache_info().currsize,
             uea.omega_positions.cache_info().currsize)
    for _ in range(3):
        assert run(capsys, *argv)[0] == 0
    assert (grading.generator_grades.cache_info().currsize,
            uea.omega_positions.cache_info().currsize) == sizes
    # an algebra that nothing else holds stays the one of its spec: a spec
    # no other test builds, with only a part of the algebra kept as witness
    table = make_cga(parse_spec(1, "41/2")).pair_table
    gc.collect()
    assert make_cga(parse_spec(1, "41/2")).pair_table is table


def test_verify_of_a_high_power_is_polynomial(tmp_path, capsys):
    # [D^n, P0] has n terms; a depth-first rewriting needs about 2^n steps
    code, out, _ = _verify_json(tmp_path, capsys,
                                {"terms": [{"monomial": {"D": 40}, "coeff": 1}]})
    assert code == 1
    assert json.loads(out)["failures"] == [{"element": 0, "generator": "P0",
                                            "residual_terms": 40}]


# -- fuzzing the --in loader ------------------------------------------

_D2_L1_NAMES = ["Theta", "Q0", "Q1", "Q2", "P0", "P1", "P2", "H", "D", "J", "C"]


def _mostly(good, bad):
    # three to one, so that well-formed elements often reach the centrality check
    return st.sampled_from((good, good, good, bad)).flatmap(lambda s: s)


_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
# Exponents stay small: a huge exponent is a valid but enormous element, which
# is a size limit to refuse up front, not a loader crash.
_exponent = _mostly(st.integers(0, 3),
                    st.integers(-2, -1) | st.booleans() | st.floats() | st.text(max_size=2))
_monomial = _mostly(st.dictionaries(st.sampled_from(_D2_L1_NAMES), _exponent, max_size=3),
                    st.dictionaries(st.text(max_size=3), _exponent, max_size=2) | _junk)
_coeff = _mostly(st.sampled_from(["1", "-2/3", "5"]) | st.integers(-5, 5),
                 st.sampled_from(["0", "1/0", "nan", "inf", "1.5", "x", ""]) | st.floats()
                 | _junk)
_term = _mostly(st.fixed_dictionaries({"monomial": _monomial, "coeff": _coeff}),
                st.dictionaries(st.sampled_from(["monomial", "coeff", "extra"]), _junk,
                                max_size=3))
_element = st.fixed_dictionaries({"terms": _mostly(st.lists(_term, max_size=3), _junk)})
_spec = _mostly(st.fixed_dictionaries({"d": st.just(2), "ell": st.sampled_from(["1", 1])}),
                st.fixed_dictionaries({"d": st.sampled_from([1, 0, "2", 2.0, True, None]),
                                       "ell": st.sampled_from(["3/2", "1/0", "x", -1, 1.0,
                                                               None])})
                | _junk)
_report = st.fixed_dictionaries({"canonical": _mostly(st.lists(_element, max_size=2), _junk)},
                                optional={"spec": _spec})


@settings(max_examples=60, deadline=None)
@given(payload=_mostly(_element | _report, _junk), command=st.sampled_from(["verify", "realize"]))
def test_loader_fuzz_exits_cleanly(tmp_path_factory, payload, command):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--d", "2", "--ell", "1", "--in", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert str(path) in err.getvalue()
