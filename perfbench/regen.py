"""Regenerate the benchmark's data files from the library.

    python3 perfbench/regen.py

Writes ``data/expected.json`` (the expected output of every op) and
``data/casimirs/*.json`` (the valid quartic Casimirs that verify-theorem
reads).  Before writing, it checks what it records: every Casimir passes
``verify_casimir``; ``pipeline`` and ``algebraic`` give the same canonical
set on every target both are run on; the published d=2 ell=2 and ell=3
quartics in ``tests/fixtures``, reduced modulo products of lower Casimirs,
are proportional to the solved ones; each ``rank`` count equals one (the central
element) plus the number of canonical Casimirs at the default targets.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from cgcasimir import bb_count, make_cga, parse_spec, solve_casimirs, verify_casimir  # noqa: E402
from cgcasimir.grading import default_target_grades  # noqa: E402
from cgcasimir.solver import (  # noqa: E402
    element_vector, proportional, reduce_vector, rref, vector_element)
from cgcasimir.theorems import theorem_casimir_report  # noqa: E402
from cgcasimir.uea import from_json_dict, to_json_dict  # noqa: E402

import workloads as wl  # noqa: E402

FIXTURES = {(2, "2"): "d2_ell_2_quartic.json", (2, "3"): "d2_ell_3_quartic.json"}


def solve(d: int, ell: str, method: str):
    alg = make_cga(parse_spec(d, ell))
    grade = next(g for g, deg in default_target_grades(alg.spec) if deg == 4)
    rep = solve_casimirs(alg, grade, 4, method=method)
    for e in rep.canonical:
        if verify_casimir(alg, e) is not None:
            raise SystemExit(f"d={d} ell={ell} {method}: canonical element fails verification")
    return rep


def matches_fixture(rep, name: str) -> bool:
    alg = rep.canonical[0].alg
    with open(os.path.join(ROOT, "tests", "fixtures", name)) as fh:
        known = from_json_dict(alg, json.load(fh))
    basis = rep.ansatz
    rows, pivots = rref([element_vector(basis, e) for e in rep.lower_products],
                        len(basis.monomials))
    reduced = vector_element(alg, basis, reduce_vector(rows, pivots, element_vector(basis, known)))
    return len(rep.canonical) == 1 and proportional(reduced, rep.canonical[0])


def main() -> None:
    pipeline_targets = set(wl.SOLVE_LADDERS["pipeline-quartic"][1]) | set(wl.VERIFY_TARGETS)
    targets = sorted({t for _, ladder in wl.SOLVE_LADDERS.values() for t in ladder}
                     | set(wl.VERIFY_TARGETS), key=lambda t: (t[0], Fraction(t[1])))
    expected: dict = {"solve": {}, "rank": {}, "theorem": {}}
    for d, ell in targets:
        key = wl.target_key(d, ell)
        alg_rep = solve(d, ell, "algebraic")
        canonical = [to_json_dict(e) for e in alg_rep.canonical]
        cand = {"algebraic": None}
        if (d, ell) in pipeline_targets:
            pipe_rep = solve(d, ell, "pipeline")
            if (wl.canonical_set([to_json_dict(e) for e in pipe_rep.canonical])
                    != wl.canonical_set(canonical)
                    or pipe_rep.casimir_dim != alg_rep.casimir_dim):
                raise SystemExit(f"{key}: pipeline and algebraic disagree")
            cand["pipeline"] = pipe_rep.candidate_dim
        if (d, ell) in FIXTURES and not matches_fixture(alg_rep, FIXTURES[d, ell]):
            raise SystemExit(f"{key}: solved quartic is not the one in {FIXTURES[d, ell]}")
        expected["solve"][key] = {"canonical": canonical, "casimir_dim": alg_rep.casimir_dim,
                                  "candidate_dim": cand}
        print(f"{key}: casimir_dim {alg_rep.casimir_dim}, candidate_dim {cand}", flush=True)

    os.makedirs(os.path.join(wl.DATA, "casimirs"), exist_ok=True)
    for d, ell in wl.VERIFY_TARGETS:
        key = wl.target_key(d, ell)
        canonical = expected["solve"][key]["canonical"]
        if len(canonical) != 1:
            raise SystemExit(f"{key}: expected one canonical quartic")
        with open(wl.casimir_path(d, ell), "w") as fh:
            json.dump(canonical[0], fh, indent=2, sort_keys=True)
            fh.write("\n")
        alg = make_cga(parse_spec(d, ell))
        independent = 1 + sum(len(solve_casimirs(alg, g, deg, method="algebraic").canonical)
                              for g, deg in default_target_grades(alg.spec))
        count = bb_count(alg)
        if count != independent:
            raise SystemExit(f"{key}: rank {count}, but {independent} Casimirs are known")
        expected["rank"][key] = count
        for which in ("quadratic", "quartic") if d == 2 else ("quartic",):
            tr, payload = theorem_casimir_report(alg.spec, which)
            if not payload["verified"]:
                raise SystemExit(f"{key} {which}: emitted closed form does not verify")
            expected["theorem"][f"{key} {which}"] = {
                "as_printed_verified": tr.verified,
                "discrepancies": len(tr.discrepancies),
                "element": payload["canonical"][0],
            }
        print(f"{key}: rank {count}, theorem ok", flush=True)

    with open(os.path.join(wl.DATA, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
