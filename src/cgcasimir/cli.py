"""Batch command-line surface.

Subcommands: ``algebra | rank | solve | verify | theorem | realize``.
Summaries go to stdout; JSON artifacts are written only with ``--out``.
Exit codes: 0 success/verified, 1 verification failure, 2 invalid input,
141 stdout closed by its reader.
All output is deterministic for fixed flags (the only randomness, the
rank trials, is seeded).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional, Sequence

from . import liealg, realization, solver, theorems, uea
from .grading import default_grade
from .liealg import make_cga, parse_spec


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    was."""
    parser = argparse.ArgumentParser(
        prog="cgcasimir",
        description="Casimir operators of centrally extended conformal Galilei algebras",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, summary=True):
        p.add_argument("--d", type=int, required=True, help="spatial dimension (1 or 2)")
        p.add_argument("--ell", required=True, help="spin parameter, e.g. 3/2 or 2")
        p.add_argument("--out", dest="output_path", help="write the JSON artifact here")
        if summary:
            p.add_argument("--format", choices=["json", "text"], default="json",
                           help="stdout summary format")

    p = sub.add_parser("algebra", help="emit the bracket table")
    common(p)
    p.set_defaults(run=cmd_algebra)

    p = sub.add_parser("rank", help="invariant count from the structure matrix")
    common(p, summary=False)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_rank, format="text")  # stdout is the bare count

    p = sub.add_parser("solve", help="search for Casimir operators")
    common(p)
    p.add_argument("--degree", type=int, required=True, help="degree bound of the ansatz")
    p.add_argument("--grade", default="auto",
                   help='target grade, e.g. "0,2,0", or "auto" for the default at this degree')
    p.add_argument("--method", choices=["pipeline", "algebraic"], default="pipeline")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("verify", help="check a stored element (or report) for centrality")
    common(p)
    p.add_argument("--in", dest="input_path", required=True)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("theorem", help="build a closed-form Casimir and check it")
    common(p)
    p.add_argument("--which", choices=["quadratic", "quartic"], required=True)
    p.set_defaults(run=cmd_theorem)

    p = sub.add_parser("realize", help="map an element to a differential operator")
    common(p)
    p.add_argument("--in", dest="input_path")
    p.add_argument("--gen", help="realize a single generator by name instead of a file")
    p.set_defaults(run=cmd_realize)

    return parser


def _emit(cfg: argparse.Namespace, payload: dict, text: str):
    # the artifact first: an unwritable --out must not follow a printed result
    artifact = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(artifact + "\n")
    print(text if cfg.format == "text" else artifact)


def _resolve_target(cfg: argparse.Namespace, spec) -> tuple[tuple[int, ...], int]:
    if cfg.grade == "auto":
        return default_grade(spec, cfg.degree), cfg.degree
    try:
        grade = tuple(int(x) for x in cfg.grade.split(","))
    except ValueError:
        raise ValueError(f"cannot parse grade {cfg.grade!r}") from None
    return grade, cfg.degree


def cmd_algebra(cfg: argparse.Namespace) -> int:
    alg = make_cga(parse_spec(cfg.d, cfg.ell))
    payload = liealg.to_json_dict(alg)
    _emit(cfg, payload, f"{alg!r}: basis {', '.join(g.name for g in alg.basis)}")
    return 0


def cmd_rank(cfg: argparse.Namespace) -> int:
    alg = make_cga(parse_spec(cfg.d, cfg.ell))
    count = liealg.bb_count(alg, trials=cfg.trials, seed=cfg.seed)
    payload = {"spec": alg.spec.to_json_dict(), "invariant_count": count}
    _emit(cfg, payload, str(count))
    return 0


def cmd_solve(cfg: argparse.Namespace) -> int:
    spec = parse_spec(cfg.d, cfg.ell)
    alg = make_cga(spec)
    grade, degree = _resolve_target(cfg, spec)
    report = solver.solve_casimirs(alg, grade, degree, method=cfg.method)
    text = ""
    # the summary pretty-prints every canonical element: build it only to print it
    if cfg.format == "text":
        lines = [
            f"grade {grade} degree <= {degree} method {cfg.method}",
            f"ansatz {len(report.ansatz.monomials)} monomials, "
            f"candidates {report.candidate_dim}, casimir dim {report.casimir_dim}, "
            f"canonical dim {len(report.canonical)}",
        ]
        lines.extend(f"  {e}" for e in report.canonical)
        text = "\n".join(lines)
    _emit(cfg, report.to_json_dict(), text)
    return 0


def _load_elements(cfg: argparse.Namespace, alg) -> list[uea.UEAElement]:
    """The elements of the ``--in`` file; every refusal names the file."""
    path = cfg.input_path
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: neither an element nor a report")
    if "terms" in data:
        entries = [data]
    elif "canonical" in data:
        if "spec" in data:
            spec = data["spec"]
            if not (isinstance(spec, dict) and "d" in spec and "ell" in spec):
                raise ValueError(f"{path}: report spec needs 'd' and 'ell'")
            try:
                produced = parse_spec(spec["d"], spec["ell"])
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            if produced != alg.spec:
                raise ValueError(f"{path} was produced for d={spec['d']} ell={spec['ell']}")
        if not isinstance(data["canonical"], list):
            raise ValueError(f"{path}: a report needs a list under 'canonical'")
        entries = data["canonical"]
    else:
        raise ValueError(f"{path}: neither an element nor a report")
    try:
        elements = uea.from_json_dicts(alg, entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # zero commutes with everything, so neither it nor an empty report is a Casimir
    if not elements:
        raise ValueError(f"{path}: the report has no elements")
    if any(e.is_zero() for e in elements):
        raise ValueError(f"{path}: a zero element is not a Casimir")
    return elements


def cmd_verify(cfg: argparse.Namespace) -> int:
    alg = make_cga(parse_spec(cfg.d, cfg.ell))
    elements = _load_elements(cfg, alg)
    failures = []
    for idx, e in enumerate(elements):
        bad = solver.verify_casimir(alg, e)
        if bad is not None:
            g, res = bad
            failures.append({"element": idx, "generator": g.name,
                             "residual_terms": len(res.terms)})
    payload = {
        "spec": alg.spec.to_json_dict(),
        "elements": len(elements),
        "failures": failures,
        "verified": not failures,
    }
    if failures:
        f = failures[0]
        text = (f"FAIL: element {f['element']} does not commute with "
                f"{f['generator']} ({f['residual_terms']} residual terms)")
    else:
        text = f"OK: {len(elements)} element(s) commute with every generator"
    _emit(cfg, payload, text)
    return 0 if not failures else 1


def cmd_theorem(cfg: argparse.Namespace) -> int:
    spec = parse_spec(cfg.d, cfg.ell)
    tr, payload = theorems.theorem_casimir_report(spec, cfg.which)
    lines = [f"closed form {cfg.which} for d={spec.d} ell={spec.ell}"]
    if tr.verified:
        lines.append("as printed: verified against every generator")
    else:
        lines.append(f"as printed: FAILS; {len(tr.discrepancies)} coefficient(s) corrected "
                     f"from the solver:")
        for d in tr.discrepancies:
            lines.append(f"  {d.term}: printed {d.closed_form}, solver {d.solver}")
    lines.append(f"emitted element verifies: {payload['verified']}")
    _emit(cfg, payload, "\n".join(lines))
    return 0


def cmd_realize(cfg: argparse.Namespace) -> int:
    spec = parse_spec(cfg.d, cfg.ell)
    alg = make_cga(spec)
    if cfg.gen is not None and cfg.input_path:
        raise ValueError("realize takes --in FILE or --gen NAME, not both")
    if cfg.gen is not None:
        if cfg.gen not in alg.by_name:
            raise ValueError(f"no generator named {cfg.gen!r} in this algebra")
        op = realization.realize_generator(spec, alg.by_name[cfg.gen])
        label = cfg.gen
    elif cfg.input_path:
        elements = _load_elements(cfg, alg)
        if len(elements) != 1:
            raise ValueError(f"{cfg.input_path}: realize expects exactly one element")
        op = realization.realize_element(alg, elements[0])
        label = cfg.input_path
    else:
        raise ValueError("realize needs --in FILE or --gen NAME")
    scalar, residual = realization.is_parameter_scalar(op)
    payload = {
        "spec": spec.to_json_dict(),
        "input": label,
        "operator": realization.diffop_json_dict(op),
        "parameter_scalar": scalar,
        # components are derivative multi-indices, not (deriv, expo) terms
        "residual_components": len({d for d, _ in residual.terms}),
    }
    text = (f"{label} -> {realization.pretty_diffop(op)}\n"
            f"parameter scalar: {scalar}")
    _emit(cfg, payload, text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # the interpreter's default caps an int's decimal digits (4,300 on
        # 3.11) below the central pairings printed up to liealg.MAX_DIM
        sys.set_int_max_str_digits(0)
    try:
        cfg = build_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse reports its own errors on code 2
        return int(exc.code or 0)
    try:
        code = cfg.run(cfg)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone, as under `| head`: exit as a shell reports
        # SIGPIPE, and send what is left unwritten to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        # before ValueError, which JSONDecodeError subclasses
        print(f"error: bad input ({exc})", file=sys.stderr)
        return 2
    except ValueError as exc:
        # every refused request: bad specs, grades, inputs, degree/trials/term
        # bounds and out-of-range closed forms
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except solver.ReducedCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
