"""The benchmark's workloads: seeded op lists and their correctness checks.

An op is one ``cgcasimir`` command line.  Every op's output is compared
with ``data/expected.json`` by parsed content, never by raw bytes;
``regen.py`` writes that file and cross-checks what it records.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# Targets are (d, ell) pairs.  The ladders are the ones the benchmark was
# specified with, trimmed at the large end so that several fresh-interpreter
# repetitions fit in one run: pipeline-quartic and verify-theorem drop
# d=2 ell=4.
SOLVE_LADDERS = {
    "pipeline-quartic": ("pipeline", [(1, "7/2"), (1, "9/2"), (1, "11/2"), (2, "2"), (2, "3")]),
    "algebraic-quartic": ("algebraic", [(1, "9/2"), (1, "11/2"), (1, "13/2"), (1, "15/2"),
                                        (1, "17/2"), (2, "3"), (2, "4"), (2, "5")]),
}
VERIFY_TARGETS = [(1, "5/2"), (1, "7/2"), (1, "9/2"), (2, "3")]
PERTURBED_COPIES = 2
WORKLOADS = [*SOLVE_LADDERS, "verify-theorem"]


def target_key(d: int, ell: str) -> str:
    return f"d={d} ell={ell}"


def casimir_path(d: int, ell: str) -> str:
    return os.path.join(DATA, "casimirs", f"d{d}_ell_{ell.replace('/', '_')}_quartic.json")


def workload_targets(workload: str, smoke: bool = False) -> list[tuple[int, str]]:
    targets = SOLVE_LADDERS[workload][1] if workload in SOLVE_LADDERS else VERIFY_TARGETS
    return targets[:1] if smoke else targets


def canonical_form(element: dict) -> tuple:
    """An element's JSON terms as a sorted tuple of (monomial, coefficient)."""
    return tuple(sorted((tuple(sorted(t["monomial"].items())), Fraction(t["coeff"]))
                        for t in element["terms"]))


def canonical_set(elements: list[dict]) -> list[tuple]:
    return sorted(canonical_form(e) for e in elements)


@dataclass
class Op:
    label: str
    argv: list[str]
    kind: str       # solve | verify-ok | verify-bad | realize | rank | theorem
    key: str        # target key into the expected data
    which: str = ""  # closed form for theorem ops


def make_ops(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Op]:
    """The seeded op list of one repetition; writes the input files it needs
    into ``workdir``.  The seed sets the op order and the perturbations."""
    rng = random.Random(seed)
    ops: list[Op] = []
    targets = workload_targets(workload, smoke)
    if workload in SOLVE_LADDERS:
        method = SOLVE_LADDERS[workload][0]
        for d, ell in targets:
            ops.append(Op(f"solve d={d} ell={ell} {method}",
                          ["solve", "--d", str(d), "--ell", ell, "--degree", "4",
                           "--method", method], "solve", target_key(d, ell)))
    else:
        for d, ell in targets:
            key = target_key(d, ell)
            spec = ["--d", str(d), "--ell", ell]
            valid = casimir_path(d, ell)
            ops.append(Op(f"verify {key}", ["verify", *spec, "--in", valid], "verify-ok", key))
            with open(valid) as fh:
                element = json.load(fh)
            for k in range(PERTURBED_COPIES):
                path = os.path.join(workdir, f"perturbed_d{d}_{ell.replace('/', '_')}_{k}.json")
                with open(path, "w") as fh:
                    json.dump(perturb(element, rng), fh)
                ops.append(Op(f"verify {key} perturbed#{k}",
                              ["verify", *spec, "--in", path], "verify-bad", key))
            ops.append(Op(f"realize {key}", ["realize", *spec, "--in", valid], "realize", key))
            ops.append(Op(f"rank {key}", ["rank", *spec], "rank", key))
            for which in ("quadratic", "quartic") if d == 2 else ("quartic",):
                ops.append(Op(f"theorem {key} {which}",
                              ["theorem", *spec, "--which", which], "theorem", key, which))
    rng.shuffle(ops)
    return ops


def perturb(element: dict, rng: random.Random) -> dict:
    """A copy of ``element`` with one coefficient shifted by a nonzero
    rational; raises if the copy would equal the original."""
    terms = [dict(t) for t in element["terms"]]
    t = rng.choice(terms)
    shift = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    t["coeff"] = str(Fraction(t["coeff"]) + shift)
    out = {"terms": [t for t in terms if Fraction(t["coeff"])]}
    if canonical_form(out) == canonical_form(element):
        raise RuntimeError("perturbation left the element unchanged")
    return out


def check(op: Op, code: int, stdout: str, expected: dict, method: str | None) -> str | None:
    """None when the op's exit code and output match the expected data,
    else a one-line reason."""
    want_code = 1 if op.kind == "verify-bad" else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if op.kind == "rank":
        got = int(stdout.strip())
        want = expected["rank"][op.key]
        return None if got == want else f"rank {got}, expected {want}"
    out = json.loads(stdout)
    if op.kind == "solve":
        want = expected["solve"][op.key]
        if not out["verified"]:
            return "report not verified"
        if out["casimir_dim"] != want["casimir_dim"]:
            return f"casimir_dim {out['casimir_dim']}, expected {want['casimir_dim']}"
        cand = want["candidate_dim"][method]
        if out["candidate_dim"] != cand:
            return f"candidate_dim {out['candidate_dim']}, expected {cand}"
        if canonical_set(out["canonical"]) != canonical_set(want["canonical"]):
            return "canonical elements differ from the expected set"
        return None
    if op.kind in ("verify-ok", "verify-bad"):
        ok = op.kind == "verify-ok"
        if out["verified"] != ok or out["elements"] != 1 or bool(out["failures"]) == ok:
            return f"verify reported verified={out['verified']}, expected {ok}"
        return None
    if op.kind == "realize":
        if not out["parameter_scalar"] or out["residual_components"]:
            return "realized Casimir is not parameter-scalar"
        return None
    want = expected["theorem"][f"{op.key} {op.which}"]
    closed = out["closed_form"]
    if not out["verified"]:
        return "emitted element does not verify"
    if closed["as_printed_verified"] != want["as_printed_verified"]:
        return (f"as_printed_verified {closed['as_printed_verified']}, "
                f"expected {want['as_printed_verified']}")
    if len(closed["discrepancies"]) != want["discrepancies"]:
        return f"{len(closed['discrepancies'])} discrepancies, expected {want['discrepancies']}"
    if canonical_set(out["canonical"]) != canonical_set([want["element"]]):
        return "emitted element differs from the expected one"
    return None


def load_expected() -> dict:
    with open(os.path.join(DATA, "expected.json")) as fh:
        return json.load(fh)
