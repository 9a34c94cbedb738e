"""cgcasimir benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports ``cgcasimir`` from that
checkout's ``src`` and exits with code 2 when there is none.

Load shape: one client, one process at a time, no threads.  Each op is one
``cgcasimir`` command line run through ``cgcasimir.cli.main`` and starts
after the previous one returns.  Every repetition of the workload's op
list runs in a fresh interpreter (``rep.py``), so no repetition reuses the
package's caches from an earlier one.  Repetitions are started until the
next one would end after ``--seconds``; at least one always runs.  The
seed sets the op order and the perturbed inputs, and is the same for all
repetitions of a run.  Set-up is also timed in a few extra interpreters
that stop before the first op.

The host's speed swings widely within seconds, so every time is reported
scaled to a reference speed that ``rep.py`` samples while the ops run;
the measured times are printed alongside (``raw_*``).  ``--trace 0``
reports the end-to-end metrics, medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead, traced
minus untraced ``wall_s``; the spans of the last traced repetition go to
``perfbench/out/``.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs the smallest target of each workload both
ways and checks the output contract, zero failed ops, and that tracing
put back every wrapped function.

Workloads (see workloads.py for the targets):

* pipeline-quartic: ``solve --degree 4`` by the default realisation
  pipeline.  Most time is ``realization.compose`` and ``solver.nullspace``
  on the large candidate system; ``uea`` does little.
* algebraic-quartic: ``solve --degree 4 --method algebraic``.  ``uea``
  (normal ordering, commutators, the exhaustive centrality check) does the
  work; ``realization`` does none, so a realisation-side change must leave
  it unchanged.
* verify-theorem: the read side - ``verify`` on valid and seeded perturbed
  Casimirs (exit 0 and 1), ``realize`` of each Casimir, ``rank`` and
  ``theorem``.  Few large elements are commuted against every generator,
  and it alone exercises ``bb_count``, ``theorems`` and ``realize_element``
  on one large element.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": ("s", "lower"),
    "largest_op_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_PROBES = 5
# a run must end within 180 s; no repetition may start after this
HARD_LIMIT_S = 150.0
COMMANDS = ("solve", "verify", "realize", "rank", "theorem")


def spawn(args: list[str], started: float) -> dict:
    """Run rep.py in a fresh interpreter and return its report, with the
    set-up time from process start to the first op added."""
    t_spawn = time.monotonic()
    timeout = max(1.0, HARD_LIMIT_S + 25.0 - (t_spawn - started))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "rep.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["raw_setup_s"] = rep["first_op_at"] - t_spawn
    rep["elapsed_s"] = time.monotonic() - t_spawn
    rep["setup_s"] = (rep["raw_setup_s"] - rep["setup_sampling_s"]) * rep["setup_speed"]
    return rep


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    started = time.monotonic()
    deadline = started + seconds
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(spawn(base + ["--setup-only"], started)["setup_s"])

    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{workload}.tsv")
    kinds = [False, True] if trace else [False]
    reps: dict[bool, list[dict]] = {k: [] for k in kinds}
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        done = all(reps[k] for k in kinds)
        longest = max((r["elapsed_s"] for r in reps[traced]), default=0.0)
        now = time.monotonic()
        if done and (now + longest > deadline or now - started > HARD_LIMIT_S):
            break
        rep = spawn(base + (["--trace", spans_file] if traced else []), started)
        reps[traced].append(rep)
        if not traced:
            setups.append(rep["setup_s"])
    return {"setups": setups, "plain": reps[False], "traced": reps.get(True, [])}


def summarize(workload: str, res: dict, trace: bool) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines of one run."""
    plain, traced = res["plain"], res["traced"]
    every = plain + traced
    ops = [op for r in every for op in r["ops"]]
    failed = [op for op in ops if op["fail"]]
    restored = all(r["restored"] for r in traced)
    lines = [f"workload {workload}: {len(plain)} untraced and {len(traced)} traced "
             f"repetitions, {len(res['setups'])} set-ups; host nproc={os.cpu_count()} "
             f"machine={platform.machine()} python={platform.python_version()}"]

    wall = median(r["wall_s"] for r in plain)
    e2e = {
        "wall_s": wall,
        "largest_op_s": median(max(op["s"] for op in r["ops"]) for r in plain),
        "setup_s": median(res["setups"]),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }
    for cmd in COMMANDS:
        e2e[f"{cmd}_s"] = median(sum(op["s"] for op in r["ops"] if op["command"] == cmd)
                                 for r in plain)
    e2e["op_fail_ratio"] = len(failed) / len(ops)
    e2e["raw_wall_s"] = median(r["raw_wall_s"] for r in plain)
    e2e["raw_setup_s"] = median(r["raw_setup_s"] for r in plain)
    e2e["host_speed"] = median(r["setup_speed"] for r in plain)
    units = {**{k: u for k, (u, _) in END_TO_END.items()},
             **{f"{c}_s": "s" for c in COMMANDS}, "op_fail_ratio": "ratio",
             "raw_wall_s": "s", "raw_setup_s": "s", "host_speed": "ratio"}
    for name, value in e2e.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    for label in sorted({op["label"] for op in plain[0]["ops"]}):
        secs = median(op["s"] for r in plain for op in r["ops"] if op["label"] == label)
        lines.append(f"  op {label}: median {secs:.4f} s")
    for op in failed:
        lines.append(f"  FAILED {op['label']}: {op['fail']}")
    if not restored:
        lines.append("  FAILED tracing left a wrapped function in place")

    if trace:
        layers = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.wall_s"] = median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        metrics = {k: {"value": layers[k], "unit": u} for k, (u, _) in PER_LAYER.items()}
        for name, m in metrics.items():
            lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, (u, _) in END_TO_END.items()}
    result = {"correct": not failed and restored, "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    return result, lines


def smoke() -> int:
    """Smallest target of each workload, untraced and traced; checks the
    output contract, zero failed ops and that tracing restored everything."""
    declared = None
    path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as fh:
            bench = json.load(fh)
        declared = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                    True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = summarize(workload, run(workload, 0, 0, trace, smoke=True), trace)
            want = {k: u for k, (u, _) in (PER_LAYER if trace else END_TO_END).items()}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            problems = []
            if got != want or (declared and got != declared[trace]):
                problems.append("metric names or units differ from the declared ones")
            if result["failed"] or not result["correct"]:
                problems.append(f"{result['failed']} of {result['attempted']} ops failed "
                                f"or a wrapped function was not restored")
            ok &= not problems
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'; '.join(problems) or 'ok'} ({result['attempted']} ops)")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cgcasimir", "cli.py")):
        print(f"error: no cgcasimir sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, lines = summarize(args.workload, res, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
