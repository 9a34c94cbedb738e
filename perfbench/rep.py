"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N [--trace FILE] [--setup-only] [--smoke]

Set-up imports ``cgcasimir`` from the checkout's ``src``, builds the
algebra of every target, loads the expected outputs and writes the seeded
input files.  Then the ops run one after another through
``cgcasimir.cli.main(argv)`` with stdout captured, and every output is
checked.  The last line of stdout is one JSON object with the
repetition's measurements; ``first_op_at`` is a ``time.monotonic`` reading,
so the parent can time set-up from the moment it started this process.
With ``--trace FILE`` the layers are traced, the spans written to FILE and
the per-layer metrics included.

The speed of a shared host swings by up to a factor of two within
seconds, for every process alike.  So while a repetition runs, a SIGALRM
handler times a small fixed loop every SAMPLE_EVERY_S seconds.  Each op's
time, less the time spent in those samples, is reported as measured
(``raw_s``) and scaled to the reference speed (``s``) by the mean sample
time during the op: ``s = net_s * REFERENCE_S / mean(samples)``.  Set-up is
scaled by the samples taken while it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# How often the host speed is sampled while the ops run and during the
# short set-up, and the sample loop's time at the reference speed: about
# its time on a 2-vCPU Intel Xeon sandbox under Python 3.11 when that host
# runs fastest.
SAMPLE_EVERY_S = 0.05
SETUP_SAMPLE_EVERY_S = 0.01
REFERENCE_S = 0.00125


def calibrate() -> float:
    """Wall time of a fixed exact-arithmetic loop, the kind of work the
    package's hot paths do (Fraction sums into a dict keyed by tuples)."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc: dict = {}
    step = Fraction(1, 7)
    for i in range(300):
        key = (i % 13, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + step * (i % 11 - 5)
    secs = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return secs


class SpeedProbe:
    """Samples the host speed by timing ``calibrate`` from a timer signal."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self, *_signal) -> None:
        self.samples.append((time.perf_counter(), calibrate()))

    def start(self, every: float) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(speed factor, seconds spent sampling) for the interval [t0, t1);
        an interval with no sample uses the samples on either side."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        spent = sum(inside)
        if not inside:
            inside = ([d for s, d in self.samples if s < t0][-1:]
                      + [d for s, d in self.samples if s >= t1][:1])
        return REFERENCE_S * len(inside) / sum(inside), spent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    probe = SpeedProbe()
    probe.start(SETUP_SAMPLE_EVERY_S)

    sys.path.insert(0, SRC)
    import cgcasimir
    from cgcasimir import cli, realization
    from cgcasimir.liealg import make_cga, parse_spec

    if not os.path.abspath(cgcasimir.__file__).startswith(SRC + os.sep):
        print(f"cgcasimir was imported from {cgcasimir.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    from spans import Tracer

    for d, ell in wl.workload_targets(args.workload, args.smoke):
        make_cga(parse_spec(d, ell))
    expected = wl.load_expected()
    method = wl.SOLVE_LADDERS.get(args.workload, (None,))[0]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = wl.make_ops(args.workload, args.seed, workdir, args.smoke)
        first_op_at = time.monotonic()
        setup_end = time.perf_counter()
        probe.stop()
        probe.sample()  # used only if set-up ended before the first tick
        factor, spent = probe.scale(float("-inf"), setup_end)
        report = {"first_op_at": first_op_at, "setup_speed": factor, "setup_sampling_s": spent}
        if args.setup_only:
            print(json.dumps(report))
            return 0
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        probe.start(SAMPLE_EVERY_S)
        results = []
        for k, op in enumerate(ops):
            if tracer:
                tracer.op = k
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(op.argv)
            except Exception as exc:  # a raised exception is a failed op
                code = None
                err.write(f"raised {exc!r}")
            t1 = time.perf_counter()
            results.append((op, t0, t1, code, out.getvalue(), err.getvalue()))
        probe.stop()
        probe.sample()  # the right-hand neighbour of a last op shorter than a tick
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    report["ops"] = []
    speed = []
    for op, t0, t1, code, stdout, stderr in results:
        if code is None:
            reason = stderr
        else:
            try:
                reason = wl.check(op, code, stdout, expected, method)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output ({exc!r})"
            if reason and stderr.strip():
                reason += f"; stderr: {stderr.strip().splitlines()[-1]}"
        factor, spent = probe.scale(t0, t1)
        net = t1 - t0 - spent
        speed.append(factor * net / (t1 - t0))
        report["ops"].append({"label": op.label, "command": op.argv[0], "raw_s": net,
                              "s": net * factor, "fail": reason})
    report["raw_wall_s"] = sum(op["raw_s"] for op in report["ops"])
    report["wall_s"] = sum(op["s"] for op in report["ops"])
    if tracer:
        report["restored"] = tracer.restore()
        info = realization.realize_generator.cache_info()
        lookups = info.hits + info.misses
        report["layers"] = tracer.layer_metrics(info.hits / lookups if lookups else 0.0, speed)
        tracer.write_spans(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
