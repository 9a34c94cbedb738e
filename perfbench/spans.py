"""Span tracing of cgcasimir layers from outside the package.

``Tracer`` replaces each traced public function with a wrapper wherever a
caller looks it up (the defining module and every module that imported it
by name), records one span per call, and puts every original object back
on ``restore``.  Spans live in flat in-memory arrays while the run is
timed; self times and the per-layer metrics are computed afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, function) pairs whose calls become spans, in report order.
LAYERS = [
    ("grading", "enumerate_ansatz"),
    ("uea", "normal_order"),
    ("uea", "commutator"),
    ("uea", "multiply"),
    ("uea", "omega"),
    ("realization", "realize_element"),
    ("realization", "compose"),
    ("solver", "casimir_conditions_system"),
    ("solver", "realization_candidate_system"),
    ("solver", "candidate_vectors"),
    ("solver", "rref"),
    ("solver", "nullspace"),
    ("solver", "solve_casimirs"),
    ("solver", "verify_casimir"),
    ("solver", "known_lower_casimirs"),
    ("solver", "lower_casimir_products"),
    ("liealg", "make_cga"),
    ("liealg", "bb_count"),
    ("theorems", "build_theorem_casimir"),
    ("theorems", "theorem_report"),
    ("cli", "main"),
]

# Layers reported as ``<layer>.calls`` and ``<layer>.s`` (summed self time).
# candidate_vectors and known_lower_casimirs are traced only to give spans
# their structure.  build_theorem_casimir is never reached through the CLI
# at the seed commit, so only its call count is reported, not a time that
# would always read zero.
_SELF_TIMED = [f"{m}.{f}" for m, f in LAYERS if f not in (
    "candidate_vectors", "known_lower_casimirs", "build_theorem_casimir", "main")]

# name -> (unit, better) of every metric a traced run reports.
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in _SELF_TIMED:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.s"] = ("s", "lower")
del _layer
PER_LAYER.update({
    "grading.ansatz_monomials": ("count", "lower"),
    "realization.realize_generator.hit_ratio": ("ratio", "higher"),
    "solver.nullspace.rows": ("count", "lower"),
    "solver.nullspace.cols": ("count", "lower"),
    "solver.nullspace.nnz": ("count", "lower"),
    "solver.nullspace.max_bits": ("bits", "lower"),
    "solver.nullspace.rank": ("count", "higher"),
    "solver.nullspace.rank_per_row": ("ratio", "higher"),
    "solver.candidate_yield": ("ratio", "higher"),
    "solver.centrality_check.calls": ("count", "lower"),
    "solver.centrality_check.s": ("s", "lower"),
    "solver.lower_resolves.calls": ("count", "lower"),
    "solver.lower_resolves.s": ("s", "lower"),
    "theorems.build_theorem_casimir.calls": ("count", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Tracer:
    """Wraps the traced layers of an imported ``cgcasimir``; not reentrant."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in LAYERS]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        # per-call sizes, measured after the call returns
        self.nullspace_sizes: list[tuple[int, int, int, int, int]] = []
        self.candidate_sizes: list[tuple[int, int]] = []
        self.ansatz_sizes: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "cgcasimir" or k.startswith("cgcasimir."))]
        for code, (mod, fn) in enumerate(LAYERS):
            orig = getattr(sys.modules[f"cgcasimir.{mod}"], fn)
            wrapped = self._wrap(code, orig, self._after(fn))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the
        original object again."""
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        ok = all(getattr(m, attr) is orig for m, attr, orig in self._patched)
        self._patched.clear()
        return ok

    def _wrap(self, code, fn, after):
        name, parent, op = self.span_name, self.span_parent, self.span_op
        start, end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(code)
            parent.append(stack[-1])
            op.append(self.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(args, out)
            return out

        return traced

    def _after(self, fn):
        if fn == "nullspace":
            def record(args, basis):
                system = args[0]
                entries = [c for row in system.matrix for c in row.values()]
                bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                            for c in entries), default=0)
                ncols = len(system.columns)
                self.nullspace_sizes.append(
                    (len(system.matrix), ncols, len(entries), bits, ncols - len(basis)))
            return record
        if fn == "candidate_vectors":
            return lambda args, vecs: self.candidate_sizes.append(
                (len(vecs), len(args[1].monomials)))
        if fn == "enumerate_ansatz":
            return lambda args, basis: self.ansatz_sizes.append(len(basis.monomials))
        return None

    # -- results ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, op, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\top\tparent\tname\tstart\tend\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid}\t{self.span_op[sid]}\t{self.span_parent[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid]!r}\t{self.span_end[sid]!r}\n")

    def layer_metrics(self, hit_ratio: float, speed: list[float]) -> dict[str, float]:
        """Per-layer metrics of the recorded spans, each span's time scaled
        by ``speed`` of its op; run.py adds trace.wall_s and
        trace.overhead_s, which need the untraced runs."""
        n = len(self.span_start)
        code = {nm: i for i, nm in enumerate(self.names)}
        dur = [(self.span_end[i] - self.span_start[i]) * speed[self.span_op[i]]
               for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[self.span_name[i]] += 1
            self_s[self.span_name[i]] += dur[i] - child[i]

        out: dict[str, float] = {}
        for nm in _SELF_TIMED:
            out[f"{nm}.calls"] = calls[code[nm]]
            out[f"{nm}.s"] = self_s[code[nm]]
        out["theorems.build_theorem_casimir.calls"] = calls[code["theorems.build_theorem_casimir"]]
        out["cli.main.calls"] = calls[code["cli.main"]]
        out["cli.main.self_s"] = self_s[code["cli.main"]]
        out["grading.ansatz_monomials"] = sum(self.ansatz_sizes)
        out["realization.realize_generator.hit_ratio"] = hit_ratio

        rows, cols, nnz, bits, rank = (zip(*self.nullspace_sizes) if self.nullspace_sizes
                                       else ((),) * 5)
        out["solver.nullspace.rows"] = sum(rows)
        out["solver.nullspace.cols"] = sum(cols)
        out["solver.nullspace.nnz"] = sum(nnz)
        out["solver.nullspace.max_bits"] = max(bits, default=0)
        out["solver.nullspace.rank"] = sum(rank)
        out["solver.nullspace.rank_per_row"] = sum(rank) / sum(rows) if sum(rows) else 0.0
        cand = sum(c for c, _ in self.candidate_sizes)
        size = sum(a for _, a in self.candidate_sizes)
        out["solver.candidate_yield"] = cand / size if size else 0.0

        # The exhaustive centrality check: commutator calls made by
        # solve_casimirs itself after its last direct nullspace call.
        solve, comm, null = (code["solver.solve_casimirs"], code["uea.commutator"],
                             code["solver.nullspace"])
        last_null: dict[int, float] = {}
        for i in range(n):
            p = self.span_parent[i]
            if self.span_name[i] == null and p >= 0 and self.span_name[p] == solve:
                last_null[p] = max(last_null.get(p, 0.0), self.span_end[i])
        check_calls, check_s = 0, 0.0
        lower_calls, lower_s = 0, 0.0
        lower = code["solver.known_lower_casimirs"]
        for i in range(n):
            p = self.span_parent[i]
            if p < 0:
                continue
            if (self.span_name[i] == comm and self.span_name[p] == solve
                    and self.span_start[i] >= last_null.get(p, float("inf"))):
                check_calls += 1
                check_s += dur[i]
            elif self.span_name[i] == solve and self.span_name[p] == lower:
                lower_calls += 1
                lower_s += dur[i]
        out["solver.centrality_check.calls"] = check_calls
        out["solver.centrality_check.s"] = check_s
        out["solver.lower_resolves.calls"] = lower_calls
        out["solver.lower_resolves.s"] = lower_s
        out["trace.spans"] = n
        return out
