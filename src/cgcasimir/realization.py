"""Differential-operator realisations of the two algebra families.

Operators live in the Weyl algebra over a time variable and one or two
towers of position variables, with free parameters (the conformal weight
``delta`` plus the central values: ``m`` for d=1, ``r`` and ``theta``
for d=2) treated as commuting indeterminates so that every identity is
checked literally, not at sampled parameter values.

Canonical form keeps all multiplication operators to the left of all
derivatives; composition expands products by the Leibniz rule with exact
binomial coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .liealg import AlgebraSpec, GeneratorId, LieAlgebra, accumulate, central_pairing
from .uea import (UEAElement, grlex_key, monomial_names, monomial_text, monomial_word,
                  terms_text)

Expo = tuple[int, ...]


@dataclass(frozen=True)
class VarSet:
    """Ordered variable and parameter names; exponent tuples run over
    variables first, then parameters."""

    variables: tuple[str, ...]
    parameters: tuple[str, ...]

    @classmethod
    def for_spec(cls, spec: AlgebraSpec) -> "VarSet":
        if spec.d == 1:
            half = (spec.two_ell - 1) // 2
            xs = tuple(f"x{j}" for j in range(half + 1))
            return cls(("t",) + xs, ("delta", "m"))
        ell = int(spec.ell)
        xs = tuple(f"x{j}" for j in range(ell + 1))
        ys = tuple(f"y{j}" for j in range(ell))
        return cls(("t",) + xs + ys, ("delta", "r", "theta"))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def nsyms(self) -> int:
        return len(self.variables) + len(self.parameters)

    def sym_index(self, name: str) -> int:
        syms = self.variables + self.parameters
        return syms.index(name)

    def sym_name(self, i: int) -> str:
        return (self.variables + self.parameters)[i]


class Poly:
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ("vs", "terms")

    def __init__(self, vs: VarSet, terms: dict[Expo, Fraction] | None = None):
        self.vs = vs
        clean: dict[Expo, Fraction] = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, vs: VarSet) -> "Poly":
        return cls(vs)

    @classmethod
    def const(cls, vs: VarSet, c) -> "Poly":
        return cls(vs, {(0,) * vs.nsyms: Fraction(c)})

    @classmethod
    def symbol(cls, vs: VarSet, name: str, power: int = 1) -> "Poly":
        e = [0] * vs.nsyms
        e[vs.sym_index(name)] = power
        return cls(vs, {tuple(e): Fraction(1)})

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.vs, accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(self.vs, accumulate(dict(self.terms),
                                        ((e, -c) for e, c in other.terms.items())))

    def __neg__(self) -> "Poly":
        return Poly(self.vs, {e: -c for e, c in self.terms.items()})

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.vs, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Expo, Fraction] = {}
        for e1, c1 in self.terms.items():
            accumulate(out, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                             for e2, c2 in other.terms.items()))
        return Poly(self.vs, out)

    def deriv(self, var_i: int) -> "Poly":
        out: dict[Expo, Fraction] = {}
        for e, c in self.terms.items():
            if e[var_i]:
                e2 = list(e)
                e2[var_i] -= 1
                out[tuple(e2)] = c * e[var_i]
        return Poly(self.vs, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.vs == other.vs and self.terms == other.terms

    def __repr__(self):
        return f"Poly({pretty_poly(self)})"


def pretty_poly(p: Poly) -> str:
    return terms_text(p.terms, p.vs.variables + p.vs.parameters)


class DiffOp:
    """Weyl-algebra element: derivative multi-index -> Poly coefficient."""

    __slots__ = ("vs", "terms")

    def __init__(self, vs: VarSet, terms: dict[Expo, Poly] | None = None):
        self.vs = vs
        clean: dict[Expo, Poly] = {}
        for d, p in (terms or {}).items():
            if not p.is_zero():
                clean[d] = p
        self.terms = clean

    @classmethod
    def zero(cls, vs: VarSet) -> "DiffOp":
        return cls(vs)

    @classmethod
    def identity(cls, vs: VarSet) -> "DiffOp":
        return cls(vs, {(0,) * vs.nvars: Poly.const(vs, 1)})

    @classmethod
    def from_poly(cls, p: Poly) -> "DiffOp":
        return cls(p.vs, {(0,) * p.vs.nvars: p})

    @classmethod
    def partial(cls, vs: VarSet, var_name: str) -> "DiffOp":
        d = [0] * vs.nvars
        d[vs.variables.index(var_name)] = 1
        return cls(vs, {tuple(d): Poly.const(vs, 1)})

    def __add__(self, other: "DiffOp") -> "DiffOp":
        out = dict(self.terms)
        for d, p in other.terms.items():
            out[d] = out.get(d, Poly.zero(self.vs)) + p
        return DiffOp(self.vs, out)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        out = dict(self.terms)
        for d, p in other.terms.items():
            out[d] = out.get(d, Poly.zero(self.vs)) - p
        return DiffOp(self.vs, out)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.vs, {d: -p for d, p in self.terms.items()})

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.vs, {d: p.scale(c) for d, p in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.vs == other.vs and self.terms == other.terms

    def __repr__(self):
        return f"DiffOp({pretty_diffop(self)})"


def _iter_partials(p: Poly, alpha: Expo) -> list[tuple[Expo, Poly]]:
    """All (gamma, d^gamma p) with gamma <= alpha componentwise and
    d^gamma p nonzero."""
    acc: list[tuple[Expo, Poly]] = [((0,) * len(alpha), p)]
    for i, ai in enumerate(alpha):
        if not ai:
            continue
        extended = []
        for g, q in acc:
            extended.append((g, q))
            cur = q
            for k in range(1, ai + 1):
                cur = cur.deriv(i)
                if cur.is_zero():
                    break
                g2 = list(g)
                g2[i] = k
                extended.append((tuple(g2), cur))
        acc = extended
    return acc


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Operator product a∘b in canonical form (Leibniz expansion)."""
    if a.vs != b.vs:
        raise ValueError("operands live over different variable sets")
    vs = a.vs
    out: dict[Expo, Poly] = {}
    for alpha, pa in a.terms.items():
        for beta, pb in b.terms.items():
            for gamma, dpb in _iter_partials(pb, alpha):
                mult = 1
                for ai, gi in zip(alpha, gamma):
                    if gi:
                        mult *= math.comb(ai, gi)
                poly = pa * (dpb if mult == 1 else dpb.scale(mult))
                key = tuple(ai - gi + bi for ai, gi, bi in zip(alpha, gamma, beta))
                out[key] = out.get(key, Poly.zero(vs)) + poly
    return DiffOp(vs, out)


@lru_cache(maxsize=None)
def realize_generator(spec: AlgebraSpec, g: GeneratorId) -> DiffOp:
    """The differential-operator image of one generator."""
    vs = VarSet.for_spec(spec)
    n2 = spec.two_ell

    def var(name, power=1):
        return Poly.symbol(vs, name, power)

    def mono(*factors):
        p = Poly.const(vs, 1)
        for f in factors:
            p = p * f
        return p

    def op(poly: Poly, dname: Optional[str] = None) -> DiffOp:
        if dname is None:
            return DiffOp.from_poly(poly)
        d = [0] * vs.nvars
        d[vs.variables.index(dname)] = 1
        return DiffOp(vs, {tuple(d): poly})

    if g.kind == "H":
        return op(Poly.const(vs, -1), "t")

    if spec.d == 1:
        half = (n2 - 1) // 2
        if g.kind == "M":
            return DiffOp.from_poly(var("m"))
        if g.kind == "D":
            acc = DiffOp.from_poly(var("delta"))
            acc += op(var("t").scale(-2), "t")
            for j in range(half + 1):
                acc += op(var(f"x{j}").scale(-(n2 - 2 * j)), f"x{j}")
            return acc
        if g.kind == "C":
            t = DiffOp.from_poly(var("t"))
            acc = compose(t, realize_generator(spec, GeneratorId("D")))
            acc += op(var("t", 2), "t")
            w = math.factorial((n2 + 1) // 2)
            acc += DiffOp.from_poly(
                mono(var("m"), var(f"x{half}", 2)).scale(Fraction(w * w, 2)))
            for j in range(half):
                acc += op(var(f"x{j}").scale(-(n2 - j)), f"x{j+1}")
            return acc
        if g.kind == "P":
            n = g.index
            acc = DiffOp.zero(vs)
            if n > half:
                for j in range(n2 - n, half + 1):
                    coeff = math.comb(n, n2 - j) * central_pairing(spec, n2 - j)
                    acc += DiffOp.from_poly(
                        mono(var("m"), var("t", n - n2 + j), var(f"x{j}")).scale(coeff))
            for j in range(0, min(n, half) + 1):
                poly = var("t", n - j).scale(-math.comb(n, j))
                acc += op(poly, f"x{j}")
            return acc

    else:
        ell = int(spec.ell)
        if g.kind == "Theta":
            return DiffOp.from_poly(-var("theta"))
        if g.kind == "D":
            acc = DiffOp.from_poly(var("delta"))
            acc += op(var("t").scale(-2), "t")
            for n in range(ell):
                acc += op(var(f"x{n}").scale(-2 * (ell - n)), f"x{n}")
                acc += op(var(f"y{n}").scale(-2 * (ell - n)), f"y{n}")
            return acc
        if g.kind == "J":
            acc = DiffOp.from_poly(var("r"))
            for n in range(ell + 1):
                acc += op(-var(f"x{n}"), f"x{n}")
            for n in range(ell):
                acc += op(var(f"y{n}"), f"y{n}")
            return acc
        if g.kind == "C":
            t = DiffOp.from_poly(var("t"))
            acc = compose(t, realize_generator(spec, GeneratorId("D")))
            acc += op(var("t", 2), "t")
            acc += DiffOp.from_poly(
                mono(var("theta"), var(f"x{ell}"), var(f"y{ell-1}"))
                .scale(-ell * central_pairing(spec, ell + 1)))
            for n in range(ell):
                acc += op(var(f"x{n}").scale(-(n2 - n)), f"x{n+1}")
            for n in range(ell - 1):
                acc += op(var(f"y{n}").scale(-(n2 - n)), f"y{n+1}")
            return acc
        if g.kind == "Q":
            n = g.index
            acc = DiffOp.zero(vs)
            if n <= ell:
                for k in range(n + 1):
                    poly = var("t", k).scale(-math.comb(n, k))
                    acc += op(poly, f"x{n-k}")
            else:
                for k in range(n - ell):
                    coeff = -math.comb(n, k) * central_pairing(spec, n - k)
                    acc += DiffOp.from_poly(
                        mono(var("theta"), var("t", k), var(f"y{n2 - n + k}")).scale(coeff))
                for k in range(n - ell, n + 1):
                    poly = var("t", k).scale(-math.comb(n, k))
                    acc += op(poly, f"x{n-k}")
            return acc
        if g.kind == "P":
            n = g.index
            acc = DiffOp.zero(vs)
            if n < ell:
                for k in range(n + 1):
                    poly = var("t", k).scale(-math.comb(n, k))
                    acc += op(poly, f"y{n-k}")
            else:
                for k in range(n - ell + 1):
                    coeff = math.comb(n, k) * central_pairing(spec, n - k)
                    acc += DiffOp.from_poly(
                        mono(var("theta"), var("t", k), var(f"x{n2 - n + k}")).scale(coeff))
                for k in range(n - ell + 1, n + 1):
                    poly = var("t", k).scale(-math.comb(n, k))
                    acc += op(poly, f"y{n-k}")
            return acc

    raise ValueError(f"no realisation rule for generator {g.name}")


def verify_realization(alg: LieAlgebra,
                       ops: Optional[dict[GeneratorId, DiffOp]] = None
                       ) -> list[tuple[GeneratorId, GeneratorId, DiffOp]]:
    """Check [rho(x), rho(y)] = rho([x, y]) for every basis pair; the
    returned list of (x, y, residual) is empty exactly on success.

    ``ops`` overrides the generator images (used for fault injection)."""
    if ops is None:
        ops = {g: realize_generator(alg.spec, g) for g in alg.basis}
    failures = []
    images = [ops[g] for g in alg.basis]
    vs = images[0].vs
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = compose(images[i], images[j]) - compose(images[j], images[i])
            rhs = DiffOp.zero(vs)
            for k, c in alg.pair_table[i][j]:
                rhs += images[k].scale(c)
            residual = lhs - rhs
            if not residual.is_zero():
                failures.append((alg.basis[i], alg.basis[j], residual))
    return failures


def realize_element(alg: LieAlgebra, a: UEAElement) -> DiffOp:
    """Linear extension of the realisation to enveloping-algebra elements,
    composing generator images in monomial position order."""
    vs = VarSet.for_spec(alg.spec)
    acc = DiffOp.zero(vs)
    for mono, c in a.terms.items():
        cur = DiffOp.identity(vs)
        for p in monomial_word(mono):
            cur = compose(cur, realize_generator(alg.spec, alg.basis[p]))
        acc += cur.scale(c)
    return acc


def is_parameter_scalar(op: DiffOp) -> tuple[bool, DiffOp]:
    """True when the operator is multiplication by a polynomial in the
    parameters alone; the residual collects every offending component."""
    vs = op.vs
    zero_d = (0,) * vs.nvars
    nv = vs.nvars
    residual: dict[Expo, Poly] = {}
    for d, p in op.terms.items():
        if d == zero_d:
            bad = Poly(vs, {e: c for e, c in p.terms.items() if any(e[:nv])})
            if not bad.is_zero():
                residual[d] = bad
        else:
            residual[d] = p
    res = DiffOp(vs, residual)
    return res.is_zero(), res


def parameter_scalar_part(op: DiffOp) -> Poly:
    vs = op.vs
    zero_d = (0,) * vs.nvars
    nv = vs.nvars
    p = op.terms.get(zero_d)
    if p is None:
        return Poly.zero(vs)
    return Poly(vs, {e: c for e, c in p.terms.items() if not any(e[:nv])})


def pretty_diffop(op: DiffOp) -> str:
    if not op.terms:
        return "0"
    unicode_names = {"delta": "δ", "theta": "θ"}
    sym_names = [unicode_names.get(n, n) for n in op.vs.variables + op.vs.parameters]
    partials = [f"∂_{v}" for v in op.vs.variables]
    bits = []
    for d in sorted(op.terms, key=grlex_key):
        ptxt = terms_text(op.terms[d].terms, sym_names)
        dtxt = monomial_text(d, partials)
        if not dtxt:
            bits.append(ptxt)
        elif ptxt == "1":
            bits.append(dtxt)
        elif ptxt == "-1":
            bits.append(f"-{dtxt}")
        else:
            joined = f"({ptxt})*{dtxt}" if (" + " in ptxt or " - " in ptxt) else f"{ptxt}*{dtxt}"
            bits.append(joined)
    return bits[0] + "".join(" - " + b[1:] if b.startswith("-") else " + " + b
                             for b in bits[1:])


def diffop_json_dict(op: DiffOp) -> dict:
    syms = op.vs.variables + op.vs.parameters
    return {"terms": [
        {"deriv": monomial_names(d, op.vs.variables),
         "poly": [{"monomial": monomial_names(e, syms), "coeff": str(c)}
                  for e, c in sorted(op.terms[d].terms.items())]}
        for d in sorted(op.terms)
    ]}
