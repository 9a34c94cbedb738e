"""Differential-operator realisations of the two algebra families.

Operators live in the Weyl algebra over a time variable and one or two
towers of position variables, with free parameters (the conformal weight
``delta`` plus the central values: ``m`` for d=1, ``r`` and ``theta``
for d=2) treated as commuting indeterminates so that every identity is
checked literally, not at sampled parameter values.

One tower rule serves both families.  Each translation kind has a
derivative tower ``u``, a partner tower ``v`` and a tail sign ``s``:
d=1 ``P`` uses ``(x, x, +1)`` with ``z = m``, d=2 ``Q`` uses
``(x, y, -1)`` and ``P`` uses ``(y, x, +1)`` with ``z = theta``.  Then,
with ``cp`` the central pairing and each sum over the indices inside
its tower,

    rho(P_n) = -Σₖ C(n,k) tᵏ ∂_{u[n-k]} + s Σₖ C(n,k) cp(n-k) z tᵏ v[2ell-n+k].

``D`` is ``delta - 2t∂_t - Σⱼ (2ell-2j) T_j ∂_{T_j}`` over the x and y
towers; ``C`` is ``t∘D + t²∂_t - Σⱼ (2ell-j) T_j ∂_{T_(j+1)}`` plus one
central term per family.

Canonical form keeps all multiplication operators to the left of all
derivatives.  An operator is one flat sparse map from (derivative
multi-index, exponent tuple), packed into one int with a guarded 32-bit
field per entry, to coefficient, so a polynomial is just an operator
without derivatives.  Composition applies the Leibniz rule directly on
those keys, with exact binomial and falling-factorial coefficients.
Every generator image is first order, ``Σ p(x)∂ᵥ + q(x)``, and has few
terms, each with at most two nonzero variable exponents: an image on the
left gives at most two terms per term of the right operand, and an image
on the right, under left terms of higher order, is looped over
outermost, each of its terms' exponents read once.  Monomials are
realised by one walk over their reversed sorted words that
left-multiplies each word's letters onto the image of the longest suffix
it shares with the previous word, keeping only the current path.  That
walk can keep only each image's terms of t-degree at most K (its t-jet):
every generator image but ``rho(H) = -∂_t`` keeps or raises the degree
in t of each term it multiplies, and ``rho(H)`` lowers it by at most
one, so the terms of t-degree at most K of ``rho(x₁⋯x_k)`` come only
from those of ``rho(x_i⋯x_k)`` up to K plus the number of ``H`` among
``x₁⋯x_(i-1)``.  Each partial image is made within that cap, not cut to
it afterwards: ``compose`` takes the cap, skips the left terms above it
and keeps no product term above it.  An element is realised by Horner's
rule over the suffixes of its sorted words, depth first, so words
sharing a suffix merge before that suffix's letters go on; each sum is
right-multiplied by its letter's image, so a word's small low-index
images go on first and its large high-index ``P`` images last.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Optional

from .liealg import AlgebraSpec, GeneratorId, LieAlgebra, accumulate, central_pairing, int_if_whole
from .uea import Monomial, UEAElement, grlex_key, monomial_names, monomial_text, terms_text

Expo = tuple[int, ...]

FIELD_MAX = 2**31 - 1  # largest entry of a packed key; bit 31 of a field is its guard
# most terms the product ``compose`` returns may hold, under a cap the
# terms it keeps: 547 times the 479 of the largest product a ladder solve
# builds (d=2 ell=5, on the pipeline)
MAX_TERMS = 2**18

# the generator each parameter stands for: its image holds the parameter
# as a bare term (delta in rho(D), m in rho(M), r in rho(J) and theta in
# rho(Theta)), and the parameter has that generator's grade
PARAMETER_GENERATORS = {"delta": "D", "m": "M", "r": "J", "theta": "Theta"}


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

    @cached_property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def nsyms(self) -> int:
        return len(self.variables) + len(self.parameters)

    @cached_property
    def _fields(self) -> struct.Struct:
        return struct.Struct(f"<{self.nvars + self.nsyms}I")

    @cached_property
    def guard(self) -> int:
        """Bit 31 of every field, which no entry of a packed key may set."""
        return int.from_bytes(b"\0\0\0\x80" * (self.nvars + self.nsyms), "little")

    def pack(self, deriv: Expo, expo: Expo) -> int:
        """Packed exponent vector (Monagan & Pearce, CASC 2007): ``deriv[i]``
        in 32-bit field ``i`` and ``expo[j]`` in field ``nvars + j``."""
        if not all(0 <= f <= FIELD_MAX for f in (*deriv, *expo)):
            raise ValueError(f"exponent outside 0 .. {FIELD_MAX}: {deriv}, {expo}")
        return int.from_bytes(self._fields.pack(*deriv, *expo), "little")

    def unpack(self, key: int) -> tuple[Expo, Expo]:
        fields = self._fields.unpack(key.to_bytes(self._fields.size, "little"))
        return fields[:self.nvars], fields[self.nvars:]


class DiffOp:
    """Weyl-algebra element as one sparse map ``vs.pack(deriv, expo) ->
    coeff``: the term ``coeff * x^expo * ∂^deriv``, with ``deriv`` over the
    variables and ``expo`` over the variables then the parameters.  A
    polynomial is the operator whose terms all have the zero ``deriv``.
    Coefficients are ``int`` where exact and ``Fraction`` only where a
    value needs one.  Only the constructor and ``terms`` unpack keys."""

    __slots__ = ("vs", "packed")

    def __init__(self, vs: VarSet, terms: dict[tuple[Expo, Expo], object] | None = None):
        self.vs = vs
        self.packed = {vs.pack(d, e): c for (d, e), c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, vs: VarSet, packed: dict[int, object]) -> "DiffOp":
        """An operator over a packed map that already has no zero entry."""
        op = cls.__new__(cls)
        op.vs, op.packed = vs, packed
        return op

    @property
    def terms(self) -> dict[tuple[Expo, Expo], object]:
        """The map ``(deriv, expo) -> coeff``, unpacked afresh."""
        return {self.vs.unpack(k): c for k, c in self.packed.items()}

    @classmethod
    def identity(cls, vs: VarSet) -> "DiffOp":
        return cls(vs, {((0,) * vs.nvars, (0,) * vs.nsyms): 1})

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp._of(self.vs, accumulate(dict(self.packed), other.packed.items()))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + other.scale(-1)

    def __neg__(self) -> "DiffOp":
        return self.scale(-1)

    def scale(self, c) -> "DiffOp":
        return DiffOp._of(self.vs, {k: c * v for k, v in self.packed.items()} if c else {})

    def is_zero(self) -> bool:
        return not self.packed

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.vs == other.vs and self.packed == other.packed

    def __repr__(self):
        return f"DiffOp({pretty_diffop(self)})"


def compose(a: DiffOp, b: DiffOp, cap: Optional[int] = None) -> DiffOp:
    """Operator product a∘b in canonical form.  By the Leibniz rule,
    ``∂^α x^e`` is the sum over ``γ <= α`` of
    ``Πᵢ C(αᵢ, γᵢ) (eᵢ)↓γᵢ x^(e-γ) ∂^(α-γ)``; the falling factorial
    vanishes once ``γᵢ > eᵢ``, so only those ``γ`` are visited.

    No key is unpacked: the ``γ = 0`` key is ``k₁ + k₂``, and each ``γ``
    subtracts ``γᵢ`` from fields ``i`` and ``nvars + i``.  A first-order
    left term ``p ∂ᵢ``, as in every generator image, reads its field ``i``
    once and gives at most two terms per right term: ``k₁ + k₂`` and, when
    ``eᵢ > 0``, that key less 1 in both fields, times ``eᵢ``.  The left
    terms of higher order are taken the other way round, one right term
    at a time: its nonzero exponents ``eᵢ`` (at most two in a generator
    image) are read once, and each left term's ``αᵢ`` on those fields
    picks its Leibniz terms, worked out once per right term and distinct
    ``αᵢ``.  Fields of guard-clean operands never carry or borrow, so a
    key reaching a guard bit is an entry above ``FIELD_MAX`` and raises
    ``ValueError``; so does a product of more than ``MAX_TERMS`` terms.

    With ``cap``, the product is only its terms of t-degree at most
    ``cap`` (``t_jet(compose(a, b), cap)``), and only those are made.  A
    Leibniz term's t exponent is ``e₁ + e₂ - γ`` in field ``nvars``, with
    ``γ <= e₂``, so never below its left term's: a left term of t-degree
    above ``cap`` is skipped, and the other products above it are dropped
    with the zeros.  The guard and ``MAX_TERMS`` checks see what is kept."""
    vs = a.vs
    if vs != b.vs:
        raise ValueError("operands live over different variable sets")
    nv = vs.nvars
    unit = 1 + (1 << 32 * nv)  # 1 in field 0 and in field nvars
    low = (1 << 32 * nv) - 1  # the derivative fields
    t_at = 32 * nv  # t's exponent field
    right = b.packed.items()
    left = a.packed.items()
    if cap is not None:
        left = [(k1, c1) for k1, c1 in left if k1 >> t_at & 0xFFFFFFFF <= cap]
    higher = []  # left terms of order two or more
    out: dict[int, object] = {}
    get = out.get
    for k1, c1 in left:
        alpha = k1 & low
        if not alpha:
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        elif alpha & alpha - 1 or (alpha.bit_length() - 1) % 32:
            higher.append((k1, c1))
        else:
            at = alpha.bit_length() - 1  # αᵢ = 1 for i = at / 32
            shift, drop = at + 32 * nv, unit << at
            for k2, c2 in right:
                k, c = k1 + k2, c1 * c2
                out[k] = get(k, 0) + c
                if e := k2 >> shift & 0xFFFFFFFF:
                    k -= drop
                    out[k] = get(k, 0) + c * e
    for k2, c2 in right if higher else ():
        fields = [(at, e) for at in range(0, 32 * nv, 32) if (e := k2 >> at + 32 * nv & 0xFFFFFFFF)]
        mask = sum(0xFFFFFFFF << at for at, _ in fields)
        leibniz = {}  # α on the fields -> (key offset, coefficient) terms
        for k1, c1 in higher:
            if not (sub := k1 & mask):
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
                continue
            terms = leibniz.get(sub)
            if terms is None:
                terms = [(k2, c2)]
                for at, e in fields:
                    if al := sub >> at & 0xFFFFFFFF:
                        terms = [(k - (g * unit << at), c * math.comb(al, g) * math.perm(e, g))
                                 for k, c in terms for g in range(min(al, e) + 1)]
                leibniz[sub] = terms
            for k, c in terms:
                k += k1
                out[k] = get(k, 0) + c1 * c
    if cap is None:
        out = {k: c for k, c in out.items() if c}
    else:
        out = {k: c for k, c in out.items() if c and k >> t_at & 0xFFFFFFFF <= cap}
    if len(out) > MAX_TERMS:
        raise ValueError(f"an operator product of {len(out)} terms exceeds the bound "
                         f"of {MAX_TERMS}")
    if reduce(or_, out, 0) & vs.guard:
        raise ValueError(f"an exponent of the product exceeds {FIELD_MAX}")
    return DiffOp._of(vs, out)


@lru_cache(maxsize=None)
def realize_generator(spec: AlgebraSpec, g: GeneratorId) -> DiffOp:
    """The differential-operator image of one generator, by the tower rule
    of the module docstring."""
    vs = VarSet.for_spec(spec)
    n2, syms = spec.two_ell, vs.variables + vs.parameters
    x = [v for v in vs.variables if v[0] == "x"]
    y = [v for v in vs.variables if v[0] == "y"]
    # per family: the central parameter z, the central generators, each
    # translation kind's (derivative tower, partner tower, tail sign), and
    # the central term of C
    if spec.d == 1:
        w = math.factorial((n2 + 1) // 2)
        # w²/2 is a whole number except at ell=1/2, where w = 1
        c_tail = (int_if_whole(Fraction(w * w, 2)), {"m": 1, x[-1]: 2})
        z, centre, towers = "m", {"M": 1}, {"P": (x, x, 1)}
    else:
        c_tail = (-(n2 // 2) * central_pairing(spec, n2 // 2 + 1),
                  {"theta": 1, x[-1]: 1, y[-1]: 1})
        z, centre, towers = "theta", {"Theta": -1}, {"Q": (x, y, -1), "P": (y, x, 1)}
    terms: dict[int, object] = {}
    # 1 in the packed field of each derivative and of each symbol's exponent
    d_unit = {v: 1 << 32 * i for i, v in enumerate(vs.variables)}
    e_unit = {s: 1 << 32 * (vs.nvars + i) for i, s in enumerate(syms)}

    def add(c, mono: dict[str, int], deriv: Optional[str] = None):
        """Add the term ``c · Π name^power · ∂_deriv`` over ``mono``."""
        key = sum(e * e_unit[s] for s, e in mono.items()) + (d_unit[deriv] if deriv else 0)
        accumulate(terms, [(key, c)])

    if g.kind == "H":
        add(-1, {}, "t")
    elif g.kind in centre:
        add(centre[g.kind], {z: 1})
    elif g.kind in towers:
        (u, v, sign), n = towers[g.kind], g.index
        for k in range(n + 1):
            if n - k < len(u):
                add(-math.comb(n, k), {"t": k}, u[n - k])
            if n2 - n + k < len(v):
                add(sign * math.comb(n, k) * central_pairing(spec, n - k),
                    {z: 1, "t": k, v[n2 - n + k]: 1})
    elif g.kind in ("D", "C"):
        t = int(g.kind == "C")  # C = t∘D + t²∂_t + the shifts T_j ∂_{T_(j+1)} + c_tail
        add(1, {"delta": 1, "t": t})
        add(t - 2, {"t": 1 + t}, "t")
        for tower in (x, y):
            for j, v in enumerate(tower):
                add(2 * j - n2, {"t": t, v: 1}, v)
                if t and j + 1 < len(tower):
                    add(j - n2, {v: 1}, tower[j + 1])
        if t:
            add(*c_tail)
    elif g.kind == "J" and spec.d == 2:
        add(1, {"r": 1})
        for sign, tower in ((-1, x), (1, y)):
            for v in tower:
                add(sign, {v: 1}, v)
    else:
        raise ValueError(f"no realisation rule for generator {g.name}")
    if reduce(or_, terms, 0) & vs.guard:
        raise ValueError(f"an exponent of the image of {g.name} exceeds {FIELD_MAX}")
    return DiffOp._of(vs, terms)


def verify_realization(alg: LieAlgebra) -> list[tuple[GeneratorId, GeneratorId, DiffOp]]:
    """Check [rho(x), rho(y)] = rho([x, y]) for every basis pair; the
    returned list of (x, y, residual) is empty exactly on success."""
    failures = []
    images = [realize_generator(alg.spec, g) for g in alg.basis]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            residual = compose(images[i], images[j]) - compose(images[j], images[i])
            for k, c in alg.pair_table[i][j]:
                residual -= images[k].scale(c)
            if not residual.is_zero():
                failures.append((alg.basis[i], alg.basis[j], residual))
    return failures


def realize_monomials(alg: LieAlgebra, monomials: Iterable[Monomial], jet: Optional[int] = None
                      ) -> Iterator[tuple[int, DiffOp]]:
    """Yield ``(index, image)`` for each monomial, a sorted word, walking
    the reversed words in sorted order.  ``path[j]`` is the image of the
    last ``j`` letters of the current word, so each word left-multiplies
    generator images onto the longest suffix it shares with the previous
    one, and only that path is kept alive.  A last letter's image is the
    generator image itself.

    With ``jet`` K, each image is only its terms of t-degree at most K:
    ``path[j]`` holds its terms of t-degree at most K plus the number of
    ``H`` letters still to go on, which are exact because only ``H``
    lowers a t-degree, and by at most one.  Each is made within that cap
    by ``compose``; a last letter's image is cut to it.  The words are then
    walked by their ``H`` count first, so that a shared suffix also shares
    every level's cap."""
    words = [tuple(reversed(m)) for m in monomials]
    images = {p: realize_generator(alg.spec, alg.basis[p]) for p in set().union(*words)}
    path = [DiffOp.identity(VarSet.for_spec(alg.spec))]
    word: tuple[int, ...] = ()
    h = alg.position(alg.generator("H"))
    hs = [0 if jet is None else w.count(h) for w in words]
    count = None
    for i in sorted(range(len(words)), key=lambda i: (hs[i], words[i])):
        prev, word = word, words[i]
        k = _shared(prev, word) if hs[i] == count else 0
        count = hs[i]
        del path[k + 1:]
        for j in range(k, len(word)):
            img = images[word[j]]
            cap = None if jet is None else jet + word[j + 1:].count(h)
            if len(path) > 1:
                path.append(compose(img, path[-1], cap))
            else:
                path.append(img if cap is None else t_jet(img, cap))
        yield i, path[-1]


def t_jet(op: DiffOp, cap: int) -> DiffOp:
    """The terms of ``op`` whose t exponent is at most ``cap``; t's
    exponent is packed field ``nvars``."""
    shift = 32 * op.vs.nvars
    return DiffOp._of(op.vs, {k: c for k, c in op.packed.items()
                              if k >> shift & 0xFFFFFFFF <= cap})


def realize_element(alg: LieAlgebra, a: UEAElement,
                    charge: Optional[Callable[[int], object]] = None) -> DiffOp:
    """Linear extension of the realisation to enveloping-algebra elements,
    by Horner's rule over the suffixes of the sorted words: with ``c_v``
    the coefficient of word ``v`` (0 if absent), ``S(v) = c_v + Σₓ
    S(xv)∘rho(x)`` over the letters ``x`` that extend ``v`` towards a word,
    and the image is ``S(())``.  The reversed words are visited in sorted
    order, depth first: ``acc[j]`` sums ``S`` of the current word's last
    ``j`` letters, and it is right-multiplied by its letter's image and
    added one level up once no later word has that suffix.  Words sharing
    a suffix thus merge, and cancel, before its letters are composed on,
    and each distinct non-empty suffix is composed exactly once.  A word's
    letters are sorted, so its small low-index images go on first and the
    large high-index ``P`` images last, onto sums that many words share.
    ``charge``, if given, is called with each product's term count as it
    is made, so a caller can refuse a realisation that grows too large."""
    vs = VarSet.for_spec(alg.spec)
    # the sums run over integers: coefficients times their common denominator
    den = math.lcm(*(c.denominator for c in a.terms.values()))
    acc: list[dict] = [{}]
    word: tuple[int, ...] = ()

    def fold(depth: int):
        """Close the current reversed word's levels deeper than ``depth``."""
        while len(acc) > depth + 1:
            top = DiffOp._of(vs, acc.pop())
            img = realize_generator(alg.spec, alg.basis[word[len(acc) - 1]])
            product = compose(top, img).packed
            if charge is not None:
                charge(len(product))
            accumulate(acc[-1], product.items())

    for w, c in sorted((w[::-1], c) for w, c in a.terms.items()):  # words are distinct
        fold(_shared(word, w))
        acc.extend({} for _ in w[len(acc) - 1:])
        word = w
        accumulate(acc[-1], [(0, c.numerator * (den // c.denominator))])  # key 0: identity
    fold(0)
    if den == 1:
        return DiffOp._of(vs, acc[0])
    return DiffOp._of(vs, {k: int_if_whole(Fraction(c, den)) for k, c in acc[0].items()})


def _shared(u: tuple, w: tuple) -> int:
    """Length of the longest common prefix of two words."""
    return next((j for j, (x, y) in enumerate(zip(u, w)) if x != y), min(len(u), len(w)))


def is_parameter_scalar(op: DiffOp) -> tuple[bool, DiffOp]:
    """True when the operator is multiplication by a polynomial in the
    parameters alone; the residual collects every offending term.  The
    derivative and variable-exponent fields are the low ``2·nvars``."""
    var_fields = (1 << 64 * op.vs.nvars) - 1
    res = DiffOp._of(op.vs, {k: c for k, c in op.packed.items() if k & var_fields})
    return res.is_zero(), res


def _by_deriv(items) -> list[tuple[Expo, dict[Expo, object]]]:
    """(deriv, {expo: coeff}) groups of sorted operator terms."""
    return [(d, {e: c for (_, e), c in grp})
            for d, grp in itertools.groupby(items, key=lambda kv: kv[0][0])]


def pretty_diffop(op: DiffOp) -> str:
    if not op.terms:
        return "0"
    unicode_names = {"delta": "δ", "theta": "θ"}
    sym_names = [unicode_names.get(n, n) for n in op.vs.variables + op.vs.parameters]
    partials = [f"∂_{v}" for v in op.vs.variables]
    bits = []
    for d, poly in _by_deriv(sorted(op.terms.items(), key=lambda kv: grlex_key(kv[0][0]))):
        ptxt = terms_text(poly, sym_names)
        dtxt = monomial_text(d, partials)
        if not dtxt:
            bits.append(ptxt)
        elif ptxt in ("1", "-1"):
            bits.append(ptxt[:-1] + dtxt)
        else:
            bits.append(f"({ptxt})*{dtxt}" if (" + " in ptxt or " - " in ptxt) else f"{ptxt}*{dtxt}")
    return bits[0] + "".join(" - " + b[1:] if b.startswith("-") else " + " + b
                             for b in bits[1:])


def diffop_json_dict(op: DiffOp) -> dict:
    syms = op.vs.variables + op.vs.parameters
    return {"terms": [
        {"deriv": monomial_names(d, op.vs.variables),
         "poly": [{"monomial": monomial_names(e, syms), "coeff": str(c)}
                  for e, c in poly.items()]}
        for d, poly in _by_deriv(sorted(op.terms.items()))
    ]}
