"""Structure-constant Lie algebras for the centrally extended conformal
Galilei families, in exact arithmetic: every structure constant is an
integer and stays an ``int``; ``Fraction`` appears only where a value
needs one.

Two families are supported:

* ``d=1`` with half-odd ``ell`` (central element ``M``),
* ``d=2`` with integer ``ell`` (exotic central element ``Theta``).

It also holds the sparse helpers every layer shares: ``accumulate`` (add
and drop zeros) and one exact elimination, a spanning forward pass with
two finishes.  The forward pass is behind the solver's nullspaces and
spans, and, modulo a prime alone, behind ``bb_count``'s rank.  When a
system has more nonzero rows than columns, it first picks its pivot rows,
sparsest first, by one elimination of the transpose modulo a prime,
eliminates only those exactly, and certifies in integer arithmetic that
every other row lies in their span; otherwise it eliminates every row
exactly.  ``echelon`` back-substitutes its pivots to the reduced echelon
form.  ``nullspace_basis`` instead back-solves one integer vector per free
column, the same vectors the certificate checks; a system's rank can be
hundreds and its nullity a handful, so this reads the few vectors a
reduced echelon form would give without building one.  Both finishes
return primitive integer rows, coprime ``int``s positive at the pivot or
free column: the one format of every span and nullspace vector in the
package.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

SparseVec = dict[int, int | Fraction]  # basis position -> coefficient, int where exact


def accumulate(acc: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, value) of ``items`` into the sparse map ``acc``,
    deleting a key whose sum becomes zero; returns ``acc``."""
    for k, v in items:
        if k in acc:
            s = acc[k] + v
            if s:
                acc[k] = s
            else:
                del acc[k]
        elif v:
            acc[k] = v
    return acc


def integerize(row: dict) -> dict:
    """A sparse rational row scaled to coprime integers, zeros dropped.  A
    row that already is one is returned itself, not copied, so a system's
    rows are not held twice while it is eliminated; callers only read it."""
    ints = row
    if not all(type(c) is int for c in row.values()):
        den = math.lcm(*(c.denominator for c in row.values()))
        ints = {k: c.numerator * (den // c.denominator) for k, c in row.items()}
    g = math.gcd(*ints.values())
    if g == 1 and all(ints.values()):
        return ints
    return {k: v // g for k, v in ints.items() if v}


def int_if_whole(q: int | Fraction) -> int | Fraction:
    """A rational as an ``int`` where it is whole, else unchanged."""
    return q.numerator if q.denominator == 1 else q


# Residues fit one 30-bit CPython digit, so the modular pass stays on small ints.
PRIME = 1_073_741_789  # the largest prime below 2**30


def _exact_clearer(piv: dict, col: int):
    """Clears ``col`` from a row over the integers: ``piv[col]*r -
    r[col]*piv``, divided by its gcd, as a new row."""
    pv = piv[col]

    def clear(r: dict) -> dict:
        na = -r[col]
        r2 = accumulate({c: pv * x for c, x in r.items()}, ((c, na * x) for c, x in piv.items()))
        g = math.gcd(*r2.values())
        if g > 1:
            r2 = {c: v // g for c, v in r2.items()}
        return r2
    return clear


def _mod_clearer(piv: dict, col: int):
    """Clears ``col`` from a row modulo ``PRIME``: ``r - (r[col]/piv[col])*piv``
    in place, so only the pivot row's columns are touched; zeros dropped."""
    inv = pow(piv[col], -1, PRIME)

    def clear(r: dict) -> dict:
        f = r[col] * inv
        for c, x in piv.items():
            v = (r.get(c, 0) - f * x) % PRIME
            if v:
                r[c] = v
            else:
                del r[c]
        return r
    return clear


def _forward(rows: list[dict], ncols: int, clearer) -> list[tuple[int, int, dict]]:
    """Forward elimination: (pivot column, input row index, pivot row) per
    pivot, pivot columns leftmost first.  Each row waits in the bucket of
    its leading column.  At each column, the bucket's row with the fewest
    nonzeros supplies the pivot, ties going to the earliest row
    (Markowitz's fill-reducing choice), and ``clearer(piv, col)`` clears
    ``col`` from the others, each of which moves to the bucket of its new
    leading column."""
    by_col: dict[int, list[tuple[int, dict]]] = {}
    for idx, r in enumerate(rows):
        if r:
            by_col.setdefault(min(r), []).append((idx, r))
    pivots = []
    for col in range(ncols):
        bucket = by_col.pop(col, None)
        if not bucket:
            continue
        best, piv = min(bucket, key=lambda item: (len(item[1]), item[0]))
        clear = clearer(piv, col)
        for idx, r in bucket:
            if idx != best:
                r = clear(r)
                if r:
                    by_col.setdefault(min(r), []).append((idx, r))
        pivots.append((col, best, piv))
    return pivots


def _exact_forward(rows: list[dict], ncols: int) -> list[tuple[int, int, dict]]:
    """``_forward`` over the integers, on integerized rows."""
    return _forward(rows, ncols, _exact_clearer)


def _dot(u: dict, v: dict) -> int:
    """Dot product of two sparse rows, iterating the shorter."""
    if len(v) < len(u):
        u, v = v, u
    return sum(a * v[c] for c, a in u.items() if c in v)


def _back_solve(pivots: list[tuple[int, int, dict]], ncols: int) -> list[tuple[int, dict]]:
    """The nullspace of ``_forward``'s integer pivot rows: per free column
    f, ascending, (f, x) for the integer vector x with x[f] > 0, every
    other free column 0, and each pivot row's dot product with x zero.
    The pivot entries are solved from the last pivot up; where a pivot
    entry does not divide what it must cancel, all of x is scaled by the
    quotient, so x[f] is the running denominator of the rational vector
    with a 1 at f."""
    pivot_set = {col for col, _, _ in pivots}
    null = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        x = {f: 1}
        for col, _, row in reversed(pivots):
            s = _dot(row, x)
            if s:
                pv = row[col]
                g = math.gcd(s, pv)
                s, pv = (s // g, pv // g) if pv > 0 else (-s // g, -pv // g)
                if pv != 1:
                    x = {c: pv * v for c, v in x.items()}
                x[col] = -s
        null.append((f, x))
    return null


def _spanning_forward(rows: Iterable[SparseVec], ncols: int
                      ) -> tuple[list[tuple[int, int, dict]], Optional[list[tuple[int, dict]]]]:
    """The integer ``_forward`` pivots of a certified spanning subset of
    ``rows``, and the certificate's ``_back_solve`` of them (None where no
    certificate ran).

    Only the rows the exact pass reads are integerized; a row with a
    ``Fraction`` entry is integerized up front, so that no residue needs
    the inverse of a denominator modulo ``PRIME``.  With more nonzero rows
    than columns, the rows are sorted by nonzero count (stably), and
    ``_forward`` runs modulo ``PRIME`` over the transpose: one row per
    column, one column per sorted row.  A position is a pivot column of
    any echelon form of the transpose exactly when its row is not in the
    span of the rows before it, so the pivot positions name the
    sparsest-first greedy basis of the row space modulo ``PRIME``, and
    only those rows are eliminated exactly.  The transposed pass has
    ``ncols`` rows, of which only the nullity-many vanish, where a pass
    over the rows themselves would clear every dependent row to zero.
    Rows independent modulo a prime are independent over the rationals.
    The certificate: every dropped row has integer dot product 0 with each
    integer nullspace vector of the kept rows.  Then all rows span what
    the kept rows span.  If a dropped row fails, every row is eliminated
    exactly.  With at most ``ncols`` nonzero rows the exact pass runs
    alone."""
    rows = [r for r in rows if r]
    if len(rows) > ncols:
        rows = [r if all(type(c) is int for c in r.values()) else integerize(r) for r in rows]
        order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
        cols: list[dict] = [{} for _ in range(ncols)]
        for pos, i in enumerate(order):
            for c, x in rows[i].items():
                if m := x % PRIME:
                    cols[c][pos] = m
        kept = {order[pos] for pos, _, _ in _forward(cols, len(rows), _mod_clearer)}
        pivots = _exact_forward([integerize(r) for i, r in enumerate(rows) if i in kept], ncols)
        null = _back_solve(pivots, ncols)
        if not any(_dot(r, x) for i, r in enumerate(rows) if i not in kept for _, x in null):
            return pivots, null
    return _exact_forward(list(map(integerize, rows)), ncols), None


def echelon(rows: Iterable[SparseVec], ncols: int
            ) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form of sparse rational rows over the columns
    ``0 .. ncols-1``: (rows, pivot columns), rows sorted by pivot, each
    the row with a 1 at its pivot integerized, so positive there; zero and
    dependent rows drop out.

    ``_spanning_forward`` gives the integer pivots (cross multiplication
    with gcd reduction), and back substitution with the same clearer
    finishes them.  The reduced echelon form of the row space does not
    depend on which rows supply the pivots, so neither does the result."""
    pivots, _ = _spanning_forward(rows, ncols)
    pivot_cols = [col for col, _, _ in pivots]
    ints = [r for _, _, r in pivots]
    for k in range(len(ints) - 1, 0, -1):
        col = pivot_cols[k]
        clear = _exact_clearer(ints[k], col)
        for i in range(k):
            if col in ints[i]:
                ints[i] = clear(ints[i])
    return [r if r[col] > 0 else {c: -x for c, x in r.items()}
            for r, col in zip(ints, pivot_cols)], pivot_cols


def nullspace_basis(rows: Iterable[SparseVec], ncols: int) -> list[dict[int, int]]:
    """Nullspace basis of sparse rational rows over the columns ``0 ..
    ncols-1``: per free column f, ascending, the vector a reduced echelon
    form reads off (1 at f, every other free column 0) times its
    denominator, a primitive ``int`` vector keyed f first and then its
    nonzero pivot columns, ascending.

    It is ``_back_solve`` of ``_spanning_forward``'s pivots; no back
    substitution runs.  Where the certificate ran, its vectors are the ones
    returned."""
    pivots, null = _spanning_forward(rows, ncols)
    if null is None:
        null = _back_solve(pivots, ncols)
    # _back_solve writes the pivot entries last pivot first
    return [{f: x.pop(f), **dict(reversed(x.items()))} for f, x in null]


class InvalidSpecError(ValueError):
    """Raised for (d, ell) pairs outside the two supported families."""


# Largest algebra accepted, checked before any basis is built: ``make_cga``'s
# dense dim x dim bracket table took 3.3 s and 308 MB at 4,096 generators
# (d=1 ell=4091/2) and 0.12 s and 35 MB at 1,004, on a 2-vCPU Xeon.
MAX_DIM = 2**12


@dataclass(frozen=True)
class AlgebraSpec:
    """Parameters (d, ell) selecting one algebra from the two families."""

    d: int
    ell: Fraction

    def __post_init__(self):
        object.__setattr__(self, "ell", Fraction(self.ell))
        if self.d not in (1, 2):
            raise InvalidSpecError(f"unsupported spatial dimension d={self.d}")
        if self.ell <= 0:
            raise InvalidSpecError(f"ell must be positive, got {self.ell}")
        if self.d == 1 and self.ell.denominator != 2:
            raise InvalidSpecError(
                f"d=1 requires half-odd ell (no central extension at ell={self.ell})"
            )
        if self.d == 2 and self.ell.denominator != 1:
            raise InvalidSpecError(
                f"d=2 requires integer ell (exotic extension), got ell={self.ell}"
            )
        if self.dim > MAX_DIM:
            raise InvalidSpecError(f"d={self.d} ell={self.ell} has {self.dim} generators, "
                                   f"above the largest accepted, {MAX_DIM}")

    @property
    def two_ell(self) -> int:
        return int(2 * self.ell)

    @property
    def dim(self) -> int:
        # 2*d*ell + d(d+1)/2 + 4 for both families
        return self.d * self.two_ell + self.d * (self.d + 1) // 2 + 4

    @property
    def central_kind(self) -> str:
        return "M" if self.d == 1 else "Theta"

    def to_json_dict(self) -> dict:
        return {"d": self.d, "ell": str(self.ell)}


def parse_spec(d: int | str, ell: int | str | Fraction) -> AlgebraSpec:
    """The spec of ``d`` and ``ell``, each an ``int`` or a string, and
    ``ell`` also a ``Fraction``.  A ``bool`` or a ``float`` is an
    ``InvalidSpecError``: ``int`` and ``Fraction`` would read JSON's
    ``true`` as 1 and ``1.5`` as 3/2, where a report states its spec
    exactly."""
    if any(isinstance(x, (bool, float)) for x in (d, ell)):
        raise InvalidSpecError(f"cannot parse algebra spec d={d!r} ell={ell!r}: "
                               f"each must be an integer or a string")
    try:
        return AlgebraSpec(int(d), Fraction(ell))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        if isinstance(exc, InvalidSpecError):
            raise
        raise InvalidSpecError(f"cannot parse algebra spec d={d!r} ell={ell!r}") from exc


@dataclass(frozen=True)
class GeneratorId:
    """One basis generator; ``index`` is used only by the P/Q towers."""

    kind: str
    index: Optional[int] = None

    @property
    def name(self) -> str:
        if self.index is None:
            return self.kind
        return f"{self.kind}{self.index}"

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"GeneratorId({self.name})"


def central_pairing(spec: AlgebraSpec, m: int) -> int:
    """Coefficient of the central element in the degree-complementary
    bracket of the translation towers, as an exact integer.

    d=1: (-1)^(m+ell+1/2) (2ell-m)! m!    d=2: (-1)^m (2ell-m)! m!
    """
    n2 = spec.two_ell
    if not 0 <= m <= n2:
        raise ValueError(f"index {m} outside 0..{n2}")
    mag = math.factorial(n2 - m) * math.factorial(m)
    if spec.d == 1:
        sign = -1 if (m + (n2 + 1) // 2) % 2 else 1
    else:
        sign = -1 if m % 2 else 1
    return sign * mag


def _basis_d1(spec: AlgebraSpec) -> list[GeneratorId]:
    # M, P_0 .. P_{ell-3/2}, H, P_{ell-1/2}, D, P_{ell+1/2}, C, P_{ell+3/2} .. P_{2ell}
    half = (spec.two_ell - 1) // 2
    basis = [GeneratorId("M")]
    basis += [GeneratorId("P", n) for n in range(half)]
    basis += [GeneratorId("H"), GeneratorId("P", half), GeneratorId("D"),
              GeneratorId("P", half + 1), GeneratorId("C")]
    basis += [GeneratorId("P", n) for n in range(half + 2, spec.two_ell + 1)]
    return basis


def _basis_d2(spec: AlgebraSpec) -> list[GeneratorId]:
    # Theta, Q_0, P_0, .., Q_{l-1}, P_{l-1}, H, D, J, Q_l, P_l, C, Q_{l+1}, P_{l+1}, ..
    ell = int(spec.ell)
    basis = [GeneratorId("Theta")]
    for n in range(ell):
        basis += [GeneratorId("Q", n), GeneratorId("P", n)]
    basis += [GeneratorId("H"), GeneratorId("D"), GeneratorId("J"),
              GeneratorId("Q", ell), GeneratorId("P", ell), GeneratorId("C")]
    for n in range(ell + 1, spec.two_ell + 1):
        basis += [GeneratorId("Q", n), GeneratorId("P", n)]
    return basis


class LieAlgebra:
    """A basis with a sparse bracket table of exact coefficients, ``int``
    for these families, whose structure constants are all integers.

    ``brackets`` stores [b_i, b_j] only for i < j; antisymmetry is
    synthesized on lookup.  ``pair_table`` is the dense per-pair expansion
    used by the normal-ordering hot path: ``pair_table[j][i]`` is
    ``pair_table[i][j]`` negated term for term.
    """

    __slots__ = ("spec", "basis", "positions", "by_name", "brackets", "pair_table")

    def __init__(self, spec: AlgebraSpec, basis: Iterable[GeneratorId],
                 brackets: dict[tuple[int, int], SparseVec]):
        self.spec = spec
        self.basis = tuple(basis)
        self.positions = {g: i for i, g in enumerate(self.basis)}
        self.by_name = {g.name: g for g in self.basis}
        clean = {}
        for (i, j), vec in brackets.items():
            if i >= j:
                raise ValueError(f"bracket key ({i},{j}) must satisfy i < j")
            vec = {k: c for k, c in vec.items() if c}
            if vec:
                clean[(i, j)] = vec
        self.brackets = clean
        dim = len(self.basis)
        table = [[() for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in clean.items():
            table[i][j] = tuple(sorted(vec.items()))
            table[j][i] = tuple((k, -c) for k, c in table[i][j])
        self.pair_table = tuple(tuple(row) for row in table)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def position(self, g: GeneratorId) -> int:
        return self.positions[g]

    def generator(self, name: str) -> GeneratorId:
        try:
            return self.by_name[name]
        except KeyError:
            raise KeyError(f"no generator named {name!r} in this algebra") from None

    def central_position(self) -> int:
        return self.positions[self.by_name[self.spec.central_kind]]

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.spec == other.spec
                and self.basis == other.basis and self.brackets == other.brackets)

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"LieAlgebra(d={self.spec.d}, ell={self.spec.ell}, dim={self.dim})"


@lru_cache(maxsize=None)
def make_cga(spec: AlgebraSpec) -> LieAlgebra:
    """The centrally extended conformal Galilei algebra for ``spec``.

    One algebra is built per spec and kept for the life of the process, so
    every call returns that same object and the per-algebra caches
    (``generator_grades``, ``omega_positions``) hold one entry per spec."""
    n2 = spec.two_ell
    basis = _basis_d1(spec) if spec.d == 1 else _basis_d2(spec)
    pos = {g: i for i, g in enumerate(basis)}
    brackets: dict[tuple[int, int], SparseVec] = {}

    def put(x: GeneratorId, y: GeneratorId, combo: dict[GeneratorId, int]):
        # LieAlgebra drops zero coefficients and empty brackets
        i, j = pos[x], pos[y]
        if i < j:
            brackets[(i, j)] = {pos[g]: c for g, c in combo.items()}
        else:
            brackets[(j, i)] = {pos[g]: -c for g, c in combo.items()}

    H, D, C = GeneratorId("H"), GeneratorId("D"), GeneratorId("C")
    put(D, H, {H: 2})
    put(D, C, {C: -2})
    put(C, H, {D: 1})

    towers = ["P"] if spec.d == 1 else ["Q", "P"]
    for kind in towers:
        for n in range(n2 + 1):
            g = GeneratorId(kind, n)
            if n >= 1:
                put(H, g, {GeneratorId(kind, n - 1): -n})
            put(D, g, {g: n2 - 2 * n})
            if n < n2:
                put(C, g, {GeneratorId(kind, n + 1): n2 - n})

    if spec.d == 1:
        central = GeneratorId("M")
        for m in range(n2 + 1):
            n = n2 - m
            if m < n:
                put(GeneratorId("P", m), GeneratorId("P", n), {central: central_pairing(spec, m)})
    else:
        central = GeneratorId("Theta")
        J = GeneratorId("J")
        for n in range(n2 + 1):
            put(J, GeneratorId("Q", n), {GeneratorId("Q", n): 1})
            put(J, GeneratorId("P", n), {GeneratorId("P", n): -1})
        for m in range(n2 + 1):
            put(GeneratorId("Q", m), GeneratorId("P", n2 - m), {central: central_pairing(spec, m)})

    return LieAlgebra(spec, basis, brackets)


def bracket(alg: LieAlgebra, x: GeneratorId, y: GeneratorId) -> SparseVec:
    """Expansion of [x, y] in the basis (total on the basis)."""
    i, j = alg.position(x), alg.position(y)
    return dict(alg.pair_table[i][j])


def _ad_vec(alg: LieAlgebra, vec: SparseVec, k: int) -> SparseVec:
    """[vec, b_k] extended linearly."""
    out: SparseVec = {}
    for i, c in vec.items():
        accumulate(out, ((u, c * cu) for u, cu in alg.pair_table[i][k]))
    return out


def jacobi_check(alg: LieAlgebra) -> Optional[tuple[GeneratorId, GeneratorId, GeneratorId]]:
    """Exhaustive Jacobi identity check; None on pass, else the first
    failing triple in basis order."""
    dim = alg.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            bij = dict(alg.pair_table[i][j])
            for k in range(j + 1, dim):
                acc = _ad_vec(alg, bij, k)
                accumulate(acc, _ad_vec(alg, dict(alg.pair_table[j][k]), i).items())
                accumulate(acc, _ad_vec(alg, dict(alg.pair_table[k][i]), j).items())
                if acc:
                    return (alg.basis[i], alg.basis[j], alg.basis[k])
    return None


MAX_TRIALS = 1000  # a larger request is refused before any point is drawn


def bb_count(alg: LieAlgebra, trials: int = 5, seed: int = 0) -> int:
    """Number of generalised invariants: dim(g) minus the generic rank of
    the structure matrix C(x)_ij = sum_k c_ij^k x_k.

    The generic rank is taken as the maximum rank modulo ``PRIME`` over
    ``trials`` evaluations at pseudo-random integer points drawn from
    ``seed``, each the pivot count of ``_forward`` on the residues.  A rank
    modulo a prime is at most the rank over the rationals at the same
    point, which is at most the generic rank, so the result is an upper
    bound on the true count; the failure probability (every sampled point
    non-generic, or the prime dividing every maximal nonzero minor)
    vanishes rapidly in ``trials``.  Residues keep the entries small,
    where the exact ones carry the central pairings (2ell-m)!·m!.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    dim = alg.dim
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        x = [rng.randint(-10**4, 10**4) for _ in range(dim)]
        rows: list[dict] = [{} for _ in range(dim)]
        for (i, j), vec in alg.brackets.items():
            if val := sum(c * x[k] for k, c in vec.items()) % PRIME:
                rows[i][j] = val
                rows[j][i] = PRIME - val
        best = max(best, len(_forward(rows, dim, _mod_clearer)))
    return dim - best


def to_json_dict(alg: LieAlgebra) -> dict:
    entries = []
    for (i, j) in sorted(alg.brackets):
        vec = alg.brackets[(i, j)]
        entries.append({
            "x": alg.basis[i].name,
            "y": alg.basis[j].name,
            "value": [{"gen": alg.basis[k].name, "coeff": str(vec[k])}
                      for k in sorted(vec)],
        })
    return {
        "spec": alg.spec.to_json_dict(),
        "basis": [g.name for g in alg.basis],
        "brackets": entries,
    }
