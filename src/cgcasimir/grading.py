"""Integer grading of the algebras and grade-restricted monomial
enumeration.

Each generator carries a grade vector that is additive over products and
compatible with every bracket: each term of [x, y] has grade
grade(x) + grade(y).  Restricting a Casimir ansatz to a fixed grade cuts
the search space from thousands of monomials to a few dozen.

For d=1 the natural exponents are rationals with denominator 2*ell; they
are stored multiplied by 2*ell so that all arithmetic stays in integers
(a grading isomorphism).  Grade vectors have length 2 for d=1 and length
3 for d=2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .liealg import AlgebraSpec, LieAlgebra
from .uea import Monomial, grlex_key

GradeVector = tuple[int, ...]


@lru_cache(maxsize=None)
def generator_grades(alg: LieAlgebra) -> tuple[GradeVector, ...]:
    """Grade of each generator, indexed by basis position."""
    spec = alg.spec
    n2 = spec.two_ell
    if spec.d == 1:
        table = {
            "P": lambda n: (n2 - 2 * n, n),
            "H": lambda n: (2, -1),
            "C": lambda n: (-2, 1),
            "D": lambda n: (0, 0),
            "M": lambda n: (0, n2),
        }
    else:
        table = {
            "P": lambda n: (1, 0, -n),
            "Q": lambda n: (-1, 1, n2 - n),
            "H": lambda n: (0, 0, 1),
            "C": lambda n: (0, 0, -1),
            "D": lambda n: (0, 0, 0),
            "J": lambda n: (0, 0, 0),
            "Theta": lambda n: (0, 1, 0),
        }
    return tuple(table[g.kind](g.index) for g in alg.basis)


def zero_grade(spec: AlgebraSpec) -> GradeVector:
    return (0, 0) if spec.d == 1 else (0, 0, 0)


def grade_of(alg: LieAlgebra, mono: Monomial) -> GradeVector:
    """Sum of generator grades weighted by exponents."""
    grades = generator_grades(alg)
    acc = list(zero_grade(alg.spec))
    for i, e in enumerate(mono):
        if e:
            for c, v in enumerate(grades[i]):
                acc[c] += e * v
    return tuple(acc)


def default_target_grades(spec: AlgebraSpec) -> list[tuple[GradeVector, int]]:
    """The (grade, degree) targets at which the families' non-central
    Casimirs live: the square of the central element's grade at degree 4,
    plus (for d=2) the central grade itself at degree 2."""
    if spec.d == 1:
        return [((0, 2 * spec.two_ell), 4)]
    return [((0, 1, 0), 2), ((0, 2, 0), 4)]


@dataclass
class AnsatzBasis:
    """All PBW monomials of the given grade with degree <= max_degree,
    duplicate-free and sorted by graded-lex order."""

    grade: GradeVector
    max_degree: int
    monomials: list[Monomial] = field(default_factory=list)

    def __len__(self):
        return len(self.monomials)

    def index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.monomials)}


def enumerate_ansatz(alg: LieAlgebra, grade: GradeVector, max_degree: int) -> AnsatzBasis:
    """Exhaustive grade-restricted enumeration by depth-first search over
    exponent vectors in basis order, pruning on degree and on the grade
    range reachable with the remaining generators."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    grades = generator_grades(alg)
    ncomp = len(grade)
    if any(len(gv) != ncomp for gv in grades):
        raise ValueError("grade vector length does not match this algebra")
    dim = alg.dim

    # per-suffix component bounds of a single degree unit
    lo = [[0] * ncomp for _ in range(dim + 1)]
    hi = [[0] * ncomp for _ in range(dim + 1)]
    for i in range(dim - 1, -1, -1):
        for c in range(ncomp):
            lo[i][c] = min(grades[i][c], lo[i + 1][c]) if i < dim - 1 else grades[i][c]
            hi[i][c] = max(grades[i][c], hi[i + 1][c]) if i < dim - 1 else grades[i][c]

    found: list[Monomial] = []
    expo = [0] * dim

    def feasible(pos: int, remaining: int, need: GradeVector) -> bool:
        if pos == dim:
            return all(v == 0 for v in need)
        for c in range(ncomp):
            low = min(0, remaining * lo[pos][c])
            high = max(0, remaining * hi[pos][c])
            if not low <= need[c] <= high:
                return False
        return True

    def walk(pos: int, remaining: int, need: GradeVector):
        if pos == dim:
            if all(v == 0 for v in need):
                found.append(tuple(expo))
            return
        gv = grades[pos]
        for e in range(remaining + 1):
            nxt = tuple(need[c] - e * gv[c] for c in range(ncomp))
            if feasible(pos + 1, remaining - e, nxt):
                expo[pos] = e
                walk(pos + 1, remaining - e, nxt)
        expo[pos] = 0

    walk(0, max_degree, grade)
    found.sort(key=grlex_key)
    return AnsatzBasis(grade=grade, max_degree=max_degree, monomials=found)


def iter_exponents(dim: int, max_degree: int) -> Iterator[Monomial]:
    """All exponent tuples of length ``dim`` with total degree <=
    max_degree, no grade filter, in lexicographic order.  Enumerates the
    parameter monomials of the realisation candidate system and the
    exponents of products of lower Casimirs, and serves as the brute-force
    cross-check of the pruned ansatz enumeration."""
    def rec(pos: int, remaining: int, prefix: tuple[int, ...]):
        if pos == dim:
            yield prefix
            return
        for e in range(remaining + 1):
            yield from rec(pos + 1, remaining - e, prefix + (e,))

    yield from rec(0, max_degree, ())
