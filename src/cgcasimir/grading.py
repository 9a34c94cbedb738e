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

The ansatz of one grade is enumerated by a join of half-words on their
grade (``enumerate_ansatz``), with no search and no recursion.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Iterator

from .liealg import AlgebraSpec, LieAlgebra
from .uea import Monomial, word_key

GradeVector = tuple[int, ...]

# largest number of words the half-word tables of one ansatz may hold
MAX_HALF_WORDS = 10**5
# largest number of monomials one ansatz may hold: the algebraic solve's
# memory grows about as its 1.4th power, and 10**5 needs about 1.4 GB
MAX_ANSATZ = 10**5


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
    """Sum of the grades of a sorted word's letters."""
    grades = generator_grades(alg)
    return tuple(map(sum, zip(zero_grade(alg.spec), *(grades[p] for p in mono))))


def default_target_grades(spec: AlgebraSpec) -> list[tuple[GradeVector, int]]:
    """The (grade, degree) targets at which the families' non-central
    Casimirs live: the square of the central element's grade at degree 4,
    plus (for d=2) the central grade itself at degree 2."""
    if spec.d == 1:
        return [((0, 2 * spec.two_ell), 4)]
    return [((0, 1, 0), 2), ((0, 2, 0), 4)]


def default_grade(spec: AlgebraSpec, degree: int) -> GradeVector:
    """The default target grade at this degree; a ``ValueError`` if the
    family has none there."""
    for grade, d in default_target_grades(spec):
        if d == degree:
            return grade
    raise ValueError(f"no default grade at degree {degree} for d={spec.d}; "
                     f"give the grade explicitly")


@dataclass
class AnsatzBasis:
    """All PBW monomials of one grade up to a degree bound, as sorted
    words, duplicate-free and in the graded-lex order of their exponent
    tuples (``uea.word_key``)."""

    monomials: list[Monomial]

    def __len__(self):
        return len(self.monomials)

    @cached_property
    def index(self) -> dict[Monomial, int]:
        """Position of each monomial, built on first use and kept."""
        return {m: i for i, m in enumerate(self.monomials)}


def enumerate_ansatz(alg: LieAlgebra, grade: GradeVector, max_degree: int) -> AnsatzBasis:
    """Exhaustive grade-restricted enumeration by a join on grade.  Each
    monomial is a sorted word of basis positions, and a word of length k
    splits uniquely into a head of its first k // 2 letters and a tail of
    the rest, with head[-1] <= tail[0].  The sorted words of each length up
    to ceil(max_degree / 2) are listed once, keyed by grade, in
    lexicographic order, so each head is joined by one bisect with the
    tails whose grade is the target minus its own.  A request whose word
    tables would hold more than ``MAX_HALF_WORDS`` words is refused before
    any table is built, and one whose join would hold more than
    ``MAX_ANSATZ`` monomials before any monomial is built."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    grades = generator_grades(alg)
    if any(len(gv) != len(grade) for gv in grades):
        raise ValueError(f"grade vector length must be {len(grades[0])} for this algebra, "
                         f"got {len(grade)}")
    dim = alg.dim
    half = (max_degree + 1) // 2
    size = math.comb(dim + half, half)
    if size > MAX_HALF_WORDS:
        raise ValueError(f"a degree-{max_degree} ansatz over {dim} generators needs {size} "
                         f"half-words, above the largest accepted, {MAX_HALF_WORDS}")
    tables: list[dict[GradeVector, list[Monomial]]] = []
    for n in range(half + 1):
        tables.append({})
        for word in combinations_with_replacement(range(dim), n):
            tables[n].setdefault(grade_of(alg, word), []).append(word)
    joins: list[tuple[Monomial, list[Monomial], int]] = []
    for k in range(max_degree + 1):
        tails = tables[k - k // 2]
        for head_grade, heads in tables[k // 2].items():
            group = tails.get(tuple(t - h for t, h in zip(grade, head_grade)), [])
            for head in heads:
                start = bisect_left(group, head[-1], key=itemgetter(0)) if head else 0
                joins.append((head, group, start))
    count = sum(len(group) - start for _, group, start in joins)
    if count > MAX_ANSATZ:
        raise ValueError(f"a degree-{max_degree} ansatz at grade {tuple(grade)} over {dim} "
                         f"generators has {count} monomials, above the largest accepted, "
                         f"{MAX_ANSATZ}")
    found = [head + tail for head, group, start in joins for tail in group[start:]]
    found.sort(key=word_key)
    return AnsatzBasis(found)


def iter_exponents(dim: int, max_degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of length ``dim`` with total degree <=
    max_degree, no grade filter, in lexicographic order.  Enumerates the
    parameter monomials of the realisation candidate system, and is the
    brute-force oracle that the tests hold ``enumerate_ansatz`` to."""
    def rec(pos: int, remaining: int, prefix: tuple[int, ...]):
        if pos == dim:
            yield prefix
            return
        for e in range(remaining + 1):
            yield from rec(pos + 1, remaining - e, prefix + (e,))

    yield from rec(0, max_degree, ())
