"""Assembly and exact solution of the linear systems behind the Casimir
search.

Two routes produce the space of Casimir operators at a fixed grade and
degree bound:

* ``pipeline`` first keeps only ansatz combinations whose realisation as a
  differential operator collapses into the parameter-polynomial span of
  the realised diagonal operators (candidate generation), then imposes the
  symmetry and reduced-commutator conditions on the candidate span;
* ``algebraic`` imposes those conditions directly on the full ansatz.

Omega-symmetry is imposed by construction: both routes start from one
column set, m + omega(m) for one monomial m of each orbit of omega's
letter permutation on the ansatz (``omega_orbit_vectors``), a basis of the
omega-fixed combinations; at d=2 ell=5 that is 211 columns where the
ansatz has 316.  No elimination builds them, and where omega moves the
grade there are none.  The pipeline narrows them to its 3-8 candidates,
which are then omega-fixed too; the condition system's rows are the
reduced commutators alone.

The candidate system's columns are those orbit vectors, then one
auxiliary ``(operator, shift)`` column per diagonal operator and parameter
monomial of the ansatz's grade.  rho is graded and the diagonal operators
have grade 0, so with every grade's auxiliary columns the system would be
block-diagonal by grade; the orbit vectors lie in one block, and the other
blocks' columns are independent, so leaving them out changes neither the
candidates nor the nullity.  The system has one row per operator term of
the images, and the pipeline builds only its rows of t-degree at most 1
(the "t-jet").
The images of ``H`` = -∂_t are the only ones that lower a term's degree in
t, by at most one, so these rows are exact when each partial image keeps
its terms up to 1 plus the ``H`` letters still to go on.  Their nullspace
contains the true one.  Each of its vectors gets a residual: the image
of its orbit-vector part less its entries times the operators of their
auxiliary ``(operator, shift)`` columns.  That residual is linear in the
vector, and the combinations whose residuals cancel are exactly the true
nullspace.  A part that commutes with ``H`` has an image free of t,
which the jet rows already fix, so its residual is read off the
auxiliary sum and nothing is composed; this covers every Casimir.  Only
the other parts, of 1 to 23 words on the quartic ladder, are realised.
Where every residual is zero, the true nullspace is the jet's.

Both paths finish with a full verification against every generator.  The
reduced conditions (omega-symmetry plus commutators with a small generator
subset) provably imply full centrality for these families; if a reduced
solution ever failed the full check that would falsify the reduction, so
it aborts loudly rather than reporting.  The condition builder and that
check each take every commutator they need from one ``uea.commutators``
call, which reads each element's words once for the whole generator set;
``verify_casimir`` instead tries one generator at a time and stops at the
first that fails, which is where an invalid input usually fails.

Every elimination here is ``liealg``'s: the nullspace of each system is
``liealg.nullspace_basis``, which back-solves one vector per free column
from the forward pass, and the echelon basis of a span is
``liealg.echelon``; this module only builds the rows.  Every vector (a
nullspace basis vector, an echelon row, a report's candidate and Casimir
vectors) is a ``{column: coeff}`` map with no zero entries, in the one
format ``liealg`` returns: a primitive integer row, positive at its pivot
or free column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations_with_replacement
from typing import Iterable, Optional

from .grading import (AnsatzBasis, GradeVector, default_target_grades, enumerate_ansatz, grade_of,
                      iter_exponents)
from .liealg import (AlgebraSpec, GeneratorId, LieAlgebra, SparseVec, accumulate, echelon,
                     int_if_whole, integerize, nullspace_basis)
from .realization import (PARAMETER_GENERATORS, DiffOp, VarSet, realize_element, realize_generator,
                          realize_monomials, t_jet)
from .uea import (UEAElement, commutator, commutators, multiply, omega, omega_positions,
                  to_json_dict, word_key)


class ReducedCheckError(RuntimeError):
    """A built-in self-check failed, such as the exhaustive centrality
    check of an element passing the reduced conditions, or the projection
    of a printed closed form onto the solved space; this indicates an
    implementation fault, not bad input."""


def _bounded(res: UEAElement) -> str:
    """The first five terms of ``res`` as it prints, largest graded-lex
    first, then how many terms are left out."""
    words = sorted(res.terms, key=word_key, reverse=True)
    head = UEAElement(res.alg, {w: res.terms[w] for w in words[:5]})
    return f"{head} and {len(words) - 5} more terms" if len(words) > 5 else str(head)


# Largest number of operator terms the candidate stage may realise: the
# images of the candidate system's jet rows and the products its composed
# residuals make.  At degree 4 the jet rows are most of them: d=1
# ell=141/2 realises 466,062 and d=2 ell=20 640,822, and their whole
# solves took 13 s and 642 MB and 4.7 s and 66 MB on a 2-vCPU Xeon.
# Higher degrees reach it: d=2 ell=3 at degree 8 and grade (0,2,0) is
# refused after 18 s and 336 MB.  A larger stage is refused as it runs.
MAX_SYSTEM_ENTRIES = 2**22


@dataclass
class LinearSystem:
    """Sparse exact system: one column per unknown and one ``matrix`` row
    per constraint, each row a ``{column: coeff}`` map of exact entries."""

    columns: list
    matrix: list[SparseVec]


def nullspace(sys: LinearSystem) -> list[SparseVec]:
    """Nullspace basis over the columns, the one a reduced echelon form
    reads off, each vector scaled to primitive integers with a positive
    entry at its free column: ``liealg.nullspace_basis`` of the matrix,
    which back-solves it from the forward pass."""
    return nullspace_basis(sys.matrix, len(sys.columns))


# -- span utilities over sparse vectors (SparseVec, no zero entries) ---

def rref(vectors: Iterable[SparseVec], ncols: int) -> tuple[list[SparseVec], list[int]]:
    """Reduced row echelon form of a list of vectors; returns (rows,
    pivot columns), rows sorted by pivot, each a primitive integer row
    with a positive pivot entry."""
    return echelon(vectors, ncols)


def reduce_vector(rows: list[SparseVec], pivots: list[int], vec: SparseVec) -> SparseVec:
    """``vec`` minus its component in the span of ``rows``, with ``int``
    entries where whole and zeros dropped.

    ``rows`` and ``pivots`` must be as ``rref`` returns them: integer rows
    in reduced echelon form, so no row has an entry at another row's
    pivot.  The multiple of the row with pivot ``p`` is then ``vec[p] /
    row[p]``, read off ``vec`` itself.  ``vec`` and the multiples are put
    over one common denominator ``den``, each row's integer multiple is
    subtracted once, and each entry is divided by ``den`` at the end."""
    mults = [(row, Fraction(vec[p], row[p])) for row, p in zip(rows, pivots) if vec.get(p)]
    den = math.lcm(*(c.denominator for c in vec.values()), *(f.denominator for _, f in mults))
    out = {i: c.numerator * (den // c.denominator) for i, c in vec.items() if c}
    for row, f in mults:
        k = f.numerator * (den // f.denominator)
        accumulate(out, ((c, -k * x) for c, x in row.items()))
    return {i: int_if_whole(Fraction(x, den)) for i, x in out.items()}


def span_contains(rows: list[SparseVec], pivots: list[int], vec: SparseVec) -> bool:
    return not reduce_vector(rows, pivots, vec)


def combine(combos: Iterable[SparseVec], vecs: list[SparseVec]) -> list[SparseVec]:
    """Each combination ``{j: k}`` of ``vecs`` as the vector sum of ``k *
    vecs[j]``."""
    return [accumulate({}, ((i, k * c) for j, k in combo.items() for i, c in vecs[j].items()))
            for combo in combos]


# -- elements <-> vectors ----------------------------------------------

def element_vector(basis: AnsatzBasis, elem: UEAElement) -> SparseVec:
    index = basis.index
    try:
        return {index[mono]: c for mono, c in elem.terms.items()}
    except KeyError:
        raise ValueError(
            f"element has a monomial outside the ansatz (grade/degree mismatch)"
        ) from None


def vector_element(alg: LieAlgebra, basis: AnsatzBasis, vec: SparseVec) -> UEAElement:
    return UEAElement(alg, {basis.monomials[i]: c for i, c in vec.items()})


def primitive(elem: UEAElement) -> UEAElement:
    """Integer coefficients with gcd 1 and a positive coefficient on the
    graded-lex leading monomial."""
    if elem.is_zero():
        return elem
    out = UEAElement(elem.alg, integerize(elem.terms))
    if out.terms[out.leading_monomial()] < 0:
        out = -out
    return out


def proportional(a: UEAElement, b: UEAElement) -> bool:
    """True when a = s*b for one nonzero rational s."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return primitive(a) == primitive(b)


# -- condition systems --------------------------------------------------

def reduced_check_generators(alg: LieAlgebra) -> list[GeneratorId]:
    """Generator subset whose vanishing commutators, together with
    omega-symmetry, force commutation with the whole algebra."""
    n2 = alg.spec.two_ell
    if alg.spec.d == 1:
        return [alg.generator("H"), alg.generator(f"P{n2}")]
    return [alg.generator("H"), alg.generator("J"),
            alg.generator(f"P{n2}"), alg.generator(f"Q{n2}")]


def casimir_conditions_system(alg: LieAlgebra, columns: list[UEAElement]) -> LinearSystem:
    """Rows: [K, g] = 0 for the reduced generator set, where K is a
    combination of the column elements, with one row per (generator,
    monomial) pair appearing in a residual.  The columns must be
    omega-fixed (``omega_orbit_vectors``, or combinations of them):
    omega-symmetry is imposed by the choice of columns, not by rows.  Every
    column's commutators come from one ``commutators`` call over the
    columns and that set."""
    rows: dict[tuple, SparseVec] = {}
    checks = reduced_check_generators(alg)
    for ci, residuals in enumerate(commutators(alg, columns, checks)):
        for g, res in zip(checks, residuals):
            for m2, c in res.terms.items():
                rows.setdefault((g.name, m2), {})[ci] = c
    return LinearSystem(columns=list(range(len(columns))), matrix=[rows[t] for t in sorted(rows)])


def omega_orbit_vectors(alg: LieAlgebra, basis: AnsatzBasis) -> list[SparseVec]:
    """A basis of the omega-fixed combinations of the ansatz: m + omega(m)
    in ansatz coordinates for the first monomial m, in ansatz order, of each
    orbit of sigma, where sigma(m) is m's word with every letter mapped by
    ``omega_positions`` and sorted.  These are the condition system's
    columns on both routes, and the candidate system's on the pipeline.

    omega(m) is sigma(m) plus words of lower degree, so omega maps the
    ansatz into itself exactly when sigma does, and sigma maps a grade
    linearly: either every word of the ansatz or none lands in it.  Where
    none does, nothing nonzero in the ansatz is omega-fixed, and the list
    is empty.  Otherwise omega is an involution of the ansatz span whose
    trace is the number of sigma-fixed monomials, so its fixed space has
    dimension (N + #sigma-fixed) / 2, the number of orbits; each m +
    omega(m) is fixed, and their top-degree parts, m + sigma(m), are
    independent."""
    index = basis.index
    img = omega_positions(alg)
    # a monomial whose sigma(m) leaves the ansatz is kept, and its omega(m)
    # then leaves it too
    try:
        return [accumulate({i: 1}, ((index[w], c) for w, c in
                                    omega(alg, UEAElement(alg, {m: 1})).terms.items()))
                for i, m in enumerate(basis.monomials)
                if index.get(tuple(sorted(img[p] for p in m)), i) >= i]
    except KeyError:  # a word outside the ansatz
        return []


class _Realised:
    """A count of the image terms the candidate stage realises, called
    with each operator's term count: a ``ValueError`` once the count passes
    ``MAX_SYSTEM_ENTRIES``."""

    def __init__(self):
        self.terms = 0

    def __call__(self, terms: int):
        self.terms += terms
        if self.terms > MAX_SYSTEM_ENTRIES:
            raise ValueError(f"the candidate stage would realise more than {MAX_SYSTEM_ENTRIES} "
                             f"image terms, above the largest accepted; try --method algebraic")


def realization_candidate_system(alg: LieAlgebra, basis: AnsatzBasis, vecs: list[SparseVec],
                                 jet: Optional[int] = None,
                                 charge: Optional[_Realised] = None) -> LinearSystem:
    """Rows demand that the realised combination equals a sum of the
    diagonal operators (identity, D, and J for d=2) with
    parameter-polynomial coefficients, identically in all variables: a
    Casimir acts on the realisation's lowest-weight structure through them.

    Columns are ``vecs``, combinations over the ansatz (on the pipeline its
    ``omega_orbit_vectors``), then one auxiliary ``(operator, shift)``
    column per diagonal operator and parameter monomial of the ansatz's
    grade: the full operator, built once here, and the monomial as a packed
    key offset.  Each ansatz monomial is realised once, and a column's
    image is its coefficients times those images.  A parameter has the
    grade of its generator (``PARAMETER_GENERATORS``), and the monomials
    run up to the longest word's length in parameter degree, since each
    generator image has parameter degree at most 1; an empty ansatz gets no
    auxiliary column.  Candidate vectors are nullspace vectors projected
    onto the ``vecs`` block.  Leaving out the other grades' columns changes
    neither those projections nor the nullity:

    * rho is graded and the diagonal operators have grade 0, so the column
      ``(op, mu)`` has the grade of ``mu``, and the system with every
      auxiliary column is block-diagonal by grade;
    * every column of ``vecs`` lies in one block, and a nullspace vector's
      part in a block is itself a nullspace vector, so the projections onto
      ``vecs`` are those of that block's nullspace, built here;
    * the other blocks' columns are independent on the jet rows: rho(D) mu,
      and rho(J) mu at d=2, alone reach the rows x0 ∂_x0 mu and y0 ∂_y0 mu,
      and after them the identity's mu alone reaches the row mu; so they
      add nothing to the nullity.

    With ``jet`` K, only the rows of t-degree at most K are built, each
    exactly (``realize_monomials``, and ``t_jet`` of each operator).  Each
    image's terms are charged to ``charge``, a fresh count if none is
    given, so a ``ValueError`` once they pass ``MAX_SYSTEM_ENTRIES``."""
    charge = charge or _Realised()
    uses: list[list[tuple]] = [[] for _ in basis.monomials]  # monomial -> [(column, coeff)]
    for ci, v in enumerate(vecs):
        for i, a in v.items():
            uses[i].append((ci, a))
    rows: dict[int, dict] = {}  # packed operator key -> row
    for i, op in realize_monomials(alg, basis.monomials, jet):
        charge(len(op.packed))
        for k, x in op.packed.items():
            row = rows.setdefault(k, {})
            for ci, a in uses[i]:
                row[ci] = row.get(ci, 0) + a * x
    vs = VarSet.for_spec(alg.spec)
    diagonal = [DiffOp.identity(vs)] + [realize_generator(alg.spec, alg.generator(x))
                                        for x in ("D", "J")[:alg.spec.d]]
    pmax = max(map(len, basis.monomials), default=0)
    letters = [alg.position(alg.generator(PARAMETER_GENERATORS[p])) for p in vs.parameters]
    grade = grade_of(alg, basis.monomials[0]) if basis.monomials else None
    tails = [tail for tail in iter_exponents(len(letters), pmax)
             if grade_of(alg, [p for p, e in zip(letters, tail) for _ in range(e)]) == grade]
    columns: list = list(vecs)
    for op in diagonal:
        cut = op if jet is None else t_jet(op, jet)
        for tail in tails:
            shift = vs.pack((0,) * vs.nvars, (0,) * vs.nvars + tail)
            ci = len(columns)
            columns.append((op, shift))
            for k, c in cut.packed.items():
                # auxiliary directions are subtracted from the image
                rows.setdefault(k + shift, {})[ci] = -c
    # rows in (deriv, expo) order: in arrival order, the tests' smallest-tag
    # elimination of the full system at d=1 ell=11/2 ran past 2.4 GB.  The
    # images of one column's words can cancel, so zeros and empty rows go
    matrix = ({ci: c for ci, c in rows[k].items() if c} for k in sorted(rows, key=vs.unpack))
    return LinearSystem(columns=columns, matrix=[row for row in matrix if row])


# t-degree bound of the candidate rows.  K = 0 is exact too: the residuals
# cut its larger nullspace (nullity 6 against 3 at d=1 ell 9/2 and 17/2,
# 13 against 8 at d=2 ell 2, 3 and 5) to the true one, but most spurious
# vectors do not commute with H, and realising their residuals made the
# candidate stage 3-5x slower (0.081 s against 0.016 s at d=1 ell=17/2,
# 0.10 s against 0.038 s at d=2 ell=5, best of three on a 2-vCPU Xeon).
JET = 1


def candidate_vectors(alg: LieAlgebra, basis: AnsatzBasis, vecs: list[SparseVec]
                      ) -> list[SparseVec]:
    """Echelon basis over the ansatz of the candidate combinations of
    ``vecs``: the nullspace of the realisation candidate system, projected
    onto the ``vecs`` block and written in ansatz coordinates.  Where
    ``vecs`` is empty nothing is realised.

    Only ``H`` lowers a t-degree, so the system's rows of t-degree at most
    ``JET`` are built, and exactly.  They are a subset of the rows, so
    their nullspace contains the true one.  Each of its vectors then gets
    its residual (``_residual``): the image of its ``vecs`` part K less its
    auxiliary sum, the sum of each auxiliary column's full operator, moved
    by its shift and scaled by the vector's entry there.  The residual is
    linear in the vector, so the combinations of the vectors whose
    residuals cancel, ``nullspace_basis`` of the residuals keyed by
    operator term, span the true nullspace.  Where every residual is zero,
    those combinations are the unit vectors.  Either way ``rref`` of the
    projection depends only on the space.

    Where [K, H] = 0, the image of K is the t-jet of the auxiliary sum,
    with nothing composed; otherwise ``realize_element`` composes it.
    Proof, for any ``JET`` >= 0: rho is a homomorphism
    (``realization.verify_realization``) and rho(H) = -∂_t, so [H, K] = 0
    gives [∂_t, rho(K)] = 0, and the coefficients of rho(K) have no t.
    Every term of rho(K) then has t-degree 0 <= ``JET`` and lies in the
    jet rows, on which rho(K) equals the auxiliary sum; so rho(K) is the
    auxiliary sum's terms of t-degree at most ``JET``.  The identity,
    rho(D) and rho(J) have t-degree at most 1, so at ``JET`` = 1 such a
    residual is zero.  Every Casimir commutes with H, and so do 2 of the 3
    jet vectors at each quartic d=1 ladder point and 6 of the 8 at d=2;
    the others hold 1 to 23 words.  Every image term the stage realises,
    the jet rows and the composed residuals' products, counts towards
    ``MAX_SYSTEM_ENTRIES``."""
    if not vecs:
        return []
    n = len(vecs)
    charge = _Realised()
    sys = realization_candidate_system(alg, basis, vecs, JET, charge)
    null = nullspace(sys)
    parts = combine(({ci: c for ci, c in v.items() if ci < n} for v in null), vecs)
    rows: dict[int, SparseVec] = {}  # packed operator key -> {vector: residual}
    for j, (v, part) in enumerate(zip(null, parts)):
        K = vector_element(alg, basis, part)
        for k, c in _residual(alg, K, sys.columns, v, charge).packed.items():
            rows.setdefault(k, {})[j] = c
    return rref(combine(nullspace_basis(list(rows.values()), len(null)), parts),
                len(basis.monomials))[0]


def _residual(alg: LieAlgebra, K: UEAElement, columns: list, vec: SparseVec,
              charge: _Realised) -> DiffOp:
    """The image of K, ``vec``'s part over the ansatz, less ``vec``'s
    auxiliary sum, where ``columns`` are the candidate system's: the t-jet
    of that sum where [K, H] = 0, by ``candidate_vectors``' proof, and
    otherwise K's image by ``realize_element``, its products charged to
    ``charge``."""
    aux = DiffOp(VarSet.for_spec(alg.spec))
    for ci, c in vec.items():
        if isinstance(columns[ci], tuple):  # an (operator, shift) column
            op, shift = columns[ci]
            accumulate(aux.packed, ((k + shift, c * x) for k, x in op.packed.items()))
    if commutator(alg, K, alg.generator("H")).is_zero():
        image = t_jet(aux, JET)
    else:
        image = realize_element(alg, K, charge)
    return image - aux


def verify_casimir(alg: LieAlgebra, K: UEAElement
                   ) -> Optional[tuple[GeneratorId, UEAElement]]:
    """Exhaustive centrality check; None on pass, else the first failing
    generator in basis order with its residual.  One ``commutator`` per
    generator, stopping at the first that fails, since an invalid element
    usually fails against one of the first few generators."""
    for g in alg.basis:
        res = commutator(alg, K, g)
        if not res.is_zero():
            return (g, res)
    return None


# -- reports -------------------------------------------------------------

@dataclass
class CasimirReport:
    """A solved Casimir subspace at one grade/degree target.  The vector
    fields are rows over the ansatz columns in reduced echelon form, each a
    primitive integer row with a positive pivot entry, as ``rref`` returns
    them.  ``candidate_vectors`` are the pipeline's omega-fixed candidates
    (``candidate_vectors``), and None on the algebraic route."""

    spec: AlgebraSpec
    grade: GradeVector
    max_degree: int
    ansatz: AnsatzBasis
    casimir_basis: list[UEAElement]
    canonical: list[UEAElement]
    lower_products: list[UEAElement]
    provenance: str
    casimir_vectors: list[SparseVec] = field(default_factory=list, repr=False)
    candidate_vectors: Optional[list[SparseVec]] = field(default=None, repr=False)

    @property
    def candidate_dim(self) -> Optional[int]:
        if self.candidate_vectors is None:
            return None
        return len(self.candidate_vectors)

    @property
    def casimir_dim(self) -> int:
        return len(self.casimir_basis)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "grade": list(self.grade),
            "max_degree": self.max_degree,
            "canonical": [to_json_dict(e) for e in self.canonical],
            "candidate_dim": self.candidate_dim,
            "casimir_dim": self.casimir_dim,
            # solve_casimirs raises instead of returning an unverified report
            "verified": True,
            "provenance": self.provenance,
        }


def known_lower_casimirs(alg: LieAlgebra, max_degree: int
                         ) -> list[tuple[UEAElement, GradeVector, int]]:
    """The central generator plus canonical Casimirs solved at strictly
    smaller default targets, as (element, grade, degree) triples.  They are
    solved on the algebraic route: both routes give the same canonical
    elements, and it is the faster one."""
    central = alg.basis[alg.central_position()]
    known = [(UEAElement.generator(alg, central), grade_of(alg, (alg.central_position(),)), 1)]
    for g0, d0 in default_target_grades(alg.spec):
        if d0 < max_degree:
            rep = solve_casimirs(alg, g0, d0, method="algebraic")
            for e in rep.canonical:
                known.append((e, g0, d0))
    return known


def lower_casimir_products(alg: LieAlgebra, grade: GradeVector, max_degree: int
                           ) -> list[UEAElement]:
    """PBW expansions of all products of lower Casimirs with the target
    grade and admissible degree (the subspace quotiented away when
    presenting canonical representatives).  Each product is a multiset of
    factors, multiplied in the order ``known_lower_casimirs`` lists them;
    at the zero grade they include the empty product, 1."""
    known = known_lower_casimirs(alg, max_degree)
    out = [] if any(grade) else [UEAElement.one(alg)]
    # every factor has degree >= 1, so a product has at most max_degree of them
    for k in range(1, max_degree + 1):
        for factors in combinations_with_replacement(known, k):
            elems, grades, degrees = zip(*factors)
            if sum(degrees) <= max_degree and tuple(map(sum, zip(*grades))) == tuple(grade):
                out.append(reduce(partial(multiply, alg), elems))
    return out


def solve_casimirs(alg: LieAlgebra, grade: GradeVector, max_degree: int,
                   method: str = "pipeline") -> CasimirReport:
    """Run the search at one (grade, degree) target.

    Both methods take the condition system's columns from
    ``omega_orbit_vectors``, and ``method`` only chooses whether the
    realisation filter (``candidate_vectors``) first narrows them to the
    candidates (``pipeline``) or not (``algebraic``).  The Casimir space is
    returned in reduced echelon form over the ansatz (identical for both
    methods when they agree); canonical representatives are the space's
    echelon form modulo products of lower Casimirs, read off one echelon
    form of both, primitive and with positive leading coefficient.
    """
    if method not in ("pipeline", "algebraic"):
        raise ValueError(f"unknown method {method!r}")
    basis = enumerate_ansatz(alg, grade, max_degree)
    ncols = len(basis.monomials)

    col_vecs = omega_orbit_vectors(alg, basis)
    cand_vecs = None
    if method == "pipeline":
        col_vecs = cand_vecs = candidate_vectors(alg, basis, col_vecs)
    columns = [vector_element(alg, basis, v) for v in col_vecs]
    # nullspace combinations of the columns, back in ansatz coordinates
    raw = combine(nullspace(casimir_conditions_system(alg, columns)), col_vecs)
    cas_vecs = rref(raw, ncols)[0]
    cas_elems = [primitive(vector_element(alg, basis, v)) for v in cas_vecs]
    for residuals in commutators(alg, cas_elems, alg.basis):
        for g, res in zip(alg.basis, residuals):
            if not res.is_zero():
                raise ReducedCheckError(
                    f"reduced conditions accepted a non-Casimir: residual against "
                    f"{g.name} is {_bounded(res)}"
                )

    # the lower products L lie in the solved space V exactly when they add
    # no rank to it; the rows of the echelon form of L + V whose pivots L
    # lacks are then zero at L's pivots, so they are the echelon form of V
    # modulo L
    lower = lower_casimir_products(alg, grade, max_degree)
    lower_vecs = [element_vector(basis, e) for e in lower]
    lpivots = set(rref(lower_vecs, ncols)[1])
    rows, pivots = rref(lower_vecs + cas_vecs, ncols)
    if len(rows) > len(cas_vecs):
        raise ReducedCheckError("a product of lower Casimirs escaped the solved space")
    canonical = [primitive(vector_element(alg, basis, v))
                 for v, p in zip(rows, pivots) if p not in lpivots]

    return CasimirReport(
        spec=alg.spec,
        grade=tuple(grade),
        max_degree=max_degree,
        ansatz=basis,
        casimir_basis=cas_elems,
        canonical=canonical,
        lower_products=[primitive(e) for e in lower],
        provenance=method,
        casimir_vectors=cas_vecs,
        candidate_vectors=cand_vecs,
    )
