"""Assembly and exact solution of the linear systems behind the Casimir
search.

Two routes produce the space of Casimir operators at a fixed grade and
degree bound:

* ``pipeline`` first keeps only ansatz combinations whose realisation as a
  differential operator collapses into the parameter-polynomial span of
  the realised diagonal operators (candidate generation), then imposes the
  symmetry and reduced-commutator conditions on the candidate span;
* ``algebraic`` imposes those conditions directly on the full ansatz.

Omega-symmetry is imposed by construction: the condition system's columns
are omega-sums v + omega(v) (``omega_sums``), which are omega-fixed, and
its rows are the reduced commutators alone.  No elimination builds them.
On the algebraic route v runs over one monomial of each orbit of omega's
letter permutation on the ansatz (``omega_orbit_vectors``); at d=2 ell=5
that is 211 columns where the ansatz has 316.  On the pipeline v runs
over its 3-8 candidates.

The candidate system has one row per operator term of the images, and
the pipeline builds only its rows of t-degree at most 1 (the "t-jet").
The images of ``H`` = -∂_t are the only ones that lower a term's degree in
t, by at most one, so these rows are exact when each partial image keeps
its terms up to 1 plus the ``H`` letters still to go on.  Their nullspace
contains the true one.  Each of its vectors' ansatz parts is then
realised exactly, less the vector's combination of diagonal operators;
that residual is linear in the vector, and the combinations whose
residuals cancel are exactly the true nullspace.  Where every residual is
zero, they are the vectors themselves.

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
from .realization import (DiffOp, VarSet, realize_element, realize_generator, realize_monomials,
                          t_jet)
from .uea import (UEAElement, commutator, commutators, multiply, omega, omega_positions,
                  to_json_dict, word_key)


class ReducedCheckError(RuntimeError):
    """An element passing the reduced conditions failed the exhaustive
    centrality check; this contradicts the symmetry-reduction argument and
    indicates an implementation fault."""


def _bounded(res: UEAElement) -> str:
    """The first five terms of ``res`` as it prints, largest graded-lex
    first, then how many terms are left out."""
    words = sorted(res.terms, key=word_key, reverse=True)
    head = UEAElement(res.alg, {w: res.terms[w] for w in words[:5]})
    return f"{head} and {len(words) - 5} more terms" if len(words) > 5 else str(head)


# Largest number of operator terms the candidate stage may realise: the
# images of the candidate system's rows and the products its residuals
# compose.  The pipeline's time and memory follow this count, not the
# ansatz size.  At degree 4, d=1 ell=57/2 realises 4,187,886 and its whole
# solve took 19 s and 122 MB on a 2-vCPU Xeon; ell=59/2 (4,881,741) is
# refused after 17 s.  A larger stage is refused as it runs.
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
    """``vec`` minus its component in the span of the echelon ``rows``,
    with ``int`` entries where whole.

    Over the integers: ``vec`` is ``out / den`` for integer ``out``, and
    ``rows`` are integer rows as ``rref`` returns them.  Each row whose
    pivot ``out`` holds, with pivot entry ``s``, is cross-multiplied out,
    ``out = s*out - out[p]*row`` with ``den`` scaled by ``s`` (``s`` and
    ``out[p]`` first divided by their gcd); each entry is divided by
    ``den`` once at the end."""
    out = {i: c for i, c in vec.items() if c}
    den = 1
    if not all(type(c) is int for c in out.values()):
        den = math.lcm(*(c.denominator for c in out.values()))
        out = {i: c.numerator * (den // c.denominator) for i, c in out.items()}
    for row, p in zip(rows, pivots):
        a = out.get(p)
        if a:
            s = row[p]
            g = math.gcd(a, s)
            if g > 1:
                a, s = a // g, s // g
            if s != 1:
                out = {i: s * x for i, x in out.items()}
                den *= s
            accumulate(out, ((c, -a * x) for c, x in row.items()))
    if den == 1:
        return out
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
    index = basis.index()
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
    omega-fixed (``omega_sums``): omega-symmetry is imposed by the choice
    of columns, not by rows.  Every column's commutators come from one
    ``commutators`` call over the columns and that set."""
    rows: dict[tuple, SparseVec] = {}
    checks = reduced_check_generators(alg)
    for ci, residuals in enumerate(commutators(alg, columns, checks)):
        for g, res in zip(checks, residuals):
            for m2, c in res.terms.items():
                rows.setdefault((g.name, m2), {})[ci] = c
    return LinearSystem(columns=list(range(len(columns))), matrix=[rows[t] for t in sorted(rows)])


def omega_sums(alg: LieAlgebra, basis: AnsatzBasis, vecs: list[SparseVec]) -> list[SparseVec]:
    """v + omega(v) in ansatz coordinates for each of ``vecs``, or ``[]``
    when omega maps the ansatz's grade to another grade.  These are the
    condition system's columns on both routes.

    Each sum is omega-fixed, since omega is an involution.  omega maps a
    grade linearly, and the lower words of omega(m) keep the grade of its
    top word, so either every word of every image lies in the ansatz or
    none does; the first image's first word settles which.  Where none
    does, nothing nonzero in the ansatz is omega-fixed.

    The sums lose no omega-fixed element of the span of ``vecs``: such an
    element C = sum a_i v_i equals (C + omega(C)) / 2 = sum a_i (v_i +
    omega(v_i)) / 2.  On the pipeline every Casimir is a candidate, so the
    sums of the candidates keep every omega-fixed Casimir; a sum outside
    the candidate span still meets the reduced conditions and the
    exhaustive check, so nothing false is admitted."""
    index = basis.index()
    try:
        return [accumulate(dict(v), ((index[w], c) for w, c in
                                     omega(alg, vector_element(alg, basis, v)).terms.items()))
                for v in vecs]
    except KeyError:  # a word outside the ansatz
        return []


def omega_orbit_vectors(alg: LieAlgebra, basis: AnsatzBasis) -> list[SparseVec]:
    """A basis of the omega-fixed combinations of the ansatz: the
    ``omega_sums`` m + omega(m) of the first monomial m, in ansatz order, of
    each orbit of sigma, where sigma(m) is m's word with every letter mapped
    by ``omega_positions`` and sorted.

    omega(m) is sigma(m) plus words of lower degree, so omega maps the
    ansatz into itself exactly when sigma does, and sigma maps a grade
    linearly: either every word of the ansatz or none lands in it.  Where
    none does, nothing nonzero in the ansatz is omega-fixed, and the list
    is empty.  Otherwise omega is an involution of the ansatz span whose
    trace is the number of sigma-fixed monomials, so its fixed space has
    dimension (N + #sigma-fixed) / 2, the number of orbits; each m +
    omega(m) is fixed, and their top-degree parts, m + sigma(m), are
    independent."""
    index = basis.index()
    img = omega_positions(alg)
    # a monomial whose sigma(m) leaves the ansatz is kept, and omega_sums
    # then finds that omega(m) leaves it too
    return omega_sums(alg, basis, [{i: 1} for i, m in enumerate(basis.monomials)
                                   if index.get(tuple(sorted(img[p] for p in m)), i) >= i])


def _cartan_operator_basis(alg: LieAlgebra):
    """Identity plus the realised diagonal generators (D, and J for d=2).
    A Casimir acts on the realisation's lowest-weight structure through
    these, so candidate combinations are those whose realisation lies in
    their span with parameter-polynomial coefficients."""
    vs = VarSet.for_spec(alg.spec)
    ops = [DiffOp.identity(vs), realize_generator(alg.spec, alg.generator("D"))]
    if alg.spec.d == 2:
        ops.append(realize_generator(alg.spec, alg.generator("J")))
    return ops


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


def realization_candidate_system(alg: LieAlgebra, basis: AnsatzBasis, jet: Optional[int] = None,
                                 charge: Optional[_Realised] = None) -> LinearSystem:
    """Rows demand that the realised combination equals a sum of the
    diagonal operators (identity, D, and J for d=2) with
    parameter-polynomial coefficients, identically in all variables.

    Columns are the ansatz monomials followed by auxiliary columns, one
    per (diagonal operator, parameter monomial) pair, up to the longest
    word's length in parameter degree, since each generator image has
    parameter degree at most 1; candidate vectors are nullspace vectors
    projected onto the ansatz block.  With ``jet`` K, only the rows of
    t-degree at most K are built, each exactly (``realize_monomials``, and
    the diagonal operators' terms up to that degree).  Each image's
    terms are charged to ``charge``, a fresh count if none is given, so a
    ``ValueError`` once they pass ``MAX_SYSTEM_ENTRIES``."""
    charge = charge or _Realised()
    rows: dict[int, SparseVec] = {}  # packed operator key -> row
    vs = VarSet.for_spec(alg.spec)
    nv = vs.nvars
    for ci, op in realize_monomials(alg, basis.monomials, jet):
        charge(len(op.packed))
        for k, c in op.packed.items():
            rows.setdefault(k, {})[ci] = c
    pmax = max(map(len, basis.monomials), default=0)
    columns: list = list(basis.monomials)
    for bi, bop in enumerate(_cartan_operator_basis(alg)):
        bop = bop if jet is None else t_jet(bop, jet)
        for tail in iter_exponents(len(vs.parameters), pmax):
            pm = (0,) * nv + tail
            shift = vs.pack((0,) * nv, pm)
            ci = len(columns)
            columns.append(("aux", bi, pm))
            for k, c in bop.packed.items():
                # auxiliary directions are subtracted from the image
                rows.setdefault(k + shift, {})[ci] = -c
    # rows in (deriv, expo) order; the raw packed order would sort by the
    # last parameter's exponent first
    return LinearSystem(columns=columns, matrix=[rows[k] for k in sorted(rows, key=vs.unpack)])


# t-degree bound of the candidate rows.  K = 0 is exact too: the residuals
# cut its larger nullspace (nullity 11-23 against 3-8 at d=1 ell 9/2 and
# 17/2 and d=2 ell 3 and 5) to the true one, but realising the spurious
# vectors' residuals made its candidate stage 1.5-2.5x slower (0.31 s
# against 0.12 s at d=1 ell=17/2, best of three on a 2-vCPU Xeon).
JET = 1


def candidate_vectors(alg: LieAlgebra, basis: AnsatzBasis) -> list[SparseVec]:
    """Echelon basis of the candidate combinations of the ansatz: the
    nullspace of the realisation candidate system, projected onto the
    ansatz block.

    Only ``H`` lowers a t-degree, so the system's rows of t-degree at most
    ``JET`` are built, and exactly.  They are a subset of the rows, so
    their nullspace contains the true one.  Each of its vectors' ansatz
    parts is realised with ``realize_element``, which composes each suffix
    the vector's words share once, and the vector's combination of
    diagonal operators is subtracted.  The residual is linear in the
    vector, so the combinations of the vectors whose residuals cancel,
    ``nullspace_basis`` of the residuals keyed by operator term, span the
    true nullspace.  Where every residual is zero, those combinations are
    the unit vectors.  Either way ``rref`` of the projection depends only on
    the space.  Every image term the stage realises, the residuals'
    products included, counts towards ``MAX_SYSTEM_ENTRIES``."""
    n = len(basis.monomials)
    charge = _Realised()
    sys = realization_candidate_system(alg, basis, JET, charge)
    null = nullspace(sys)
    parts = [{i: c for i, c in v.items() if i < n} for v in null]
    vs = VarSet.for_spec(alg.spec)
    diagonal = _cartan_operator_basis(alg)
    rows: dict[int, SparseVec] = {}  # packed operator key -> {vector: residual}
    for j, (v, part) in enumerate(zip(null, parts)):
        residual = dict(realize_element(alg, vector_element(alg, basis, part), charge).packed)
        for ci, c in v.items():
            if ci >= n:
                _, bi, pm = sys.columns[ci]
                shift = vs.pack((0,) * vs.nvars, pm)
                accumulate(residual, ((k + shift, -c * x) for k, x in diagonal[bi].packed.items()))
        for k, c in residual.items():
            rows.setdefault(k, {})[j] = c
    return rref(combine(nullspace_basis(list(rows.values()), len(null)), parts), n)[0]


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
    them."""

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
    factors, multiplied in the order ``known_lower_casimirs`` lists them."""
    known = known_lower_casimirs(alg, max_degree)
    out: list[UEAElement] = []
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

    ``method`` only chooses the columns of the condition system: the
    ``omega_sums`` of the realisation candidates (``pipeline``) or of one
    ansatz monomial per omega-orbit (``algebraic``).  The Casimir space is
    returned in reduced echelon form over the ansatz (identical for both
    methods when they agree); canonical representatives are the space's
    echelon form modulo products of lower Casimirs, read off one echelon
    form of both, primitive and with positive leading coefficient.
    """
    if method not in ("pipeline", "algebraic"):
        raise ValueError(f"unknown method {method!r}")
    basis = enumerate_ansatz(alg, grade, max_degree)
    ncols = len(basis.monomials)

    if method == "pipeline":
        cand_vecs = candidate_vectors(alg, basis)
        col_vecs = omega_sums(alg, basis, cand_vecs)
    else:
        cand_vecs = None
        col_vecs = omega_orbit_vectors(alg, basis)
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
