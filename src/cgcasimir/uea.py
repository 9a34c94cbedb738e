"""Exact arithmetic in the universal enveloping algebra.

Elements are sparse exact combinations of PBW monomials, with ``int``
coefficients where exact and ``Fraction`` where a value needs one.  A
monomial is a sorted word of basis positions, (0, 0, 3, 7) for b_0^2 b_3
b_7; exponent tuples appear only in JSON and text.  Arbitrary products
are straightened into this basis one letter at a time: an out-of-order
letter j moves to its sorted place in one step, and each letter x it
passes leaves their bracket, [x, j] or [j, x] as the two stood (from
x y = y x + [x, y]), in x's place, one letter shorter.  ``_normal_form``
rewrites the longest words first, and the words of one length in rounds:
each round places the first out-of-order letter of every word and merges
the results, and all bracket terms merge at the next shorter length,
which starts only once every longer word is sorted.  So equal words from
different terms merge (or cancel) before they are rewritten, and the work
stays polynomial where rewriting each word depth first is exponential:
unmerged, D^n P0 expands into 2^n words, which merge into n + 1.  Each
round lengthens every word's sorted prefix and bracket terms are shorter,
so the rewriting terminates.  Every product, commutator and omega image
is one combination of words put through ``_normal_form``.  The ad-action
is one kernel, ``commutators``: one pass over each element's words serves
a whole generator set, each letter visiting only the generators it has a
nonzero bracket with.  It places the substituted letters directly, since
each sits in an otherwise sorted word, and straightens only their bracket
terms; ``commutator`` is its one-generator case.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .liealg import GeneratorId, LieAlgebra, accumulate, int_if_whole

Monomial = tuple[int, ...]  # sorted word of basis positions

NEG_INF = float("-inf")

# Largest total degree of a loaded term, and largest number of letters the
# words of one input's elements may hold together: every word is spelled
# out one letter at a time, so a larger request is refused before any is.
MAX_DEGREE = 2**16
MAX_LETTERS = 2**22


def grlex_key(expo: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(expo), expo)


def lex_key(word: Monomial) -> tuple[int, ...]:
    """Plain tuple order of the exponent tuples, read off sorted words."""
    return tuple(-p for p in word)


def word_key(word: Monomial) -> tuple[int, tuple[int, ...]]:
    """``grlex_key`` of the exponent tuples, read off sorted words."""
    return (len(word), lex_key(word))


def monomial_word(mono: Sequence[int]) -> Monomial:
    """The sorted word of an exponent tuple."""
    word = []
    for i, e in enumerate(mono):
        word.extend([i] * e)
    return tuple(word)


def word_monomial(dim: int, word: Sequence[int]) -> tuple[int, ...]:
    expo = [0] * dim
    for p in word:
        expo[p] += 1
    return tuple(expo)


class UEAElement:
    """Sparse map from PBW monomials to nonzero exact coefficients: ``int``
    where exact, ``Fraction`` otherwise, kept as given."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieAlgebra, terms: dict[Monomial, int | Fraction] | None = None):
        self.alg = alg
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, alg: LieAlgebra) -> "UEAElement":
        return cls(alg)

    @classmethod
    def one(cls, alg: LieAlgebra) -> "UEAElement":
        return cls(alg, {(): 1})

    @classmethod
    def generator(cls, alg: LieAlgebra, g: GeneratorId) -> "UEAElement":
        return cls(alg, {(alg.position(g),): 1})

    # -- linear structure ---------------------------------------------
    def __add__(self, other: "UEAElement") -> "UEAElement":
        return UEAElement(self.alg, accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return UEAElement(self.alg, accumulate(dict(self.terms),
                                               ((m, -c) for m, c in other.terms.items())))

    def __neg__(self) -> "UEAElement":
        return UEAElement(self.alg, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "UEAElement":
        c = _exact_coeff(c)
        return UEAElement(self.alg, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            return multiply(self.alg, self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, UEAElement) and self.alg.spec == other.alg.spec
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(map(len, self.terms))

    def coefficient(self, mono: Monomial) -> int | Fraction:
        return self.terms.get(mono, 0)

    def leading_monomial(self) -> Monomial:
        return max(self.terms, key=word_key)

    def __repr__(self):
        return f"UEAElement({pretty(self)})"

    def __str__(self):
        return pretty(self)


def _first_descent(word: tuple[int, ...]) -> int:
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            return i
    return -1


def _place(table, head: Monomial, j: int, tail: Monomial, c, done: dict, lower: dict) -> None:
    """Add ``c`` times the word ``head + (j,) + tail`` into ``done`` with
    ``j`` moved to its sorted place: left into the sorted ``head`` when it
    is below ``head[-1]``, else right into the sorted ``tail``.  Each letter
    x it passes leaves its bracket term in ``lower``: the word ``w = head +
    tail`` with x replaced by c [x, j] when ``j`` moves left, by c [j, x]
    when it moves right.  ``pair_table`` holds [j, x] as -[x, j] term for
    term, so one loop reads [x, j] for both moves, with the sign -c for the
    right one.  Letters are passed a run of equal letters at a time.  A
    word whose coefficient cancels is deleted, as ``accumulate`` does;
    ``c`` and every bracket coefficient are nonzero, so no zero is ever
    added."""
    if head and j < head[-1]:
        lo = at = bisect_right(head, j)
        hi, sign = len(head), c
    elif tail and tail[0] < j:
        lo = len(head)
        hi = at = lo + bisect_left(tail, j)
        sign = -c
    else:
        at = None
    if at is None:
        word = head + (j,) + tail
    else:
        w = head + tail
        word = w[:at] + (j,) + w[at:]
        while lo < hi:
            x = w[lo]
            end = bisect_right(w, x, lo, hi)
            for u, cu in table[x][j]:
                v = sign * cu
                for m in range(lo, end):
                    key = w[:m] + (u,) + w[m + 1:]
                    s = lower.get(key)
                    if s is None:
                        lower[key] = v
                    elif s := s + v:
                        lower[key] = s
                    else:
                        del lower[key]
            lo = end
    s = done.get(word)
    if s is None:
        done[word] = c
    elif s := s + c:
        done[word] = s
    else:
        del done[word]


def _normal_form(alg: LieAlgebra, work: dict[tuple[int, ...], int | Fraction],
                 done: dict[Monomial, int | Fraction] | None = None) -> UEAElement:
    """PBW expansion of a combination ``{word: coeff}`` of position words,
    added to the sorted words ``done`` where given.

    Longest words first, since bracket terms are shorter; within one
    length, in rounds that each place every word's first out-of-order
    letter into its sorted prefix and merge the results."""
    table = alg.pair_table
    done = {} if done is None else done
    levels: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
    for w, c in work.items():
        if _first_descent(w) < 0:
            accumulate(done, ((w, c),))
        else:
            levels.setdefault(len(w), {})[w] = c
    while levels:
        n = max(levels)
        words = levels.pop(n)
        # the bracket terms of two-letter words are single letters, sorted
        lower = done if n == 2 else levels.setdefault(n - 1, {})
        while words:
            rest: dict[tuple[int, ...], int | Fraction] = {}
            for w, c in words.items():
                i = _first_descent(w)
                if i < 0:
                    accumulate(done, ((w, c),))
                else:
                    _place(table, w[:i + 1], w[i + 1], w[i + 2:], c, rest, lower)
            words = rest
    return UEAElement(alg, done)


def normal_order(alg: LieAlgebra, word: Iterable[GeneratorId | int]) -> UEAElement:
    """PBW expansion of the left-to-right product of ``word``."""
    positions = tuple(g if isinstance(g, int) else alg.position(g) for g in word)
    return _normal_form(alg, {positions: 1})


def multiply(alg: LieAlgebra, a: UEAElement, b: UEAElement) -> UEAElement:
    """Bilinear extension of normal ordering on concatenated words."""
    work: dict[tuple[int, ...], int | Fraction] = {}
    for wa, ca in a.terms.items():
        accumulate(work, ((wa + wb, ca * cb) for wb, cb in b.terms.items()))
    return _normal_form(alg, work)


def commutators(alg: LieAlgebra, elements: Iterable[UEAElement],
                gens: Sequence[GeneratorId | int]) -> Iterator[list[UEAElement]]:
    """[a, x] = a x - x a in normal form for each basis generator x of
    ``gens``: one list per element of ``elements``, in ``gens`` order,
    yielded as each element is done.

    ad x acts as a derivation: for a PBW word b_1...b_n the bracket is
    sum_k b_1...b_(k-1) [b_k, x] b_(k+1)...b_n.  Each element's words are
    read once for all of ``gens``: each letter visits only the generators
    it has a nonzero bracket with, listed per letter on each call.  Each
    substituted letter sits in an otherwise sorted word and is placed at
    once, into its generator's own sums; only the bracket terms of those
    placements go through one normal-ordering pass per generator."""
    table = alg.pair_table
    ps = [x if isinstance(x, int) else alg.position(x) for x in gens]
    # letter -> (index into gens, terms of [letter, x]) per nonzero bracket
    hits = [[(i, table[b][p]) for i, p in enumerate(ps) if table[b][p]]
            for b in range(alg.dim)]
    for a in elements:
        done: list[dict[Monomial, int | Fraction]] = [{} for _ in ps]
        lower: list[dict[tuple[int, ...], int | Fraction]] = [{} for _ in ps]
        for w, c in a.terms.items():
            for k, bk in enumerate(w):
                if hits[bk]:
                    head, tail = w[:k], w[k + 1:]
                    for i, terms in hits[bk]:
                        for j, cj in terms:
                            _place(table, head, j, tail, c * cj, done[i], lower[i])
        yield [_normal_form(alg, lo, dn) for lo, dn in zip(lower, done)]


def commutator(alg: LieAlgebra, a: UEAElement, x: GeneratorId | int) -> UEAElement:
    """[a, x] = a x - x a in normal form, for a basis generator x; see
    ``commutators``."""
    return next(commutators(alg, [a], [x]))[0]


@lru_cache(maxsize=None)
def omega_positions(alg: LieAlgebra) -> tuple[int, ...]:
    """The involution on generators, as a permutation of basis positions.

    H and C swap, the diagonal generators (D, J and the central element)
    are fixed, and index n of each translation tower maps to 2*ell - n,
    with the towers themselves swapping when both are present.
    """
    spec = alg.spec
    n2 = spec.two_ell
    img: list[int] = [0] * alg.dim
    for g, i in alg.positions.items():
        if g.kind == "H":
            tgt = GeneratorId("C")
        elif g.kind == "C":
            tgt = GeneratorId("H")
        elif g.kind == "P":
            tgt = GeneratorId("Q" if spec.d == 2 else "P", n2 - g.index)
        elif g.kind == "Q":
            tgt = GeneratorId("P", n2 - g.index)
        else:  # D, J, M, Theta are fixed
            tgt = g
        img[i] = alg.positions[tgt]
    return tuple(img)


def omega(alg: LieAlgebra, a: UEAElement) -> UEAElement:
    """Involutive anti-automorphism: products reverse, then re-order."""
    img = omega_positions(alg)
    return _normal_form(alg, {tuple(img[p] for p in reversed(w)): c for w, c in a.terms.items()})


def from_term_list(alg: LieAlgebra,
                   terms: Iterable[tuple[object, Sequence[str]]]) -> UEAElement:
    """Build an element from (coefficient, generator-name word) pairs,
    each coefficient exact (see ``_exact_coeff``).

    Words need not be pre-ordered; they are normal ordered as products.
    """
    work: dict[tuple[int, ...], int | Fraction] = {}
    accumulate(work, ((tuple(alg.position(alg.generator(n)) for n in names),
                       _exact_coeff(c)) for c, names in terms))
    return _normal_form(alg, work)


def monomial_text(mono: Sequence[int], names: Sequence[str]) -> str:
    """``a*b^2`` for exponents (1, 2) over names (a, b); "" for the constant
    monomial.  Serves PBW monomials, polynomial terms and derivative
    multi-indices alike."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e)


def monomial_names(mono: Sequence[int], names: Sequence[str]) -> dict[str, int]:
    """The JSON form of an exponent tuple: {name: exponent} over the nonzero
    exponents."""
    return {n: e for n, e in zip(names, mono) if e}


def terms_text(terms: dict[tuple[int, ...], int | Fraction], names: Sequence[str]) -> str:
    """Signed sum of a sparse exponent-tuple map, largest graded-lex term
    first; "0" when empty."""
    out = ""
    for mono in sorted(terms, key=grlex_key, reverse=True):
        c = terms[mono]
        body = monomial_text(mono, names)
        txt = str(abs(c)) if not body else body if abs(c) == 1 else f"{abs(c)}*{body}"
        if out:
            out += (" - " if c < 0 else " + ") + txt
        else:
            out = ("-" if c < 0 else "") + txt
    return out or "0"


def pretty_monomial(alg: LieAlgebra, mono: Monomial) -> str:
    return monomial_text(word_monomial(alg.dim, mono), [g.name for g in alg.basis]) or "1"


def pretty(a: UEAElement) -> str:
    return terms_text({word_monomial(a.alg.dim, w): c for w, c in a.terms.items()},
                      [g.name for g in a.alg.basis])


def to_json_dict(a: UEAElement) -> dict:
    names = [g.name for g in a.alg.basis]
    return {"terms": [{"monomial": monomial_names(word_monomial(a.alg.dim, w), names),
                       "coeff": str(a.terms[w])} for w in sorted(a.terms, key=word_key)]}


def _exact_coeff(value) -> int | Fraction:
    """An exact coefficient, from JSON or a library caller: an ``int``, a
    ``Fraction`` or a rational string, kept as an ``int`` where whole.
    Anything else, a ``bool`` or a ``float`` included, is a ValueError: a
    float's binary value is seldom the number that was written."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise ValueError(f"coefficient {value!r} is not an integer, a Fraction or a "
                         f"'p/q' string")
    try:
        c = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"coefficient {value!r} is not a finite rational") from None
    return int_if_whole(c)


def _json_terms(alg: LieAlgebra, data: dict) -> list[tuple[dict[int, int], int | Fraction]]:
    """The terms of one JSON element as ({position: exponent}, coeff)
    pairs, validated, with no word spelled out."""
    entries = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError("an element needs a list under 'terms'")
    terms = []
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("monomial"), dict)
                and "coeff" in entry):
            raise ValueError(f"term {entry!r} needs a 'monomial' object and a 'coeff'")
        expo = {}
        for name, e in entry["monomial"].items():
            if name not in alg.by_name:
                raise ValueError(f"no generator named {name!r} in this algebra")
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent of {name} must be an integer >= 0, got {e!r}")
            expo[alg.position(alg.by_name[name])] = e
        if sum(expo.values()) > MAX_DEGREE:
            raise ValueError(f"a term of degree {sum(expo.values())} is above the largest "
                             f"accepted degree, {MAX_DEGREE}")
        terms.append((expo, _exact_coeff(entry["coeff"])))
    return terms


def from_json_dicts(alg: LieAlgebra, dicts: list) -> list[UEAElement]:
    """Inverse of ``to_json_dict`` over the elements of one input.  Raises
    ValueError on anything that is not a list of terms with known generator
    names, integer exponents >= 0, total degree at most ``MAX_DEGREE`` and
    exact rational coefficients, and on elements whose words would hold
    more than ``MAX_LETTERS`` letters together, before any word is spelled
    out."""
    parsed = [_json_terms(alg, data) for data in dicts]
    letters = sum(sum(expo.values()) for terms in parsed for expo, _ in terms)
    if letters > MAX_LETTERS:
        raise ValueError(f"the words of these elements would hold {letters} letters, above "
                         f"the largest accepted, {MAX_LETTERS}")
    out = []
    for terms in parsed:
        words = ((monomial_word([expo.get(p, 0) for p in range(alg.dim)]), c) for expo, c in terms)
        out.append(UEAElement(alg, accumulate({}, words)))
    return out


def from_json_dict(alg: LieAlgebra, data: dict) -> UEAElement:
    """Inverse of ``to_json_dict`` for one element; see ``from_json_dicts``."""
    return from_json_dicts(alg, [data])[0]
