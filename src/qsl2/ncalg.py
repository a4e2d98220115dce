"""Free noncommutative polynomials over Q(q), tensor powers, monomial orders.

Words are tuples of generator indices into a fixed generator name table.
Polynomials are finitely supported mappings word -> CycRat with no stored
zero coefficients; all operations are pure and return fresh objects.
"""

from __future__ import annotations

import operator

from .cyclo import CycRat, join_signed, parse_terms
from .errors import MixedAlgebras
from .exactla import addto, addto_all

Word = tuple  # tuple[int, ...]

EMPTY_WORD: Word = ()


class MonomialOrder:
    """Degree-lexicographic order, optionally with positive letter weights.

    Words compare by total weight, then length, then letterwise precedence.
    With all weights 1 this is plain deglex.  The order is a well-order
    compatible with concatenation in all cases.

    key(word) is a sort key for that comparison, and descending_key(word)
    one that sorts words in the reverse order (a heap key that pops the
    largest word first).  With at most 256 letters, precedences in 0..255
    and weights at most 255, the order keeps two byte translation tables,
    letter -> precedence and letter -> weight (`tables`), and a key is
    (weight sum, length, precedence bytes) with no per-letter Python.
    Otherwise `tables` is None and the keys fall back to (weight, length,
    tuple of precedences) and its negation; both compare alike.

    precedence and weights, when given, hold one entry per letter, the
    precedences distinct and the weights positive; anything else raises
    ValueError.
    """

    __slots__ = ("ngens", "precedence", "weights", "tables", "key",
                 "descending_key")

    def __init__(self, ngens: int, precedence=None, weights=None):
        self.ngens = ngens
        self.precedence = tuple(precedence) if precedence else tuple(range(ngens))
        self.weights = tuple(weights) if weights else (1,) * ngens
        if len(self.precedence) != ngens or len(self.weights) != ngens:
            raise ValueError(f"precedence and weights need {ngens} entries "
                             f"each, got {len(self.precedence)} and "
                             f"{len(self.weights)}")
        if len(set(self.precedence)) != ngens:
            raise ValueError("letter precedences must be distinct")
        if any(w < 1 for w in self.weights):
            raise ValueError("letter weights must be positive")
        if (ngens <= 256 and max(self.weights, default=1) <= 255
                and all(0 <= p <= 255 for p in self.precedence)):
            ptab = bytes(self.precedence).ljust(256, b"\0")
            wtab = bytes(self.weights).ljust(256, b"\0")
            self.tables = (ptab, wtab)
            self.key = self._byte_key
            # equal-length byte strings compare letterwise, so mapping letter
            # g to 255 - precedence[g] makes the ascending byte order the
            # descending order
            inverted = ptab.translate(bytes(range(255, -1, -1)))
            self.descending_key = lambda w: (
                -sum(bytes(w).translate(wtab)), -len(w),
                bytes(w).translate(inverted))
        else:
            self.tables = None
            self.key = self._tuple_key
            self.descending_key = self._descending_tuple_key

    def weight(self, word: Word) -> int:
        w = self.weights
        return sum(w[g] for g in word)

    def _byte_key(self, word: Word):
        b = bytes(word)
        ptab, wtab = self.tables
        return (sum(b.translate(wtab)), len(word), b.translate(ptab))

    def _tuple_key(self, word: Word):
        p = self.precedence
        return (self.weight(word), len(word), tuple(p[g] for g in word))

    def _descending_tuple_key(self, word: Word):
        weight, length, letters = self._tuple_key(word)
        return -weight, -length, tuple(-x for x in letters)

    def to_json(self):
        return {"kind": "deglex", "precedence": list(self.precedence),
                "weights": list(self.weights)}


class _SparsePoly:
    """Arithmetic shared by NCPoly and TensorPoly.

    An element is a finitely supported map key -> CycRat over one algebra;
    a subclass names that algebra by `_space()`, the constructor arguments
    that precede the terms, and combines keys in its own `__mul__`.
    """

    __slots__ = ()

    def _new(self, terms: dict):
        return type(self)(*self._space(), terms)

    def _check(self, other):
        if self._space() != other._space():
            raise MixedAlgebras(
                f"{type(self).__name__} operands over different algebras")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            addto(terms, k, c)
        return self._new(terms)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def _product(self, other, join):
        """self * other, with keys combined by join(u, v)."""
        if isinstance(other, CycRat):
            return self.scale(other)
        self._check(other)
        terms = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                addto(terms, join(u, v), cu * cv)
        return self._new(terms)

    def __rmul__(self, other):
        if isinstance(other, CycRat):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: CycRat):
        if c.is_zero():
            return self._new({})
        return self._new({k: x * c for k, x in self.terms.items()})


class NCPoly(_SparsePoly):
    """Noncommutative polynomial: finitely supported map word -> CycRat."""

    __slots__ = ("gens", "ell", "terms")

    def __init__(self, gens: tuple, ell: int, terms: dict):
        self.gens = gens
        self.ell = ell
        self.terms = terms

    def _space(self):
        return self.gens, self.ell

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(gens, ell):
        return NCPoly(gens, ell, {})

    @staticmethod
    def one(gens, ell):
        return NCPoly(gens, ell, {EMPTY_WORD: CycRat.one(ell)})

    @staticmethod
    def monomial(gens, ell, word: Word, coeff=None):
        c = CycRat.one(ell) if coeff is None else coeff
        if c.is_zero():
            return NCPoly.zero(gens, ell)
        return NCPoly(gens, ell, {tuple(word): c})

    @staticmethod
    def generator(gens, ell, index: int):
        return NCPoly.monomial(gens, ell, (index,))

    @staticmethod
    def from_terms(gens, ell, items):
        terms = {}
        for word, coeff in items:
            addto(terms, tuple(word), coeff)
        return NCPoly(gens, ell, terms)

    # -- helpers -----------------------------------------------------------

    def coefficient(self, word: Word) -> CycRat:
        return self.terms.get(tuple(word), CycRat.zero(self.ell))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        return self._product(other, operator.add)  # words concatenate

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.gens == other.gens and self.ell == other.ell and self.terms == other.terms

    def __hash__(self):
        return hash((self.gens, self.ell, frozenset(self.terms.items())))

    def __repr__(self):
        return f"NCPoly({render_poly(self)!r})"


def _join_legs(ku, kv):
    return tuple(map(operator.add, ku, kv))


class TensorPoly(_SparsePoly):
    """Element of the legs-fold tensor power of the free algebra.

    Keys are tuples of words, one per tensor leg; multiplication is
    componentwise: (u1 x u2)(v1 x v2) = u1 v1 x u2 v2.
    """

    __slots__ = ("gens", "ell", "legs", "terms")

    def __init__(self, gens, ell, legs: int, terms: dict):
        self.gens = gens
        self.ell = ell
        self.legs = legs
        self.terms = terms

    def _space(self):
        return self.gens, self.ell, self.legs

    @staticmethod
    def zero(gens, ell, legs=2):
        return TensorPoly(gens, ell, legs, {})

    @staticmethod
    def one(gens, ell, legs=2):
        return TensorPoly(gens, ell, legs, {(EMPTY_WORD,) * legs: CycRat.one(ell)})

    @staticmethod
    def monomial(gens, ell, words, coeff=None):
        c = CycRat.one(ell) if coeff is None else coeff
        if c.is_zero():
            return TensorPoly.zero(gens, ell, len(words))
        return TensorPoly(gens, ell, len(words), {tuple(tuple(w) for w in words): c})

    def __mul__(self, other):
        return self._product(other, _join_legs)

    def __eq__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return (self.gens == other.gens and self.ell == other.ell
                and self.legs == other.legs and self.terms == other.terms)

    def __repr__(self):
        body = " + ".join(
            f"({c.render()})*" + " (x) ".join(_render_word_named(self.gens, w) or "1" for w in k)
            for k, c in sorted(self.terms.items())
        )
        return f"TensorPoly({body or '0'!r})"

    def expand_leg(self, leg: int, images) -> "TensorPoly":
        """Replace tensor leg `leg` by its image under a word -> TensorPoly map.

        The image tensor's legs are spliced in place, so the result has
        self.legs + images_legs - 1 legs.  Used for (Delta x id) style maps.
        Each term multiplies out over its image once, and the products of
        all terms are added in one accumulation, which drops keys that
        cancel.  A coefficient that is the field's interned one is not
        multiplied, as in the normal-form loops (see the rewrite module).
        """
        spliced = [(key[:leg], key[leg + 1:], coeff, images(key[leg]))
                   for key, coeff in self.terms.items()]
        if spliced:
            out_legs = self.legs + spliced[0][3].legs - 1
        else:
            out_legs = self.legs + 1  # zero tensor; leg count of Delta-expansion
        one = CycRat.one(self.ell)
        out_terms = {}
        addto_all(out_terms,
                  [head + ikey + tail
                   for head, tail, _, img in spliced for ikey in img.terms],
                  [coeff if icoeff is one else icoeff if coeff is one
                   else coeff * icoeff
                   for _, _, coeff, img in spliced
                   for icoeff in img.terms.values()])
        return TensorPoly(self.gens, self.ell, out_legs, out_terms)


# -- rendering and parsing ---------------------------------------------------


def _render_word_named(gens, word: Word) -> str:
    if not word:
        return ""
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        name = gens[word[i]]
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return "*".join(parts)


def render_poly(p: NCPoly, order: MonomialOrder | None = None) -> str:
    """Render as e.g. "q^2*a*b - 1"; words in descending order when given."""
    if p.is_zero():
        return "0"
    words = sorted(p.terms, key=(order.key if order else lambda w: (len(w), w)),
                   reverse=True)
    parts = []
    for w in words:
        c = p.terms[w]
        mono = _render_word_named(p.gens, w)
        s = c.render()
        composite = (" + " in s) or (" - " in s)
        if not mono:
            body = f"({s})" if composite else s
        elif s == "1":
            body = mono
        elif s == "-1":
            body = f"-{mono}"
        else:
            body = (f"({s})*{mono}" if composite else f"{s}*{mono}")
        parts.append(body)
    return join_signed(parts)


def parse_poly(text: str, gens, ell: int) -> NCPoly:
    """Parse the render_poly syntax: cyclo.parse_terms with gens as names."""
    return NCPoly.from_terms(gens, ell, parse_terms(ell, text, gens))
