"""Hopf structure maps on presented algebras and the verification battery.

Every check here is an exact identity over Q(q): coproducts extend
multiplicatively, antipodes anti-multiplicatively, and each verification
compares normal forms structurally.  An irreducible word is its own normal
form, complete or bounded: the axiom battery compares what it builds from
irreducible words as it is, and sums the rest in one terms dict that it
reduces once.  Coassociativity compares the terms of its two sides for
equality, with no subtraction; each term of a tensor multiplies out over
its legs once (expand_leg, tensor_normal_form); and each word's counit is
computed once per instance.

Every map returns a normal form where it is made: delta_word and
antipode_word reduce each word's image, the empty word's included, so a
sum of their images is normal as summed.  Each extension step multiplies
in the quotient (rewrite.product_normal_form): the normal forms of each
pair of terms are added up and no unreduced product is formed, in
delta_word, antipode_word, substitute, the centrality check and span
saturation alike.  Generator images extend to a polynomial in one place,
map_poly; the Hopf-morphism check, the PSL2 embedding check and the lifts
of a subgroup's vanishing ideal all go through it.

Each Hopf quotient is one NamedAlgebra, built in _hopf_ideal alone and
checked there on the instance it returns, so the coproducts and antipodes of
the check stay in that instance's caches; a caller that reports a quotient
under another subject renames it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CycRat, embed_scalar
from .errors import QSL2Error
from .exactla import Echelon, addto, kernel_of_columns, span_closure
from .ncalg import EMPTY_WORD, NCPoly, TensorPoly, render_poly
from .rewrite import (Presentation, basis_words, enumerate_basis,
                      normal_form, product_normal_form, quotient_presentation,
                      tensor_normal_form, _word_name)


@dataclass
class CheckResult:
    check: str
    subject: str
    ok: bool
    witness: str | None = None

    def to_json(self):
        out = {"check": self.check, "subject": self.subject,
               "status": "pass" if self.ok else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def all_ok(results) -> bool:
    return all(r.ok for r in results)


class HopfStructure:
    """Generator images of Delta, epsilon and S; extension is definitional."""

    def __init__(self, delta: dict, counit: dict, antipode: dict):
        self.delta = delta      # gen index -> TensorPoly (2 legs)
        self.counit = counit    # gen index -> CycRat
        self.antipode = antipode  # gen index -> NCPoly


class NamedAlgebra:
    """A presentation together with a verified Hopf structure.

    delta_word, antipode_word and counit_word each keep a cache, word ->
    image, on the instance: two instances over one presentation, such as an
    algebra and a mutant of its maps, never read each other's images.
    """

    def __init__(self, pres: Presentation, hopf: HopfStructure, label: str):
        self.pres = pres
        self.hopf = hopf
        self.label = label
        self._delta_cache: dict = {}
        self._antipode_cache: dict = {}
        self._counit_cache: dict = {}

    def fresh(self) -> NamedAlgebra:
        """A new instance over a fresh copy of the presentation (see
        Presentation.fresh) and the same structure maps, with empty caches."""
        return NamedAlgebra(self.pres.fresh(), self.hopf, self.label)

    @property
    def gens(self):
        return self.pres.gens

    @property
    def ell(self):
        return self.pres.ell

    # -- structure maps -----------------------------------------------------

    def delta_word(self, word) -> TensorPoly:
        cached = self._delta_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            out = tensor_normal_form(self.pres,
                                     TensorPoly.one(self.gens, self.ell))
        else:
            out = product_normal_form(self.pres, self.delta_word(word[:-1]),
                                      self.hopf.delta[word[-1]])
        self._delta_cache[word] = out
        return out

    def delta(self, p: NCPoly) -> TensorPoly:
        terms: dict = {}
        for w, c in p.terms.items():
            for k, x in self.delta_word(w).terms.items():
                addto(terms, k, x * c)
        return TensorPoly(self.gens, self.ell, 2, terms)

    def antipode_word(self, word) -> NCPoly:
        cached = self._antipode_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            out = normal_form(self.pres, self.pres.one())
        else:
            # anti-multiplicative: S(g w') = S(w') S(g)
            out = product_normal_form(self.pres, self.antipode_word(word[1:]),
                                      self.hopf.antipode[word[0]])
        self._antipode_cache[word] = out
        return out

    def antipode(self, p: NCPoly) -> NCPoly:
        terms: dict = {}
        for w, c in p.terms.items():
            for u, x in self.antipode_word(w).terms.items():
                addto(terms, u, x * c)
        return NCPoly(self.gens, self.ell, terms)

    def counit_word(self, word) -> CycRat:
        out = self._counit_cache.get(word)
        if out is None:
            out = CycRat.one(self.ell)
            for g in word:
                out = out * self.hopf.counit[g]
                if out.is_zero():
                    break
            self._counit_cache[word] = out
        return out

    def counit(self, p: NCPoly) -> CycRat:
        out = CycRat.zero(self.ell)
        for w, c in p.terms.items():
            out = out + self.counit_word(w) * c
        return out

    def nf(self, p):
        return normal_form(self.pres, p)

    def quotient(self, relations, label="", complete_to=None) -> NamedAlgebra:
        """The Hopf quotient by the relations (see hopf_quotient).  Raises
        QSL2Error at the first Hopf-ideal check the relations fail.

        It builds no rows: the checks run in hopf_quotient's order and stop
        at the first failure, and only that relation is rendered, for the
        error text."""
        quot, checks = _hopf_ideal(self, relations, label, complete_to)
        bad = _failure_text(checks, relations, self.pres.order)
        if bad is not None:
            raise QSL2Error(f"not a Hopf ideal of {self.label}: {bad}")
        return quot


def named_algebra(pres, delta, counit, antipode, label) -> NamedAlgebra:
    """A base algebra with its structure maps, checked well defined on every
    defining relation (the checks of check_structure_well_defined, up to
    the first failure, with no rows built)."""
    alg = NamedAlgebra(pres, HopfStructure(delta, counit, antipode), label)
    bad = _failure_text(_well_defined(alg), pres.defining, pres.order)
    if bad is not None:
        raise QSL2Error(f"Hopf structure ill-defined on {label}: {bad}")
    return alg


# -- relation checks ----------------------------------------------------------
# A relation check is a lazy sequence of (check, index into the relations,
# ok).  The reports build a row for every check, each relation rendered once
# (_relation_rows); the constructors stop at the first failure and render
# that relation alone (_failure_text).


def _relation_rows(checks, subject, relations, order) -> list[CheckResult]:
    texts = [render_poly(r, order) for r in relations]
    return [CheckResult(check, subject, ok, texts[i])
            for check, i, ok in checks]


def _failure_text(checks, relations, order) -> str | None:
    """The text "check at relation" of the first failing check, or None
    when every check passes."""
    for check, i, ok in checks:
        if not ok:
            return f"{check} at {render_poly(relations[i], order)}"
    return None


# -- well-definedness and axioms ------------------------------------------------


def _well_defined(alg: NamedAlgebra):
    """Delta, then epsilon, then S of each defining relation is zero."""
    for i, rel in enumerate(alg.pres.defining):
        yield "delta-well-defined", i, alg.delta(rel).is_zero()
        yield "counit-well-defined", i, alg.counit(rel).is_zero()
        yield "antipode-well-defined", i, alg.antipode(rel).is_zero()


def check_structure_well_defined(alg: NamedAlgebra) -> list[CheckResult]:
    """Delta, epsilon, S send every defining relation to zero: a row for
    each check."""
    return _relation_rows(_well_defined(alg), alg.label, alg.pres.defining,
                          alg.pres.order)


def check_axioms(alg: NamedAlgebra, sample_deg: int = 3) -> list[CheckResult]:
    """Coassociativity, counit law, antipode convolution law.

    Checked on all irreducible words up to sample_deg >= 1, which include
    the irreducible generators.
    An irreducible word is its own normal form, whether or not completion
    finished, and every leg of delta_word is one (it returns tensor normal
    forms): both sides of coassociativity and of the counit law are normal
    as built, and are compared unreduced, coassociativity as the equality
    of the two sides' terms.  Each side of the antipode law is summed in one
    terms dict and reduced once.  A collapsed presentation has no
    irreducible words, so nothing is checked there.
    """
    pres = alg.pres
    one = CycRat.one(alg.ell)
    words = [w for level in enumerate_basis(pres, sample_deg) for w in level]

    def coassociative(w):
        dw = alg.delta_word(w)
        left = dw.expand_leg(0, alg.delta_word)
        right = dw.expand_leg(1, alg.delta_word)
        return left.terms == right.terms

    def counit_law(w):
        lhs, rhs = {}, {}
        for (u, v), c in alg.delta_word(w).terms.items():
            eu, ev = alg.counit_word(u), alg.counit_word(v)
            if not eu.is_zero():
                addto(lhs, v, c * eu)
            if not ev.is_zero():
                addto(rhs, u, c * ev)
        return lhs == rhs == {w: one}

    def antipode_law(w):
        left, right = {}, {}
        for (u, v), c in alg.delta_word(w).terms.items():
            for s, cs in alg.antipode_word(u).terms.items():
                addto(left, s + v, cs * c)
            for s, cs in alg.antipode_word(v).terms.items():
                addto(right, u + s, cs * c)
        eps = alg.counit_word(w)
        target = {EMPTY_WORD: eps} if not eps.is_zero() else {}
        return pres.nf_terms(left) == target and pres.nf_terms(right) == target

    return [_first_failure("coassociativity", alg, words, coassociative),
            _first_failure("counit-law", alg, words, counit_law),
            _first_failure("antipode-law", alg, words, antipode_law)]


def _first_failure(check: str, alg: NamedAlgebra, words, holds) -> CheckResult:
    """One row for a law checked word by word: the first failing word is
    the witness."""
    for w in words:
        if not holds(w):
            return CheckResult(check, alg.label, False, _word_name(alg.gens, w))
    return CheckResult(check, alg.label, True)


def run_battery(alg: NamedAlgebra, sample_deg: int = 3) -> list[CheckResult]:
    return check_structure_well_defined(alg) + check_axioms(alg, sample_deg)


# -- finite models ---------------------------------------------------------------


class FiniteModel:
    """The basis of a finite-dimensional algebra, indexed, with its
    coproduct and counit on basis words.  Coproducts are read from
    delta_word on first use and kept by index.
    """

    def __init__(self, alg: NamedAlgebra):
        self.alg = alg
        self.basis = basis_words(alg.pres)
        self.index = {w: i for i, w in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._delta: dict = {}

    def delta(self, i: int) -> dict:
        hit = self._delta.get(i)
        if hit is None:
            t = self.alg.delta_word(self.basis[i])
            hit = {(self.index[u], self.index[v]): c
                   for (u, v), c in t.terms.items()}
            self._delta[i] = hit
        return hit

    def counit(self, i: int) -> CycRat:
        return self.alg.counit_word(self.basis[i])


# -- grouplikes -------------------------------------------------------------------


@dataclass
class GrouplikeReport:
    elements: list          # NCPoly
    method: str
    complete: bool

    def count(self):
        return len(self.elements)


def grouplikes(model: FiniteModel) -> GrouplikeReport:
    """All grouplike basis words, with a completeness certificate when possible.

    Certificates: (a) if every basis word is grouplike the list is complete
    over any coefficient field (orthogonality of coordinates); (b) if some
    letter-counting grading is compatible with Delta, grouplikes live in its
    degree-0 part, and (a) applies to that subcoalgebra.
    """
    alg = model.alg
    found = []
    grouplike_idx = set()
    for i, w in enumerate(model.basis):
        d = model.delta(i)
        if d == {(i, i): CycRat.one(alg.ell)} and model.counit(i).is_one():
            found.append(NCPoly.monomial(alg.gens, alg.ell, w))
            grouplike_idx.add(i)

    method = "basis-word scan with exact Delta/counit verification"
    complete = False
    if len(grouplike_idx) == model.dim:
        complete = True
        method += "; complete: every basis word is grouplike"
    else:
        # look for a Delta-compatible nonnegative letter grading whose
        # degree-0 words are exactly the grouplikes found
        eps_zero = [g for g in range(len(alg.gens))
                    if alg.hopf.counit[g].is_zero()]
        candidates = [frozenset([g]) for g in eps_zero]
        if len(eps_zero) > 1:
            candidates.append(frozenset(eps_zero))
        for letters in candidates:
            def deg(w):
                return sum(1 for g in w if g in letters)
            compatible = True
            for i, w in enumerate(model.basis):
                dw = deg(w)
                for (j, k) in model.delta(i):
                    if deg(model.basis[j]) + deg(model.basis[k]) != dw:
                        compatible = False
                        break
                if not compatible:
                    break
            if compatible:
                deg0 = {i for i, w in enumerate(model.basis) if deg(w) == 0}
                if deg0 == grouplike_idx:
                    complete = True
                    method += ("; complete: Delta-compatible grading by letters "
                               f"{{{', '.join(alg.gens[g] for g in sorted(letters))}}} "
                               "concentrates grouplikes in degree 0")
                    break

    return GrouplikeReport(found, method, complete)


# -- Hopf ideals ------------------------------------------------------------------


def _hopf_ideal(alg: NamedAlgebra, gens: list[NCPoly], label, complete_to):
    """The quotient of alg by the ideal gens generate, completed once (see
    quotient_presentation), with alg's structure maps, and its Hopf-ideal
    checks as a lazy sequence of (check, index into gens, ok): for each
    generator in turn, the counit kills it, then Delta and then S send it
    into the ideal.  Projecting onto the quotient is an algebra map, so
    Delta and S extend there from the generator images and vanish exactly
    on the ideal; they are checked on the instance returned, which keeps
    their caches."""
    pres = quotient_presentation(alg.pres, gens, complete_to, label)
    quot = NamedAlgebra(pres, alg.hopf, label or alg.label)

    def checks():
        for i, j in enumerate(gens):
            yield "hopf-ideal-counit", i, alg.counit(j).is_zero()
            yield "hopf-ideal-delta", i, quot.delta(j).is_zero()
            yield "hopf-ideal-antipode", i, quot.antipode(j).is_zero()
    return quot, checks()


def hopf_quotient(alg: NamedAlgebra, gens: list[NCPoly], label="",
                  complete_to=None) -> tuple[NamedAlgebra, list[CheckResult]]:
    """The quotient of alg by the ideal gens generate (see _hopf_ideal) and
    a row for every one of its Hopf-ideal checks, each with its relation
    rendered: the rows the catalog and `qsl2 verify hopf-ideal` report.
    NamedAlgebra.quotient runs the same checks and builds no rows."""
    quot, checks = _hopf_ideal(alg, gens, label, complete_to)
    return quot, _relation_rows(checks, alg.label, gens, alg.pres.order)


# -- centrality and normality ------------------------------------------------------


def check_central(alg: NamedAlgebra, elements: list[NCPoly]) -> list[CheckResult]:
    results = []
    for x in elements:
        xt = render_poly(x, alg.pres.order)
        for g in range(len(alg.gens)):
            gp = alg.pres.gen(g)
            xg = product_normal_form(alg.pres, x, gp)
            gx = product_normal_form(alg.pres, gp, x)
            results.append(CheckResult(
                "central", alg.label, xg.terms == gx.terms,
                f"[{xt}, {alg.gens[g]}]"))
    return results


def subalgebra_span(alg: NamedAlgebra, elements: list[NCPoly],
                    max_deg: int) -> Echelon:
    """Exact span of products of the listed elements up to total degree."""
    elems = [(normal_form(alg.pres, e),
              max((len(w) for w in e.terms), default=0)) for e in elements]

    def successors(item):
        p, d = item
        for e, de in elems:
            if d + de <= max_deg:
                yield product_normal_form(alg.pres, p, e), d + de

    return span_closure((alg.pres.one(), 0), successors,
                        lambda item: item[0].terms)


def check_normal(alg: NamedAlgebra, elements: list[NCPoly]) -> list[CheckResult]:
    """Both adjoint actions of every generator keep each element in the span."""
    results = []
    max_elem_deg = max(max((len(w) for w in e.terms), default=0)
                       for e in elements)
    # ad_g(x) = sum u x S(v) has degree at most deg x + 2 for a generator g;
    # normal forms of words that long must be unique
    degree = max_elem_deg + 2
    bound = alg.pres.completion_bound
    if bound is not None and bound < degree:
        alg = alg.quotient([], complete_to=degree, label=alg.label)
    span = subalgebra_span(alg, elements, degree)
    for x in elements:
        xt = render_poly(x, alg.pres.order)
        x = alg.nf(x)           # reduced once, not in every adjoint term
        for g in range(len(alg.gens)):
            left, right = {}, {}        # u x S(v) and S(u) x v, unreduced
            for (u, v), c in alg.hopf.delta[g].terms.items():
                su = alg.antipode_word(u).terms
                sv = alg.antipode_word(v).terms
                for xw, xc in x.terms.items():
                    cx = c * xc
                    for s, cs in sv.items():
                        addto(left, u + xw + s, cx * cs)
                    for s, cs in su.items():
                        addto(right, s + xw + v, cx * cs)
            ok = (span.contains(alg.pres.nf_terms(left))
                  and span.contains(alg.pres.nf_terms(right)))
            results.append(CheckResult("normal", alg.label, ok,
                                       f"ad_{alg.gens[g]}({xt})"))
    return results


# -- morphisms ---------------------------------------------------------------------


def substitute(pres: Presentation, coeff: CycRat, factors) -> NCPoly:
    """Normal form of coeff times the product of factors in pres: the
    constant is reduced, and each factor multiplies the normal form so far
    in the quotient (product_normal_form), so no unreduced product is
    formed; coeff may come from a subfield of pres's scalars."""
    term = normal_form(pres, NCPoly.monomial(pres.gens, pres.ell, EMPTY_WORD,
                                             embed_scalar(coeff, pres.ell)))
    for f in factors:
        term = product_normal_form(pres, term, f)
    return term


def map_poly(p: NCPoly, factors, target: NamedAlgebra) -> NCPoly:
    """Normal form over target of the image of p: each word w of p maps to
    the product of factors(w), its factor images over target, and the
    images of all words are summed in one terms dict."""
    out: dict = {}
    for w, c in p.terms.items():
        for u, cu in substitute(target.pres, c, factors(w)).terms.items():
            addto(out, u, cu)
    return NCPoly(target.gens, target.ell, out)


def map_tensor(t: TensorPoly, leg_map, target: NamedAlgebra) -> TensorPoly:
    """t with each leg word mapped by leg_map (NCPoly -> normal form over
    target), a tensor normal form."""
    out: dict = {}
    for (u, v), c in t.terms.items():
        pu = leg_map(NCPoly.monomial(t.gens, t.ell, u))
        pv = leg_map(NCPoly.monomial(t.gens, t.ell, v))
        c = embed_scalar(c, target.ell)
        for wu, cu in pu.terms.items():
            ccu = c * cu
            for wv, cv in pv.terms.items():
                addto(out, (wu, wv), ccu * cv)
    return TensorPoly(target.gens, target.ell, 2, out)


def verify_hopf_morphism(source: NamedAlgebra, target: NamedAlgebra,
                         images: dict) -> list[CheckResult]:
    """images: source generator index -> NCPoly over the target.

    Checks relations map to zero and Delta/epsilon/S compatibility on
    generators.
    """
    results = []
    label = f"{source.label} -> {target.label}"
    lift = lambda p: map_poly(p, lambda w: (images[g] for g in w), target)
    for rel in source.pres.defining:
        img = lift(rel)
        results.append(CheckResult("morphism-relation", label, img.is_zero(),
                                   render_poly(rel, source.pres.order)))
    for g in range(len(source.gens)):
        gname = source.gens[g]
        lhs = target.delta(images[g])
        rhs = map_tensor(source.hopf.delta[g], lift, target)
        results.append(CheckResult("morphism-delta", label,
                                   (lhs - rhs).is_zero(), gname))
        e_lhs = target.counit(images[g])
        e_rhs = embed_scalar(source.hopf.counit[g], target.ell)
        results.append(CheckResult("morphism-counit", label,
                                   e_lhs == e_rhs, gname))
        s_lhs = target.antipode(images[g])
        s_rhs = lift(source.hopf.antipode[g])
        results.append(CheckResult("morphism-antipode", label,
                                   (s_lhs - s_rhs).is_zero(), gname))
    return results


# -- coinvariants -------------------------------------------------------------------


def coinvariants(model: FiniteModel, h_pres: Presentation) -> list[dict]:
    """Basis of {x : (pi (x) id) Delta(x) = 1 (x) x}, pi = projection onto h_pres.

    h_pres must be a quotient presentation of the model's algebra, so that
    normal forms in h_pres realize pi.
    """
    minus_one = -CycRat.one(model.alg.ell)
    cols = []
    for i in range(model.dim):
        col: dict = {}
        for (j, k), c in model.delta(i).items():
            pi_j = h_pres.nf_word_terms(model.basis[j])
            for hw, hc in pi_j.items():
                addto(col, (hw, model.basis[k]), c * hc)
        addto(col, (EMPTY_WORD, model.basis[i]), minus_one)
        cols.append(col)
    return kernel_of_columns(cols, model.alg.ell)
