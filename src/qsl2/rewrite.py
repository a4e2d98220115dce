"""Confluent rewriting modulo oriented relations in the free algebra.

A Presentation owns an interreduced, completed rule set.  Rules always
rewrite a word to a polynomial that is strictly smaller under the
presentation's monomial order, so rewriting terminates unconditionally;
overlap completion (diamond lemma) then makes normal forms unique for every
word, or up to the bound where completion was cut.  Irreducible words of
length n are the dimension-n basis of the quotient wherever normal forms
are unique, and the irreducible language is closed under subwords, which
makes an empty length conclusive for finite dimensionality.

Presentation and the completer share one reduction engine, Reducer:

* Redex search runs an Aho-Corasick automaton over the left-hand sides
  (Aho & Corasick 1975), compiled to a full transition table, one row per
  state and one entry per generator: one table step per letter, never a
  restart.  Every rule set is factor-free (no lhs is empty or a factor of
  another), as a reduced one is (Bergman 1978); the build refuses any
  other.  The first lhs to end in the scan is then the leftmost redex,
  and the only lhs there.  Completion updates the automaton in place as
  rules come and go (Meyer 1985): a new lhs is inserted into the table
  and a retired one loses its outputs, so one full build serves a whole
  completion.  Basis enumeration walks the same table.
* Normal forms are computed merged and largest-first, as in Buchberger's
  and Mora's reductions: pending terms live in a coefficient map, and the
  largest pending word under the monomial order is always expanded next.
  Every rewrite produces strictly smaller words, so each word taken from
  the map is rewritten once, with the sum of the coefficients of all paths
  that reach it.  A rule with a one-term rhs (a unit times a word, as in
  the q-commutations) is followed on the word itself, without the map.
* A critical pair, the two rewrites of one overlap word, is reduced as one
  polynomial, as Buchberger reduces an S-polynomial: both sides go into
  one pending map, and a word they both reach cancels there.  Normal forms
  rewrite every word at its leftmost redex, so they are one linear map and
  the difference is the same as that of the two normal forms.
* Normal forms of single words are cached.  Any change to the rules drops
  the cache.
* A product with one is the other factor, and CycRat.__mul__ returns it
  with no work; everywhere else in the workbench just multiplies.  The
  engine loops (_reduce, nf_terms, product_normal_form,
  tensor_normal_form, and TensorPoly.expand_leg) alone test a coefficient
  against the field's interned one inline and take the other factor
  without the call: an irreducible word's normal form has coefficient
  one, and these loops make most products with one (about 57k of 66k in
  a verify pass).
* product_normal_form multiplies in the quotient without forming the
  product: each pair of terms (s, c), (t, d) adds c*d times the cached
  normal form of the word s t.  On 2-leg tensors each leg's word is
  reduced alone, and a pair is dropped once one leg's normal form is zero.
  The normal form is one linear map, leftmost rewriting on bounded and
  complete rule sets alike, so these sums equal the normal form of the
  product.

Overlaps are found through an index, never by testing every pair of rules:
each proper prefix of a left-hand side maps to the left-hand sides that
start with it, and completion also keeps the mirror index of proper
suffixes.  The overlaps of an lhs l1 with the others are then read off in
one lookup per proper suffix of l1, in time proportional to its length and
not to the number of rules, as in Buchberger-Mora completion (Mora 1994).
Completion schedules the overlaps of each new rule this way, and resumes
from a bounded base by scheduling only its overlaps past the base's bound;
check_confluence finds those within its length limit and reduces them all.

Completion skips, without reducing it, every overlap whose word has an lhs
strictly inside it (the noncommutative chain criterion of Buchberger's
algorithm: Gebauer & Moeller 1988, Mora 1994).  Such an ambiguity splits
into two lighter ones that completion has already resolved; _Completer
gives the condition and its proof.  The rules are unchanged, since a
reduced Groebner basis is unique for its ideal and order.

Completion takes overlaps lightest first, by the weight of the overlap
word under the monomial order and then by its length: a coarse form of
the normal selection strategy, which takes the critical pair whose overlap
word is least in the term order (Giovini, Mora, Niesi, Robbiano &
Traverso 1991).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import product

from .cyclo import CycRat, parse_scalar
from .errors import CompletionFailure, NotFiniteDimensional
from .exactla import addto, addto_all
from .ncalg import (EMPTY_WORD, MonomialOrder, NCPoly, TensorPoly, parse_poly,
                    render_poly, _render_word_named)

# the PBW base algebras have an infinite Groebner basis: bound their completion
DEFAULT_COMPLETION_BOUND = 8
DEFAULT_PROBE_BOUND = 10
DEFAULT_MAX_RULES = 30000


class Reducer:
    """A rule set with its redex index and normal-form cache.

    Rules map an lhs word to rhs terms that are strictly smaller under the
    order.  find_redex scans a word through an Aho-Corasick automaton over
    the left-hand sides, built on first use; nf_word_terms reduces one word
    merged and largest-first (see _reduce).

    The rule set must be factor-free: no lhs is empty or a factor of
    another.  The automaton build checks it and raises ValueError, naming
    the offending left-hand sides, on a set that is not.  Completion keeps
    its set so: _add_rule retires every lhs that contains the new one, and
    a new lhs is irreducible, so it contains no old one.

    The cache maps a word to its normal form under the current rules; a
    rule change drops it.
    """

    def __init__(self, order: MonomialOrder, ell: int, rules: dict):
        self.order = order
        self.ell = ell              # conductor of the scalar field
        self.rules = rules          # lhs word -> rhs terms dict
        self.collapsed = False
        self.cache: dict = {}       # word -> normal-form terms
        self._one = CycRat.one(ell)
        self._key = order.descending_key
        self._automaton = None      # built by the next find_redex

    # -- redex automaton --------------------------------------------------------

    keeps_trie = False              # whether builds keep the trie (completion)

    def _build_automaton(self):
        """(delta, out) over the current left-hand sides, built on first use
        after a rule change; ValueError, naming the offending left-hand
        sides, when the set is not factor-free.

        delta[s][g] is the state after reading letter g in state s, state 0
        being the empty string; out[s] is the lhs that is a suffix of the
        string of s, or None; after a full build, the lhs that s spells.

        A class that keeps_trie also keeps the trie it is built from, as
        (kids, depth, fail, tree): the trie children, the string length of
        each state, its failure link (the state of the longest proper suffix
        in the trie) and the states whose failure link it is.  Completion
        inserts into them."""
        if EMPTY_WORD in self.rules:
            raise ValueError("the empty word is a left-hand side: "
                             "the rule set is not factor-free")
        kids = [{}]                 # the trie: letter -> child, per state
        out = [None]                # the lhs each trie state spells, if any
        depth = [0]
        for lhs in self.rules:
            s = 0
            for g in lhs:
                t = kids[s].get(g)
                if t is None:
                    t = kids[s][g] = len(kids)
                    kids.append({})
                    out.append(None)
                    depth.append(depth[s] + 1)
                s = t
            out[s] = lhs
        # breadth first, so the row of each failure state is complete before
        # it is copied
        delta = [None] * len(kids)
        fail = [0] * len(kids)
        tree = [[] for _ in kids]
        factor_free = True
        delta[0] = [0] * self.order.ngens
        queue = [0]
        for s in queue:
            back = delta[fail[s]]       # the root's own all-zero row at first
            row = delta[s] = back[:]
            if out[s] is not None and kids[s]:
                factor_free = False         # the lhs of s is a proper prefix
            for g, t in kids[s].items():
                row[g] = t
                queue.append(t)
                f = fail[t] = back[g]
                tree[f].append(t)
                if out[f] is not None:
                    # an lhs ends strictly inside t's prefix of another lhs
                    factor_free = False
        if not factor_free:
            lhs, other = _factor_pair(self.rules)
            raise ValueError(f"left-hand side {lhs} occurs in left-hand side "
                             f"{other}: the rule set is not factor-free")
        self._automaton = delta, out
        if self.keeps_trie:
            self._trie = kids, depth, fail, tree
        return self._automaton

    def find_redex(self, word):
        """(position, length, lhs) of the leftmost redex; None when
        irreducible.

        One automaton transition per letter, and the first lhs to end is
        the answer: in a factor-free set an lhs starting further left would
        end later and contain it, and no other lhs ends or starts where it
        does."""
        delta, out = self._automaton or self._build_automaton()
        s = 0
        for j, g in enumerate(word):
            s = delta[s][g]
            lhs = out[s]
            if lhs is not None:
                return j + 1 - len(lhs), len(lhs), lhs
        return None

    # -- normal forms ------------------------------------------------------------

    def nf_word_terms(self, word) -> dict:
        """Normal form of a single word, as a terms dict (cached)."""
        if self.collapsed:
            return {}
        out = self.cache.get(word)
        if out is None:
            # the first step is taken here, so that an irreducible word (a
            # third of the misses of a grid pass) costs one scan and no heap
            redex = self.find_redex(word)
            if redex is None:
                out = {word: self._one}
            else:
                i, L, lhs = redex
                out = self._reduce({word[:i] + t + word[i + L:]: ct
                                    for t, ct in self.rules[lhs].items()})
            self.cache[word] = out
        return out

    def _reduce(self, pending: dict) -> dict:
        """Reduce pending terms, always expanding the largest pending word.

        Each word is rewritten at its leftmost redex.  A redex whose rhs is
        one term (a unit times a word, as in a q-commutation) is followed on
        the word itself: the popped word and its coefficient are rewritten in
        place until the word is pending (its coefficient merges there),
        cached, irreducible, or has a redex of another number of terms,
        which is expanded into pending.  Rewriting only produces smaller
        words, so a popped word never comes back and is expanded once, with
        the coefficients of all paths that reach it merged; a word passed
        through inside such a chain is not merged with other paths to it.
        The result is the same linear expansion either way.

        pending is consumed: its words are popped as they are expanded."""
        cache, rules, one = self.cache, self.rules, self._one
        key, find = self._key, self.find_redex
        heap = [(key(w), w) for w in pending]
        heapq.heapify(heap)
        out: dict = {}
        while heap:
            w = heapq.heappop(heap)[1]
            c = pending.pop(w)
            if c.is_zero():
                continue
            while True:
                known = cache.get(w)
                if known is not None:
                    if c is one:
                        addto_all(out, known, known.values())
                    else:
                        for u, cu in known.items():
                            addto(out, u, c if cu is one else cu * c)
                    break
                redex = find(w)
                if redex is None:
                    addto(out, w, c)
                    break
                i, L, lhs = redex
                rhs = rules[lhs]
                if len(rhs) == 1:
                    (t, ct), = rhs.items()
                    w = w[:i] + t + w[i + L:]
                    if ct is not one:
                        c = ct if c is one else ct * c
                    acc = pending.get(w)
                    if acc is None:
                        continue
                    pending[w] = acc + c
                    break
                prefix, suffix = w[:i], w[i + L:]
                for t, ct in rhs.items():
                    if c is not one:
                        ct = c if ct is one else ct * c
                    u = prefix + t + suffix
                    acc = pending.get(u)
                    if acc is None:
                        pending[u] = ct
                        heapq.heappush(heap, (key(u), u))
                    else:
                        pending[u] = acc + ct
                break
        return out

    def nf_terms(self, terms: dict) -> dict:
        out: dict = {}
        one = self._one
        for w, c in terms.items():
            for u, cu in self.nf_word_terms(w).items():
                addto(out, u, c if cu is one else cu if c is one else cu * c)
        return out

    def overlap_difference(self, l1, l2, k) -> dict:
        """Critical pair nf(rhs(l1) * suffix - prefix * rhs(l2)) of the
        overlap prefix + l2 = l1 + suffix, where the last k letters of l1
        are the first k of l2; empty when the ambiguity resolves.

        Both sides go into one pending map and are reduced in one merged
        pass, as Buchberger and Mora reduce an S-polynomial.  Every word is
        rewritten at its leftmost redex, so the normal form is one fixed
        linear map, on bounded and complete rule sets alike, and this equals
        nf(rhs(l1) * suffix) - nf(prefix * rhs(l2)).  A word that both sides
        reach cancels when they first meet there, so an overlap that
        resolves stops early."""
        if self.collapsed:
            return {}
        prefix, suffix = l1[:-k], l2[k:]
        pending = {t + suffix: c for t, c in self.rules[l1].items()}
        for t, c in self.rules[l2].items():
            addto(pending, prefix + t, -c)
        return self._reduce(pending)


class Presentation(Reducer):
    """Generators, monomial order, and a completed oriented rule set."""

    def __init__(self, gens, order: MonomialOrder, ell: int, rules: dict,
                 defining, parity: str, q: CycRat | None,
                 completion_bound: int | None, collapsed: bool, label=""):
        super().__init__(order, ell, rules)
        self.gens = tuple(gens)
        self.q = q                  # distinguished root of unity, if any
        self.parity = parity
        self.defining = list(defining)
        self.completion_bound = completion_bound    # None when complete
        self.collapsed = collapsed
        self.label = label

    @property
    def confluence(self) -> str:
        """"complete", or "bounded(N)": overlaps resolve up to length N."""
        bound = self.completion_bound
        return "complete" if bound is None else f"bounded({bound})"

    # -- vocabulary ----------------------------------------------------------

    def zero(self) -> NCPoly:
        return NCPoly.zero(self.gens, self.ell)

    def one(self) -> NCPoly:
        return NCPoly.one(self.gens, self.ell)

    def gen(self, name_or_index) -> NCPoly:
        idx = (name_or_index if isinstance(name_or_index, int)
               else self.gens.index(name_or_index))
        return NCPoly.generator(self.gens, self.ell, idx)

    def poly(self, text: str) -> NCPoly:
        return parse_poly(text, self.gens, self.ell)

    def scalar(self, value) -> CycRat:
        return CycRat.from_rational(self.ell, value)

    def fresh(self) -> Presentation:
        """A new instance over the same rules, defining relations, order, q
        and redex automaton, with an empty normal-form cache of its own."""
        out = Presentation(self.gens, self.order, self.ell, self.rules,
                           self.defining, self.parity, self.q,
                           self.completion_bound, self.collapsed, self.label)
        out._automaton = self._automaton
        return out

    # -- reduction ------------------------------------------------------------

    # The engine is Reducer's; binding its methods in this class body lets
    # instrumentation wrap them for presentations alone (the reducer looks
    # them up on the instance, so wrapped versions see every inner call).
    find_redex = Reducer.find_redex
    nf_word_terms = Reducer.nf_word_terms
    nf_terms = Reducer.nf_terms

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "generators": list(self.gens),
            "order": self.order.to_json(),
            "ell": self.ell,
            "q": self.q.render() if self.q is not None else None,
            "parity": self.parity,
            "label": self.label,
            "confluence": self.confluence,
            "collapsed": self.collapsed,
            "rules": [
                {"lhs": _render_word_named(self.gens, lhs) or "1",
                 "rhs": render_poly(NCPoly(self.gens, self.ell,
                                           dict(self.rules[lhs])),
                                    self.order)}
                for lhs in sorted(self.rules, key=self.order.key)
            ],
            "defining": [render_poly(p, self.order) for p in self.defining],
        }


def presentation_from_json(doc: dict) -> Presentation:
    """Rebuild a presentation from its to_json document (relations are
    re-oriented and re-completed as its confluence field records)."""
    gens = tuple(doc["generators"])
    order_doc = doc.get("order", {})
    order = MonomialOrder(len(gens),
                          precedence=order_doc.get("precedence"),
                          weights=order_doc.get("weights"))
    ell = doc["ell"]
    q = parse_scalar(ell, doc["q"]) if doc.get("q") else None
    relations = [parse_poly(text, gens, ell) for text in doc["defining"]]
    # documents older than the confluence field record completion_bound
    bound = doc.get("completion_bound", DEFAULT_COMPLETION_BOUND)
    confluence = doc.get("confluence", f"bounded({bound})")
    bound = (None if confluence == "complete" else
             int(confluence.removeprefix("bounded(").removesuffix(")")))
    return build_presentation(gens, order, relations, ell, q,
                              doc.get("parity", "generic"), bound,
                              label=doc.get("label", ""))


def normal_form(pres: Presentation, p):
    """Normal form of an NCPoly, or legwise normal form of a TensorPoly."""
    if isinstance(p, TensorPoly):
        return tensor_normal_form(pres, p)
    if pres.collapsed:
        return pres.zero()
    return NCPoly(pres.gens, pres.ell, pres.nf_terms(p.terms))


def tensor_normal_form(pres: Presentation, t: TensorPoly) -> TensorPoly:
    """Legwise normal form: each term multiplies out over the normal forms
    of its legs once, its keys the product of their words and its
    coefficients the matching products, for any number of legs; the
    products of all terms are added in one accumulation."""
    if pres.collapsed:
        return TensorPoly.zero(pres.gens, pres.ell, t.legs)
    keys, coeffs = [], []
    one = pres._one
    for key, c in t.terms.items():
        parts = [pres.nf_word_terms(w) for w in key]
        keys += product(*parts)
        term_coeffs = [c]
        for part in parts:
            term_coeffs = [c0 if cu is one else cu if c0 is one else c0 * cu
                           for c0 in term_coeffs for cu in part.values()]
        coeffs += term_coeffs
    out: dict = {}
    addto_all(out, keys, coeffs)
    return TensorPoly(pres.gens, pres.ell, t.legs, out)


def product_normal_form(pres: Presentation, x, y):
    """Normal form of x * y for two NCPolys or two 2-leg TensorPolys, with
    the product never formed: each pair of terms adds its coefficients'
    product times the cached normal form of its concatenated words (one
    normal form per leg, the second leg not reduced when the first is
    zero).  Exact because normal forms are one linear map (see _reduce)."""
    x._check(y)
    out: dict = {}
    nf, one = pres.nf_word_terms, pres._one
    if isinstance(x, NCPoly):
        for s, c in x.terms.items():
            for t, d in y.terms.items():
                cd = c if d is one else d if c is one else c * d
                for u, cu in nf(s + t).items():
                    addto(out, u, cd if cu is one else cu if cd is one
                          else cu * cd)
        return NCPoly(pres.gens, pres.ell, out)
    for (s1, s2), c in x.terms.items():
        for (t1, t2), d in y.terms.items():
            left = nf(s1 + t1)
            if not left:
                continue
            right = nf(s2 + t2)
            if not right:
                continue
            cd = c if d is one else d if c is one else c * d
            for u1, c1 in left.items():
                if cd is not one:
                    c1 = cd if c1 is one else c1 * cd
                for u2, c2 in right.items():
                    addto(out, (u1, u2), c1 if c2 is one else c2 if c1 is one
                          else c1 * c2)
    return TensorPoly(pres.gens, pres.ell, 2, out)


# -- completion ----------------------------------------------------------------


class _Completer(Reducer):
    """Overlap completion over an evolving, interreduced rule set; overlaps
    longer than the bound (if any) are cut and their lhs pairs kept in cut.
    Processed overlaps stay resolved, so the result is complete when no cut
    pair survives, or when the cut overlaps of those that do resolve under
    the final rules (build_presentation reduces them once): no confluence
    pass is needed.

    The agenda pops overlaps lightest first: by weight under the order,
    then by length, and the agenda counter breaks ties between overlaps of
    one weight and one length.  Cuts stay by length.

    An overlap w = l1 + l2[k:] popped with both rules current is skipped,
    and counted in skipped, when some current lhs l3 occurs strictly inside
    w: starting after position 0 and ending before the last letter, so that
    it is neither the l1 prefix nor the l2 suffix.  It resolves relative to
    the order (Bergman's diamond lemma), and that is all completion needs of
    it:

    * The rule set is factor-free, so l3 lies inside neither l1 nor l2.
      Hence l3 starts inside l1 and ends inside l2, and w = u l3 v with u, v
      nonempty, where (l1, l3) overlap in the proper prefix u l3 of w and
      (l3, l2) in the proper suffix l3 v.
    * With r(x) the rhs of x, the ambiguity of w splits as
      r(l1) s - p r(l2) = (r(l1) s' - u r(l3)) v + u (r(l3) v' - p' r(l2))
      for w = l1 s = p l2, l1 s' = u l3 and l3 v' = p' l2: the ambiguity of
      u l3 times v, plus u times that of l3 v.
    * Both overlap words are proper factors of w, so they are strictly
      lighter, since every letter weighs at least 1 (MonomialOrder refuses
      less).  Each pair was scheduled when the later of its rules was added
      (or, over a base, resolves already), and its rules have stayed
      current since, as a retired lhs never returns.  The agenda pops by
      weight, so both were popped before w, and they resolve relative to
      the order: reduced to zero, oriented into a rule, or skipped by this
      same criterion, by induction on weight.  Later rule changes keep them
      so: a retired rule re-enters as an equation that reduces below its
      lhs.
    * A monomial order is compatible with concatenation, so the two pieces
      times u and v stay below u l3 v = w, and w resolves relative to the
      order too.

    Only overlaps popped within the bound are skipped; one past it is still
    cut when scheduled, so the confluence certificate is unchanged.

    A new rule's overlaps come from the index, not from a scan of the rules:
    a proper suffix of lead that starts another lhs (in starts) gives an
    overlap (lead, other), and a proper prefix of lead that ends one (in
    ends) gives (other, lead).  They are pushed in the order a scan of the
    rules would push them: by rule, (lead, other) before (other, lead), k
    ascending.  The agenda counter, which breaks ties between overlaps of
    one weight and one length, then takes the same values, and the rules,
    retirements, skips and cuts are those of the scan, bounded completions
    included.
    """

    keeps_trie = True

    def __init__(self, gens, order, ell, bound, max_rules):
        super().__init__(order, ell, {})
        self._trie = None           # built with the automaton
        self.gens = gens
        self.bound = bound
        self.max_rules = max_rules
        self.agenda: list = []
        self.counter = 0
        self.eqs = deque()
        self.retired = 0            # rules retired so far
        self.skipped = 0            # overlaps skipped by the chain criterion
        self.last_overlap = None    # (word, lhs1, lhs2) processed last
        self.cut: set = set()       # (lhs1, lhs2) with an overlap past bound
        # each proper prefix (starts) and proper suffix (ends) of a current
        # lhs -> {lhs: rank}; ranks count the rules in the order they came
        self.starts: dict = {}
        self.ends: dict = {}
        self.rank = 0

    def run(self, relations):
        for rel in relations:
            self.eqs.append(dict(rel))
        self._drain_eqs()
        while self.agenda and not self.collapsed:
            _, _, _, w, l1, l2, k = heapq.heappop(self.agenda)
            if l1 not in self.rules or l2 not in self.rules:
                continue
            if self._covered(w):
                self.skipped += 1
                continue
            self.last_overlap = (w, l1, l2)
            diff = self.overlap_difference(l1, l2, k)
            if diff:
                self._orient(diff)  # already a normal form
            self._drain_eqs()

    def _covered(self, w) -> bool:
        """Whether an lhs occurs strictly inside w, read in one automaton
        pass: in a factor-free set out[s] is the only lhs ending there."""
        delta, out = self._automaton or self._build_automaton()
        s = 0
        for j in range(len(w) - 1):
            s = delta[s][w[j]]
            lhs = out[s]
            if lhs is not None and len(lhs) <= j:
                return True
        return False

    def _drain_eqs(self):
        while self.eqs and not self.collapsed:
            terms = self.nf_terms(self.eqs.popleft())
            if terms:
                self._orient(terms)

    def _orient(self, terms: dict):
        """Make a rule of nonzero terms that are a normal form under the
        current rules, or collapse on a scalar.  Their leading word is then
        irreducible, which keeps the rule set factor-free and lets
        _add_rule insert it into the automaton in place."""
        if len(terms) == 1 and EMPTY_WORD in terms:
            # the ideal contains a nonzero scalar: the quotient is zero
            self.collapsed = True
            self.rules = {}
            self.cache = {}
            self._automaton = self._trie = None
            self.starts, self.ends = {}, {}
            return
        lead = max(terms, key=self.order.key)
        c = terms[lead]
        neg_inv = -c.inverse()
        rhs = {w: x * neg_inv for w, x in terms.items() if w != lead}
        self._add_rule(lead, rhs)

    def _add_rule(self, lead, rhs):
        if len(self.rules) >= self.max_rules:
            raise self._cap_failure()
        # lead is irreducible (see _orient), so a built table is updated in
        # place
        in_place = self._automaton is not None
        # retire rules whose lhs contains the new lhs; their content re-enters
        # the equation queue and gets re-oriented against the tighter system
        doomed = [L for L in self.rules
                  if len(L) >= len(lead) and _contains(L, lead)]
        for L in doomed:
            self._unindex(L)
            if in_place:
                self._retire_lhs(L)
            eq = {L: self._one}
            for w, x in self.rules.pop(L).items():
                addto(eq, w, -x)
            self.eqs.append(eq)
        self.rules[lead] = rhs
        self._index(lead)
        self.cache = {}
        if in_place:
            self._insert_lhs(lead)
        self.retired += len(doomed)
        self._schedule_rule(lead)

    # -- the automaton, updated in place ------------------------------------------
    #
    # Insertion into an Aho-Corasick automaton (Meyer 1985), specialised to
    # a factor-free set.  The trie may hold dead states, the prefixes of
    # retired left-hand sides, until the next full build; delta and the
    # failure links range over all of its states, and out marks the current
    # left-hand sides, so find_redex and _covered read the table unchanged.

    def _failure_subtree(self, s) -> list:
        """s and every state whose failure chain passes through s: the
        states whose string ends with the string of s."""
        tree = self._trie[3]
        states = [s]
        for x in states:
            states.extend(tree[x])
        return states

    def _retire_lhs(self, lhs):
        out, kids = self._automaton[1], self._trie[0]
        s = 0
        for g in lhs:
            s = kids[s][g]
        for x in self._failure_subtree(s):
            out[x] = None

    def _insert_lhs(self, lhs):
        """Add lhs to the table: walk it down the trie to the deepest state
        there, then create the missing states one letter at a time.  S holds
        the states whose string ends with the prefix read so far."""
        delta, out = self._automaton
        kids, depth, fail, tree = self._trie
        prev, m = 0, 0
        while m < len(lhs) and lhs[m] in kids[prev]:
            prev = kids[prev][lhs[m]]
            m += 1
        S = self._failure_subtree(prev)
        for k in range(m, len(lhs)):
            g, n, d = lhs[k], len(delta), k + 1
            # n spells lhs[:d], now the longest suffix in the trie of x + g
            # for every x in S that had a shorter one
            for x in S:
                if depth[delta[x][g]] < d:
                    delta[x][g] = n
            f = delta[fail[prev]][g] if k else 0
            delta.append(delta[f][:])
            out.append(None)
            kids.append({})
            depth.append(d)
            fail.append(f)
            tree[f].append(n)
            tree.append([])
            # the children of S on g end with lhs[:d]: they are the next S,
            # and n is their longest proper suffix unless they had a longer
            nxt = [n]
            for x in S:
                y = kids[x].get(g)
                if y is not None:
                    nxt.append(y)
                    if depth[fail[y]] < d:
                        tree[fail[y]].remove(y)
                        fail[y] = n
                        tree[n].append(y)
            kids[prev][g] = n
            S, prev = nxt, n
        for x in S:
            out[x] = lhs

    def _index(self, lhs):
        self.rank += 1
        for k in range(1, len(lhs)):
            self.starts.setdefault(lhs[:k], {})[lhs] = self.rank
            self.ends.setdefault(lhs[-k:], {})[lhs] = self.rank

    def _unindex(self, lhs):
        for k in range(1, len(lhs)):
            del self.starts[lhs[:k]][lhs]
            del self.ends[lhs[-k:]][lhs]

    def _schedule_rule(self, lead):
        """Schedule the overlaps of a new rule with every current rule,
        itself included, in the order the class docstring gives."""
        found = [(r, 0, k, lead, other)
                 for r, k, other in _overlaps_of(lead, self.starts)]
        found += [(r, 1, k, other, lead) for k in range(1, len(lead))
                  for other, r in self.ends.get(lead[:k], {}).items()
                  if other != lead]
        found.sort()
        for _, _, k, l1, l2 in found:
            self._push(l1, l2, k)

    def resume(self, base: Presentation):
        """Start from the rules of base.  Their overlaps up to its bound
        resolve already, so only the longer ones are scheduled."""
        self.rules, self.collapsed = dict(base.rules), base.collapsed
        for lhs in self.rules:
            self._index(lhs)
        if base.completion_bound is not None:
            self._schedule_base(base.completion_bound)

    def _schedule_base(self, resolved):
        for l1 in self.rules:
            for _, k, l2 in sorted(_overlaps_of(l1, self.starts)):
                self._push(l1, l2, k, resolved)

    def _cap_failure(self) -> CompletionFailure:
        name = lambda w: _word_name(self.gens, w)
        if self.last_overlap is None:
            last = "none (still orienting the relations)"
        else:
            w, l1, l2 = self.last_overlap
            last = f"{name(w)} of {name(l1)} and {name(l2)}"
        return CompletionFailure(
            f"rule cap {self.max_rules} reached at completion bound "
            f"{self.bound}: {len(self.rules)} rules, {len(self.agenda)} "
            f"overlaps on the agenda, last overlap processed {last}",
            bound=self.bound, rules=len(self.rules), agenda=len(self.agenda),
            last_overlap=self.last_overlap)

    def _push(self, l1, l2, k, resolved=0):
        """Schedule the overlap l1 + l2[k:] unless it is at most resolved
        long, which is known to resolve, or past the bound, which is cut."""
        n = len(l1) + len(l2) - k
        if n <= resolved:
            return
        if self.bound is not None and n > self.bound:
            self.cut.add((l1, l2))
            return
        self.counter += 1
        w = l1 + l2[k:]
        heapq.heappush(self.agenda,
                       (self.order.key(w)[0], n, self.counter, w, l1, l2, k))


def _overlaps_of(l1, starts, max_len=None) -> list:
    """(rank, k, l2) for each overlap of l1 with an lhs l2 of the prefix
    index starts (proper prefix -> {lhs: rank}): the last k letters of l1
    are the first k of l2, and the overlap word l1 + l2[k:] is at most
    max_len long.  Sorted, they come in the order of a scan of the lhss by
    rank with k ascending."""
    found = []
    for k in range(1, len(l1)):
        for l2, r in starts.get(l1[-k:], {}).items():
            if max_len is None or len(l1) + len(l2) - k <= max_len:
                found.append((r, k, l2))
    return found


def _word_name(gens, word) -> str:
    return _render_word_named(gens, word) or "1"


def _factor_pair(lhss):
    """The first (lhs, other) of lhss, scanned pairwise, with lhs a factor
    of other."""
    return next((lhs, other) for lhs in lhss for other in lhss
                if lhs != other and _contains(other, lhs))


def _contains(haystack, needle) -> bool:
    n, m = len(haystack), len(needle)
    if m > n:
        return False
    first = needle[0]
    for i in range(n - m + 1):
        if haystack[i] == first and haystack[i:i + m] == needle:
            return True
    return False


def build_presentation(gens, order, relations, ell, q=None, parity="generic",
                       complete_to=DEFAULT_COMPLETION_BOUND,
                       max_rules=DEFAULT_MAX_RULES, label="",
                       base: Presentation | None = None) -> Presentation:
    """Orient relations, interreduce, and complete overlaps up to the bound
    complete_to, or until none is left when it is None; over a base, from its
    rules, skipping their overlaps up to its bound, which resolve already.

    The result is complete, not bounded, when every overlap that was cut
    resolves under the final rules: all shorter ones resolve already, so
    the diamond lemma applies to the whole rule set."""
    comp = _Completer(tuple(gens), order, ell, complete_to, max_rules)
    if base is not None:
        comp.resume(base)
    comp.run([dict(r.terms) for r in relations])
    defining = (base.defining if base is not None else []) + list(relations)
    rules = {}
    if not comp.collapsed:
        # canonicalize right-hand sides against the final rule set
        for lhs in sorted(comp.rules, key=order.key):
            rules[lhs] = comp.nf_terms(comp.rules[lhs])
    cut = sorted((l1, l2) for l1, l2 in comp.cut
                 if l1 in rules and l2 in rules)
    pres = Presentation(gens, order, ell, rules, defining, parity, q,
                        None, comp.collapsed, label)
    # the automaton build refuses final rules where some lhs is a factor of
    # another; only then are the pairs scanned, to name one
    try:
        pres._build_automaton()
    except ValueError:
        lhs, other = _factor_pair(rules)
        raise CompletionFailure(
            f"interreduction invariant broken at completion bound "
            f"{complete_to}: left-hand side {_word_name(gens, lhs)} "
            f"occurs in left-hand side {_word_name(gens, other)}, "
            f"{len(rules)} rules",
            bound=complete_to, rules=len(rules), lhs=lhs,
            occurs_in=other) from None
    if not _overlaps_past_resolve(pres, cut, complete_to):
        pres.completion_bound = complete_to
    return pres


def _overlaps_past_resolve(pres: Presentation, pairs, bound) -> bool:
    """Whether every overlap of the lhs pairs (l1, l2) longer than bound
    resolves under the rules of pres; stops at the first that does not."""
    for l1, l2 in pairs:
        for k in range(1, min(len(l1), len(l2))):
            if (l1[-k:] == l2[:k] and len(l1) + len(l2) - k > bound
                    and pres.overlap_difference(l1, l2, k)):
                return False
    return True


def quotient_presentation(pres: Presentation, extra_relations, complete_to=None,
                          label="") -> Presentation:
    """Quotient by a two-sided ideal, recompleted from the rules of pres until
    no overlap is left unless complete_to bounds it; with no finite completion
    (pres itself, say) that stops at the rule cap with CompletionFailure."""
    rels = [p for p in (normal_form(pres, r) for r in extra_relations)
            if not p.is_zero()]
    return build_presentation(pres.gens, pres.order, rels, pres.ell, pres.q,
                              pres.parity, complete_to,
                              label=label or pres.label, base=pres)


# -- confluence --------------------------------------------------------------


@dataclass
class OverlapReport:
    word: tuple
    lhs1: tuple
    lhs2: tuple
    difference: NCPoly


def check_confluence(pres: Presentation, max_len: int) -> list[OverlapReport]:
    """All unresolved overlap ambiguities with overlap word length <= max_len,
    in the order of a scan of all pairs (l1, l2) of rules with k ascending.

    Overlaps are found through an index of the proper prefixes of the
    left-hand sides, and every one found is reduced: none is skipped.  A
    rule set that is not factor-free is refused first, with the automaton
    build's ValueError, as every redex scan refuses it."""
    if pres._automaton is None:
        pres._build_automaton()
    starts: dict = {}
    for rank, lhs in enumerate(pres.rules):
        for k in range(1, len(lhs)):
            starts.setdefault(lhs[:k], {})[lhs] = rank
    unresolved = []
    for l1 in pres.rules:
        for _, k, l2 in sorted(_overlaps_of(l1, starts, max_len)):
            diff = pres.overlap_difference(l1, l2, k)
            if diff:
                unresolved.append(OverlapReport(
                    l1 + l2[k:], l1, l2, NCPoly(pres.gens, pres.ell, diff)))
    return unresolved


# -- basis enumeration and dimension ------------------------------------------


def enumerate_basis(pres: Presentation, max_len: int) -> list[list[tuple]]:
    """Irreducible words grouped by length, lengths 0..max_len."""
    if pres.collapsed:
        return [[] for _ in range(max_len + 1)]
    delta, out = pres._automaton or pres._build_automaton()
    # each irreducible word with its automaton state: w + g is reducible iff
    # an lhs is a suffix of it, i.e. iff the state after g has an output
    levels = [[EMPTY_WORD]]
    states = [0]
    for _ in range(max_len):
        nxt, nxt_states = [], []
        for w, s in zip(levels[-1], states):
            for g, t in enumerate(delta[s]):
                if out[t] is None:
                    nxt.append(w + (g,))
                    nxt_states.append(t)
        levels.append(nxt)
        states = nxt_states
    return levels


def _basis_levels(pres: Presentation, probe_bound: int) -> list[list[tuple]]:
    """Irreducible words by length as far as they are a certified basis: all
    if complete and finitely many, else up to the probe and the bound."""
    if pres.completion_bound is not None:
        return enumerate_basis(pres, min(probe_bound, pres.completion_bound))
    # the states of irreducible words die out within as many lengths as
    # there are states, unless a cycle among them pumps words without end
    delta, out = pres._automaton or pres._build_automaton()
    level = {0}
    for n in range(len(delta)):
        level = {t for s in level for t in delta[s] if out[t] is None}
        if not level:
            return enumerate_basis(pres, n + 1)
    return enumerate_basis(pres, probe_bound)


@dataclass
class DimensionResult:
    finite: bool
    value: int                  # total dimension, or count seen up to the probe
    counts: list[int] = field(default_factory=list)

    def __repr__(self):
        kind = "Finite" if self.finite else "InfiniteAtLeast"
        return f"{kind}({self.value})"


def dimension(pres: Presentation,
              probe_bound: int = DEFAULT_PROBE_BOUND) -> DimensionResult:
    """Count irreducible words by length until a length is empty (then
    conclusive), over the lengths _basis_levels certifies."""
    counts = []
    for level in _basis_levels(pres, probe_bound):
        counts.append(len(level))
        if not level:
            return DimensionResult(True, sum(counts), counts)
    return DimensionResult(False, sum(counts), counts)


def basis_words(pres: Presentation) -> list[tuple]:
    """Sorted basis of a finite-dimensional quotient."""
    levels = _basis_levels(pres, DEFAULT_PROBE_BOUND)
    if levels[-1]:
        raise NotFiniteDimensional(
            f"{pres.label}: no empty length up to {len(levels) - 1}")
    return sorted((w for level in levels for w in level), key=pres.order.key)
