import heapq
import itertools
import random

import pytest
from hypothesis import (HealthCheck, assume, example, find, given, settings,
                        strategies as st)

from qsl2 import rewrite
from qsl2.cyclo import CycRat
from qsl2.errors import CompletionFailure
from qsl2.exactla import addto
from qsl2.ncalg import MonomialOrder, NCPoly
from qsl2.presentations import (classical_sl2, oq_sl2, o_minus1_sl2,
                                quotient_ideal, sl2_algebra)
from qsl2.rewrite import (OverlapReport, Presentation, Reducer, _Completer,
                          build_presentation, check_confluence,
                          dimension, enumerate_basis, normal_form,
                          quotient_presentation)


@pytest.fixture(scope="module")
def oq5():
    return oq_sl2(5)


def test_normal_form_examples(oq5):
    p = oq5.pres
    q = p.q
    # ba -> q^-1 ab
    assert normal_form(p, p.poly("b*a")) == p.poly("a*b") * q.inverse()
    # ad -> 1 + q bc
    assert normal_form(p, p.poly("a*d")) == p.poly("1") + p.poly("b*c") * q
    # da -> 1 + q^-1 bc
    assert normal_form(p, p.poly("d*a") - p.poly("1") - p.poly("b*c") * q.inverse()).is_zero()


def test_minus_one_normal_forms():
    p = o_minus1_sl2().pres
    assert normal_form(p, p.poly("a*d") - p.poly("1") + p.poly("b*c")).is_zero()
    assert normal_form(p, p.poly("d*a") - p.poly("1") + p.poly("b*c")).is_zero()


def test_confluence_shipped(oq5):
    assert check_confluence(oq5.pres, 8) == []
    assert check_confluence(o_minus1_sl2().pres, 8) == []


def test_adversarial_system_not_confluent():
    # {ab -> a, ba -> b} leaves both overlaps aba and bab unresolved
    gens = ("a", "b")
    ell = 1
    mono = lambda w: NCPoly.monomial(gens, ell, w)
    rels = [mono((0, 1)) - mono((0,)), mono((1, 0)) - mono((1,))]
    # build WITHOUT completion (bound below every overlap length)
    pres = build_presentation(gens, MonomialOrder(2), rels, ell, complete_to=2)
    reports = check_confluence(pres, 6)
    assert reports, "expected an unresolved overlap"
    assert {r.word for r in reports} == {(0, 1, 0), (1, 0, 1)}
    # completion repairs it: the resolved system identifies a and b
    completed = build_presentation(gens, MonomialOrder(2), rels, ell,
                                   complete_to=6)
    assert check_confluence(completed, 6) == []


def test_interreduced_pair_is_confluent():
    # {ba -> ab, ab -> 1} resolves both of its overlaps; normal forms are
    # the one-letter powers, as completion confirms
    gens = ("a", "b")
    ell = 1
    one = NCPoly.one(gens, ell)
    mono = lambda w: NCPoly.monomial(gens, ell, w)
    rels = [mono((1, 0)) - mono((0, 1)), mono((0, 1)) - one]
    pres = build_presentation(gens, MonomialOrder(2), rels, ell, complete_to=2)
    assert check_confluence(pres, 6) == []


def test_basis_length2(oq5):
    words = enumerate_basis(oq5.pres, 2)[2]
    names = {"".join(oq5.gens[g] for g in w) for w in words}
    assert names == {"aa", "ab", "ac", "bb", "bc", "bd", "cc", "cd", "dd"}


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_basis_counts(ell):
    counts = [len(level) for level in enumerate_basis(oq_sl2(ell).pres, 6)]
    assert counts == [(n + 1) ** 2 for n in range(7)]


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_pbw_set(ell):
    # {a^l b^m c^s} plus {b^m c^s d^t, t >= 1}, length by length
    def pbw(n):
        out = set()
        for l in range(n + 1):
            for m in range(n + 1 - l):
                out.add((0,) * l + (1,) * m + (2,) * (n - l - m))
        for t in range(1, n + 1):
            for m in range(n + 1 - t):
                out.add((1,) * m + (2,) * (n - t - m) + (3,) * t)
        return out

    levels = enumerate_basis(oq_sl2(ell).pres, 6)
    for n in range(7):
        assert set(levels[n]) == pbw(n)


def test_oq_infinite(oq5):
    res = dimension(oq5.pres, probe_bound=8)
    assert not res.finite
    assert res.value >= sum((n + 1) ** 2 for n in range(9))
    # a probe past the completion bound counts no length beyond it
    assert dimension(oq5.pres, probe_bound=12).counts == res.counts


@pytest.mark.parametrize("ell,expected", [(3, 27), (5, 125)])
def test_widehat_dimension(ell, expected):
    alg = oq_sl2(ell)
    quot = quotient_presentation(alg.pres, quotient_ideal("widehat", ell),
                                 complete_to=3 * ell, label=f"widehat-{ell}")
    res = dimension(quot, probe_bound=3 * ell)
    assert res.finite
    assert res.value == expected


@pytest.mark.parametrize("ell,expected", [(4, 16), (6, 54), (8, 128), (10, 250)])
def test_overline_dimension(ell, expected):
    alg = oq_sl2(ell)
    quot = quotient_presentation(alg.pres, quotient_ideal("overline", ell),
                                 complete_to=2 * ell + 2, label=f"overline-{ell}")
    res = dimension(quot, probe_bound=2 * ell + 2)
    assert res.finite
    assert res.value == expected


def test_widehat_dimension_larger():
    quot = quotient_presentation(oq_sl2(7).pres, quotient_ideal("widehat", 7),
                                 complete_to=23, label="widehat-7")
    res = dimension(quot, probe_bound=23)
    assert res.finite and res.value == 343


# -- the completion certificate -------------------------------------------------

# the benchmark's ladder, and one rung past it
LADDER = [("widehat", 3), ("widehat", 5), ("widehat", 7),
          ("overline", 4), ("overline", 6), ("overline", 8)]
FINITE_QUOTIENTS = LADDER + [("widehat", 9)]


@pytest.fixture(scope="module")
def finite_quotients():
    """The ladder quotients and widehat-9, completed until no overlap is
    left."""
    return {(kind, ell): quotient_presentation(
                oq_sl2(ell).pres, quotient_ideal(kind, ell),
                label=f"{kind}-{ell}")
            for kind, ell in FINITE_QUOTIENTS}


def every_overlap(pres):
    """The longest overlap two of its rules can have: 2 maxlhs - 1."""
    return 2 * max(map(len, pres.rules)) - 1


@pytest.mark.parametrize("kind,ell", FINITE_QUOTIENTS)
def test_complete_quotients_resolve_every_overlap(finite_quotients, kind, ell):
    # check_confluence reduces every overlap: it skips none
    pres = finite_quotients[kind, ell]
    assert pres.completion_bound is None and pres.confluence == "complete"
    assert check_confluence(pres, every_overlap(pres)) == []
    dim = ell ** 3 if kind == "widehat" else ell ** 3 // 4
    assert repr(dimension(pres)) == f"Finite({dim})"


def test_classical_sl2_is_complete_and_infinite():
    pres = classical_sl2().pres
    assert pres.confluence == "complete"
    assert check_confluence(pres, every_overlap(pres)) == []
    # the automaton's irreducible part has a cycle: counted up to the probe
    res = dimension(pres)
    assert not res.finite and len(res.counts) == 11
    assert repr(res) == "InfiniteAtLeast(506)"


def test_base_algebra_is_bounded_with_open_overlaps(oq5):
    assert oq5.pres.confluence == "bounded(8)"
    assert check_confluence(oq5.pres, every_overlap(oq5.pres)) != []


def test_dimension_of_a_complete_quotient_is_exact_past_the_probe(
        finite_quotients):
    # basis words of widehat-7 reach length 18, past the default probe 10
    assert repr(dimension(finite_quotients["widehat", 7])) == "Finite(343)"
    assert repr(dimension(finite_quotients["widehat", 7], 3)) == "Finite(343)"


def test_positional_copy_keeps_the_certificate(finite_quotients):
    # the copy the benchmark's fresh_presentation makes
    p = finite_quotients["overline", 4]
    copy = Presentation(p.gens, p.order, p.ell, p.rules, p.defining,
                        p.parity, p.q, p.completion_bound, p.collapsed,
                        p.label)
    assert copy.completion_bound is None and copy.confluence == "complete"
    assert repr(dimension(copy)) == "Finite(16)"


@pytest.mark.parametrize("ell", [5, 8])
def test_quotient_of_a_bounded_base_matches_completion_from_scratch(ell):
    # resumed from the bound-8 rules, only the longer overlaps are processed
    pres = quotient_presentation(oq_sl2(ell).pres, [], complete_to=10)
    assert pres.confluence == "bounded(10)"
    assert pres.rules == oq_sl2(ell, complete_to=10).pres.rules
    assert check_confluence(pres, 10) == []


def test_quotient_of_a_complete_base_matches_completion_from_scratch(
        finite_quotients):
    base = finite_quotients["widehat", 3]
    quot = quotient_presentation(base, [base.poly("b")])
    scratch = build_presentation(base.gens, base.order,
                                 base.defining + [base.poly("b")], base.ell,
                                 base.q, base.parity, None)
    assert quot.rules == scratch.rules and quot.confluence == "complete"
    assert repr(dimension(quot)) == "Finite(9)"


def test_quotient_of_a_collapsed_base_is_collapsed(oq5):
    zero = quotient_presentation(oq5.pres, [oq5.pres.one()])
    assert zero.collapsed and zero.confluence == "complete"
    quot = quotient_presentation(zero, [oq5.pres.gen("b")])
    assert quot.collapsed and repr(dimension(quot)) == "Finite(0)"


def test_random_ideal_members_reduce_to_zero():
    # soundness of completion: conjugates u g v of ideal generators stay in
    # the ideal of the completed system
    import random

    rng = random.Random(11)
    alg = oq_sl2(5)
    gens = quotient_ideal("widehat", 5)
    quot = quotient_presentation(alg.pres, gens, complete_to=16,
                                 label="widehat-5")
    letters = list(range(4))
    for _ in range(30):
        u = tuple(rng.choice(letters) for _ in range(rng.randrange(4)))
        v = tuple(rng.choice(letters) for _ in range(rng.randrange(4)))
        g = rng.choice(gens)
        x = (NCPoly.monomial(alg.pres.gens, alg.ell, u) * g
             * NCPoly.monomial(alg.pres.gens, alg.ell, v))
        assert normal_form(quot, x).is_zero()


def test_rules_order_compatible(oq5):
    # every rhs word is strictly smaller than the lhs
    order = oq5.pres.order
    for lhs, rhs in oq5.pres.rules.items():
        for w in rhs:
            assert order.key(w) < order.key(lhs)


def test_json_roundtrip_presentation(oq5, finite_quotients):
    from qsl2.rewrite import presentation_from_json

    doc = oq5.pres.to_json()
    assert doc["generators"] == ["a", "b", "c", "d"]
    assert doc["parity"] == "odd"
    assert doc["confluence"] == "bounded(8)"
    assert any(r["lhs"] == "b*a" for r in doc["rules"])
    rebuilt = presentation_from_json(doc)
    assert rebuilt.rules == oq5.pres.rules
    assert rebuilt.q == oq5.pres.q
    assert rebuilt.completion_bound == 8
    # a document older than the confluence field records completion_bound
    del doc["confluence"]
    doc["completion_bound"] = 10
    rebuilt = presentation_from_json(doc)
    assert rebuilt.rules == oq_sl2(5, complete_to=10).pres.rules
    assert rebuilt.confluence == "bounded(10)"
    quot = finite_quotients["widehat", 3]
    doc = quot.to_json()
    assert doc["confluence"] == "complete"
    rebuilt = presentation_from_json(doc)
    assert rebuilt.rules == quot.rules and rebuilt.completion_bound is None


words5 = st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(tuple)


def polys5(oq):
    scalars = st.integers(min_value=-3, max_value=3).map(
        lambda n: CycRat.from_rational(5, n))
    return st.lists(st.tuples(words5, scalars), max_size=3).map(
        lambda items: NCPoly.from_terms(("a", "b", "c", "d"), 5, items))


@pytest.fixture(scope="module")
def oq5_deep():
    # products of two degree-5 operands reach length 10, so normal forms
    # are canonical only once completion has passed that length
    return oq_sl2(5, complete_to=12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nf_idempotent_linear_multiplicative(oq5_deep, data):
    pres = oq5_deep.pres
    p = data.draw(polys5(oq5_deep))
    r = data.draw(polys5(oq5_deep))
    lam = CycRat.q_power(5, data.draw(st.integers(min_value=0, max_value=4)))
    nf = lambda x: normal_form(pres, x)
    assert nf(nf(p)) == nf(p)
    assert nf(p + r * lam) == nf(p) + nf(r) * lam
    assert nf(p * r) == nf(nf(p) * nf(r))


# -- the reduction engine ------------------------------------------------------


def brute_redex(rules, word):
    """Leftmost position, longest lhs there, by slicing every candidate."""
    lengths = sorted({len(lhs) for lhs in rules}, reverse=True)
    for i in range(len(word)):
        for L in lengths:
            if 0 < L <= len(word) - i and word[i:i + L] in rules:
                return i, L, word[i:i + L]
    return None


def reference_nf(order, rules, word, ell):
    """Normal form without any cache: rewrite the largest pending word at its
    leftmost-longest redex until every word is irreducible."""
    pending = {word: CycRat.one(ell)}
    out = {}
    while pending:
        w = max(pending, key=order.key)
        c = pending.pop(w)
        redex = brute_redex(rules, w)
        if redex is None:
            out[w] = c
            continue
        i, L, lhs = redex
        for t, ct in rules[lhs].items():
            u = w[:i] + t + w[i + L:]
            v = pending.get(u, CycRat.zero(ell)) + ct * c
            if v.is_zero():
                pending.pop(u, None)
            else:
                pending[u] = v
    return out


def two_sided_difference(reducer, l1, l2, k):
    """The critical pair of the overlap l1 + l2[k:] as two normal forms
    subtracted: nf(rhs(l1) * suffix) - nf(prefix * rhs(l2))."""
    prefix, suffix = l1[:-k], l2[k:]
    diff = reducer.nf_terms({t + suffix: c
                             for t, c in reducer.rules[l1].items()})
    for u, cu in reducer.nf_terms({prefix + t: c
                                   for t, c in reducer.rules[l2].items()}).items():
        addto(diff, u, -cu)
    return diff


class CacheFreeCompleter(_Completer):
    """Completion whose normal forms never consult or fill the cache, and
    whose critical pairs are two such normal forms subtracted, so that none
    of it runs through Reducer._reduce."""

    def nf_word_terms(self, word):
        return reference_nf(self.order, self.rules, word, self.ell)

    def overlap_difference(self, l1, l2, k):
        return two_sided_difference(self, l1, l2, k)


class NoSkipCompleter(_Completer):
    """Completion that reduces every overlap, skipping none."""

    def _covered(self, w):
        return False


def run_both(monkeypatch, build, reference):
    """Run `build` once with the completer and once with the `reference`
    completer class; return both presentations and the completers of the
    first run."""
    runs = []

    class Recording(_Completer):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(rewrite, "_Completer", Recording)
    first = build()
    monkeypatch.setattr(rewrite, "_Completer", reference)
    second = build()
    monkeypatch.undo()
    return first, second, runs


def complete_both(monkeypatch, build):
    """Run `build` once with the cached completer and once with the
    cache-free reference; return both presentations and the cached run's
    number of retired rules."""
    cached, reference, runs = run_both(monkeypatch, build, CacheFreeCompleter)
    return cached, reference, sum(run.retired for run in runs)


@pytest.mark.parametrize("kind,ell", [("widehat", 3), ("widehat", 5),
                                      ("overline", 4), ("overline", 6),
                                      ("overline", 8)])
def test_completion_cache_matches_cache_free_reference(monkeypatch, kind, ell):
    base = oq_sl2(ell).pres
    bound = 3 * ell if kind == "widehat" else 2 * ell + 2
    cached, reference, _ = complete_both(
        monkeypatch, lambda: quotient_presentation(
            base, quotient_ideal(kind, ell), complete_to=bound))
    assert cached.rules == reference.rules
    assert cached.collapsed == reference.collapsed


def small_relation_sets():
    """Two to four binomial relations in three generators over Q.

    Every rule of a binomial system is binomial again, so coefficients stay
    products of the given ones.  With three or more terms per relation,
    bounded completion can swell its coefficients without bound (their
    digit counts double rule after rule), and no completion budget exists
    yet to stop it."""
    words = st.lists(st.integers(min_value=0, max_value=2),
                     min_size=0, max_size=3).map(tuple)
    coeffs = st.sampled_from([1, -1, 2, -2])
    relation = st.lists(st.tuples(words, coeffs), min_size=1, max_size=2)
    return st.lists(relation, min_size=2, max_size=4)


def build_small(relations, complete_to=6, base=None, order=None):
    gens = ("x", "y", "z")
    polys = [NCPoly.from_terms(gens, 1, [(w, CycRat.from_rational(1, c))
                                         for w, c in rel])
             for rel in relations]
    polys = [p for p in polys if not p.is_zero()]
    return build_presentation(gens, order or MonomialOrder(3), polys, 1,
                              complete_to=complete_to, max_rules=60, base=base)


def differential(monkeypatch, relations):
    try:
        cached, reference, retired = complete_both(
            monkeypatch, lambda: build_small(relations))
    except CompletionFailure:
        monkeypatch.undo()
        assume(False)
    assert cached.rules == reference.rules
    assert cached.collapsed == reference.collapsed
    return retired


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(relations=small_relation_sets())
# xx = -1 and xx = -x collapse the algebra, but only if the retired rule
# xx -> -1 keeps its equation: normal forms cached before the retirement
# would leave the rule x -> 1 instead, so a rule change must drop the cache
@example(relations=[[((), 1), ((0, 0), 1)], [((0,), 1), ((0, 0), 1)]])
def test_completion_cache_differential_random(monkeypatch, relations):
    differential(monkeypatch, relations)


def test_completion_cache_differential_with_retirement(monkeypatch):
    # a relation set whose cached completion retires at least one rule, so
    # the cache is dropped on retirements, not only on additions
    def retires(relations):
        try:
            return complete_both(monkeypatch, lambda: build_small(relations))[2] > 0
        except CompletionFailure:
            monkeypatch.undo()
            return False

    relations = find(small_relation_sets(), retires,
                     settings=settings(max_examples=300, database=None,
                                       derandomize=True))
    assert differential(monkeypatch, relations) > 0


# -- the chain criterion ---------------------------------------------------------


def assert_same_completion(skipping, reference):
    assert skipping.rules == reference.rules
    assert skipping.collapsed == reference.collapsed
    assert skipping.completion_bound == reference.completion_bound


@pytest.mark.parametrize("bounded", [True, False],
                         ids=["bounded", "complete"])
@pytest.mark.parametrize("kind,ell", LADDER)
def test_skipping_matches_completion_without_it(monkeypatch, kind, ell,
                                                bounded):
    base = oq_sl2(ell).pres
    bound = (3 * ell if kind == "widehat" else 2 * ell + 2) if bounded else None
    skipping, reference, runs = run_both(
        monkeypatch, lambda: quotient_presentation(
            base, quotient_ideal(kind, ell), complete_to=bound),
        NoSkipCompleter)
    assert_same_completion(skipping, reference)
    # every ladder quotient, widehat-5 among them, has overlaps to skip
    assert sum(run.skipped for run in runs) > 0


@pytest.mark.parametrize("ell", [5, 8])
def test_skipping_matches_on_a_bounded_base(monkeypatch, ell):
    # resumed from the bound-8 rules, whose overlaps up to 8 are never
    # scheduled: the overlaps of length 9 and 10 come out the same
    base = oq_sl2(ell).pres
    skipping, reference, _ = run_both(
        monkeypatch, lambda: quotient_presentation(base, [], complete_to=10),
        NoSkipCompleter)
    assert_same_completion(skipping, reference)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(relations=small_relation_sets(), bound=st.sampled_from([6, None]))
@example(relations=[[((), 1), ((0, 0), 1)], [((0,), 1), ((0, 0), 1)]],
         bound=6)
def test_skipping_differential_random(monkeypatch, relations, bound):
    try:
        skipping, reference, _ = run_both(
            monkeypatch, lambda: build_small(relations, bound),
            NoSkipCompleter)
    except CompletionFailure:
        monkeypatch.undo()
        assume(False)
    assert_same_completion(skipping, reference)


# -- the agenda pops by weight ---------------------------------------------------


class LengthFirstCompleter(_Completer):
    """Completion whose agenda pops overlaps by (length, counter), shortest
    first, whatever their weight: every overlap is pushed with weight 0."""

    def _push(self, l1, l2, k, resolved=0):
        n = len(l1) + len(l2) - k
        if n <= resolved:
            return
        if self.bound is not None and n > self.bound:
            self.cut.add((l1, l2))
            return
        self.counter += 1
        heapq.heappush(self.agenda,
                       (0, n, self.counter, l1 + l2[k:], l1, l2, k))


def weighted_orders():
    """Monomial orders on three letters with weights 1 to 4 and any
    precedence."""
    weights = st.lists(st.integers(min_value=1, max_value=4),
                       min_size=3, max_size=3)
    return st.builds(MonomialOrder, st.just(3), st.permutations(range(3)),
                     weights)


def complete_by_both_keys(monkeypatch, relations, order, bound):
    """Complete with the weight-first and the length-first agenda; return
    both presentations and each run's (scheduled, retired, skipped) per
    completion, or None when either run reaches the rule cap."""
    length_runs = []

    class Recording(LengthFirstCompleter):
        def __init__(self, *args):
            super().__init__(*args)
            length_runs.append(self)

    try:
        weight_first, length_first, weight_runs = run_both(
            monkeypatch, lambda: build_small(relations, bound, order=order),
            Recording)
    except CompletionFailure:
        monkeypatch.undo()
        return None
    counts = [[(run.counter, run.retired, run.skipped) for run in runs]
              for runs in (weight_runs, length_runs)]
    return weight_first, length_first, counts


def both_complete(result):
    return (result is not None
            and result[0].confluence == result[1].confluence == "complete")


def assert_same_rules(result):
    # a reduced Groebner basis is unique for its ideal and order, so two
    # completions that both end complete agree whatever their agenda
    weight_first, length_first, _ = result
    assert weight_first.rules == length_first.rules
    assert weight_first.collapsed == length_first.collapsed


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(relations=small_relation_sets(), order=weighted_orders(),
       bound=st.sampled_from([6, None]))
def test_weight_first_matches_length_first_random(monkeypatch, relations,
                                                   order, bound):
    result = complete_by_both_keys(monkeypatch, relations, order, bound)
    assume(both_complete(result))
    assert_same_rules(result)


# small completions rarely process their overlaps in a different order
# under the two keys (about 1 in 100 random draws); these three do
@pytest.mark.parametrize("relations, precedence, weights, bound", [
    ([[((1, 0, 2), -1), ((2, 2, 1), -2)], [((1, 0, 2), -1), ((2, 2, 1), -2)],
      [((0, 0), 1), ((0, 1, 1), -1)], [((2, 1, 0), 2), ((1,), 2)]],
     (2, 0, 1), (3, 4, 3), None),
    ([[((0, 2, 1), 2), ((0, 1, 0), -1)], [((0, 0, 0), 1), ((), -1)],
      [((1, 2, 0), -1), ((2,), -2)], [((2, 0, 1), -2), ((1, 1), -1)]],
     (0, 1, 2), (3, 2, 1), 6),
    ([[((1, 2, 2), -1), ((0, 0, 0), -1)], [((0, 2, 0), 1)],
      [((2, 2), -1), ((), -1)], [((0, 2, 0), 1)]],
     (2, 1, 0), (2, 1, 4), None),
], ids=["ten-rules", "three-rules", "seven-rules"])
def test_weight_first_matches_length_first_where_the_agendas_differ(
        monkeypatch, relations, precedence, weights, bound):
    result = complete_by_both_keys(
        monkeypatch, relations, MonomialOrder(3, precedence, weights), bound)
    assert both_complete(result)
    weight_counts, length_counts = result[2]
    assert weight_counts != length_counts
    assert_same_rules(result)


# -- overlaps found through the prefix index -------------------------------------


def pairwise_overlaps(l1, l2):
    """Each k, ascending, where the last k letters of l1 are the first k of
    l2, found by testing every k."""
    return [k for k in range(1, min(len(l1), len(l2))) if l1[-k:] == l2[:k]]


class PairwiseCompleter(_Completer):
    """Completion that finds overlaps by testing every pair of rules."""

    def _schedule_rule(self, lead):
        for other in list(self.rules):
            for k in pairwise_overlaps(lead, other):
                self._push(lead, other, k)
            if other != lead:
                for k in pairwise_overlaps(other, lead):
                    self._push(other, lead, k)

    def _schedule_base(self, resolved):
        for l1 in self.rules:
            for l2 in self.rules:
                for k in pairwise_overlaps(l1, l2):
                    self._push(l1, l2, k, resolved)


def complete_recording(monkeypatch, build, completer):
    """Run `build` with `completer`; return the presentation and every
    completer made, each with the arguments of its pushes in order."""
    runs = []

    class Recording(completer):
        def __init__(self, *args):
            super().__init__(*args)
            self.pushes = []
            runs.append(self)

        def _push(self, l1, l2, k, resolved=0):
            self.pushes.append((l1, l2, k, resolved))
            super()._push(l1, l2, k, resolved)

    monkeypatch.setattr(rewrite, "_Completer", Recording)
    try:
        return build(), runs
    finally:
        monkeypatch.undo()


def assert_same_scheduling(monkeypatch, build):
    indexed, indexed_runs = complete_recording(monkeypatch, build, _Completer)
    pairwise, pairwise_runs = complete_recording(monkeypatch, build,
                                                 PairwiseCompleter)
    assert_same_completion(indexed, pairwise)
    assert list(indexed.rules) == list(pairwise.rules)
    assert len(indexed_runs) == len(pairwise_runs) > 0
    for a, b in zip(indexed_runs, pairwise_runs):
        assert a.pushes == b.pushes
        assert list(a.rules.items()) == list(b.rules.items())
        assert (a.retired, a.skipped, a.counter, a.cut) == \
            (b.retired, b.skipped, b.counter, b.cut)
    return indexed_runs


@pytest.mark.parametrize("bounded", [True, False],
                         ids=["bounded", "complete"])
@pytest.mark.parametrize("kind,ell", LADDER)
def test_indexed_scheduling_matches_pairwise_scan(monkeypatch, kind, ell,
                                                  bounded):
    base = oq_sl2(ell).pres
    bound = (3 * ell if kind == "widehat" else 2 * ell + 2) if bounded else None
    runs = assert_same_scheduling(monkeypatch, lambda: quotient_presentation(
        base, quotient_ideal(kind, ell), complete_to=bound))
    assert all(run.pushes for run in runs)


@pytest.mark.parametrize("ell", [5, 8])
def test_indexed_scheduling_matches_pairwise_scan_on_a_bounded_base(
        monkeypatch, ell):
    # the resumed base overlaps of length 9 and 10 are pushed, the shorter
    # ones are passed over as resolved
    base = oq_sl2(ell).pres
    runs = assert_same_scheduling(
        monkeypatch, lambda: quotient_presentation(base, [], complete_to=10))
    resolved = [push for push in runs[0].pushes if push[3]]
    assert resolved and all(push[3] == 8 for push in resolved)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(relations=small_relation_sets(), bound=st.sampled_from([6, None]),
       resume=st.booleans())
@example(relations=[[((), 1), ((0, 0), 1)], [((0,), 1), ((0, 0), 1)]],
         bound=6, resume=False)
def test_indexed_scheduling_differential_random(monkeypatch, relations,
                                                bound, resume):
    # resumed: from the relations completed to 4, with no new relation
    build = ((lambda: build_small([], bound, build_small(relations, 4)))
             if resume else lambda: build_small(relations, bound))
    try:
        assert_same_scheduling(monkeypatch, build)
    except CompletionFailure:
        assume(False)


def pairwise_confluence(pres, max_len):
    """check_confluence by a scan of every pair of rules."""
    unresolved = []
    for l1 in pres.rules:
        for l2 in pres.rules:
            for k in pairwise_overlaps(l1, l2):
                if len(l1) + len(l2) - k > max_len:
                    continue
                diff = pres.overlap_difference(l1, l2, k)
                if diff:
                    unresolved.append(OverlapReport(
                        l1 + l2[k:], l1, l2, NCPoly(pres.gens, pres.ell, diff)))
    return unresolved


def report_tuples(reports):
    return [(r.word, r.lhs1, r.lhs2, r.difference.terms) for r in reports]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_indexed_confluence_differential_random(data):
    # every rule rewrites to the empty word, so most overlaps stay unresolved
    ngens = data.draw(st.integers(min_value=1, max_value=3))
    lhss = data.draw(rule_sets(ngens, True))
    gens = ("x", "y", "z")[:ngens]
    one = CycRat.one(1)
    pres = Presentation(gens, MonomialOrder(ngens), 1,
                        {lhs: {(): one} for lhs in lhss}, [], "generic",
                        None, 8, False)
    max_len = data.draw(st.integers(min_value=0, max_value=every_overlap(pres)))
    assert report_tuples(check_confluence(pres, max_len)) == \
        report_tuples(pairwise_confluence(pres, max_len))


# (presentation, whether it has unresolved overlaps within every_overlap)
@pytest.mark.parametrize("make, unresolved", [
    (lambda: oq_sl2(5).pres, True),
    (lambda: oq_sl2(8).pres, True),
    (lambda: o_minus1_sl2().pres, True),
    (lambda: classical_sl2().pres, False),
    (lambda: quotient_presentation(oq_sl2(3).pres,
                                   quotient_ideal("widehat", 3),
                                   complete_to=7), False),
    (lambda: collapsed_presentation(), False),
], ids=["oq5", "oq8", "minus1", "classical", "widehat3-bounded",
        "collapsed"])
def test_indexed_confluence_matches_pairwise_scan(make, unresolved):
    pres = make()
    longest = every_overlap(pres) if pres.rules else 0
    for max_len in (8, longest):
        assert report_tuples(check_confluence(pres, max_len)) == \
            report_tuples(pairwise_confluence(pres, max_len))
    assert bool(check_confluence(pres, longest)) == unresolved


@pytest.mark.parametrize("kind,ell", LADDER)
def test_indexed_confluence_matches_pairwise_scan_on_ladder(
        finite_quotients, kind, ell):
    pres = finite_quotients[kind, ell]
    for max_len in (8, every_overlap(pres)):
        assert report_tuples(check_confluence(pres, max_len)) == \
            report_tuples(pairwise_confluence(pres, max_len)) == []


def test_rule_changes_drop_the_cache(monkeypatch):
    # the cache size right after each rule addition and after a collapse
    sizes = []

    class Recording(_Completer):
        def _add_rule(self, lead, rhs):
            super()._add_rule(lead, rhs)
            sizes.append(len(self.cache))

        def _orient(self, terms):
            collapsed = self.collapsed
            super()._orient(terms)
            if self.collapsed and not collapsed:
                sizes.append(len(self.cache))

    monkeypatch.setattr(rewrite, "_Completer", Recording)
    quotient_presentation(oq_sl2(3).pres, quotient_ideal("widehat", 3))
    added = len(sizes)
    assert build_small([[((), 1), ((0, 0), 1)],
                        [((0,), 1), ((0, 0), 1)]]).collapsed
    assert added > 0 and len(sizes) > added
    assert sizes == [0] * len(sizes)


def test_find_redex_matches_brute_force_on_shipped_presentation():
    rng = random.Random(5)
    for pres in (oq_sl2(5).pres, quotient_presentation(
            oq_sl2(3).pres, quotient_ideal("widehat", 3), complete_to=9)):
        for _ in range(400):
            word = tuple(rng.randrange(4) for _ in range(rng.randrange(12)))
            assert pres.find_redex(word) == brute_redex(pres.rules, word)


def test_find_redex_tracks_rule_additions_and_retirements():
    one = CycRat.one(1)
    comp = _Completer(("x", "y", "z"), MonomialOrder(3), 1, 6, 100)
    words = st.lists(st.integers(min_value=0, max_value=2), max_size=10).map(tuple)

    @settings(max_examples=150, deadline=None)
    @given(word=words)
    def agrees(word):
        assert comp.find_redex(word) == brute_redex(comp.rules, word)

    # irreducible leads, as _orient passes them
    for lhs in [(1, 0), (2, 1, 2), (2, 2, 2), (0, 2, 0, 1)]:
        comp._add_rule(lhs, {(0,): one})
    agrees()
    comp._add_rule((2, 1), {(1,): one})        # (2, 1, 2) contains (2, 1)
    assert comp.retired == 1 and (2, 1, 2) not in comp.rules
    agrees()


def is_factor_free(lhss):
    return not any(u != v and rewrite._contains(v, u)
                   for u in lhss for v in lhss)


def rule_sets(ngens, factor_free):
    """Sets of one to six left-hand sides of length 1-5 over ngens letters,
    pruned to a factor-free set when asked (no lhs a factor of another)."""
    lhs = st.lists(st.integers(min_value=0, max_value=ngens - 1),
                   min_size=1, max_size=5).map(tuple)

    def prune(lhss):
        kept = []
        for u in sorted(lhss, key=len):
            if not any(rewrite._contains(u, v) for v in kept):
                kept.append(u)
        return kept

    sets = st.lists(lhs, min_size=1, max_size=6, unique=True)
    return sets.map(prune) if factor_free else sets


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_find_redex_matches_brute_force_on_random_rule_sets(data):
    ngens = data.draw(st.integers(min_value=1, max_value=4))
    factor_free = data.draw(st.booleans())
    lhss = data.draw(rule_sets(ngens, factor_free))
    rules = {lhs: {} for lhs in lhss}
    red = Reducer(MonomialOrder(ngens), 1, rules)
    # refused exactly when the set is not factor-free, naming a factor pair
    if not is_factor_free(lhss):
        with pytest.raises(ValueError, match="not factor-free") as info:
            red.find_redex(())
        assert any(f"{u} occurs in left-hand side {v}" in str(info.value)
                   for u in lhss for v in lhss
                   if u != v and rewrite._contains(v, u))
        return
    letters = st.integers(min_value=0, max_value=ngens - 1)
    for word in data.draw(st.lists(st.lists(letters, max_size=14).map(tuple),
                                   min_size=1, max_size=20)):
        assert red.find_redex(word) == brute_redex(rules, word)


# a factor in the middle of an lhs (b in abc) shows only along a failure
# link, from a state that spells no lhs itself; expected is the named pair
@pytest.mark.parametrize("lhss, word, expected", [
    ([(0, 1), (1,)], (0, 1), ((1,), (0, 1))),           # suffix
    ([(0, 1, 2), (1,)], (0, 1, 0), ((1,), (0, 1, 2))),  # middle factor
    ([(0, 1, 2), (1,)], (2, 2), ((1,), (0, 1, 2))),     # an irreducible word
    ([(0,), (0, 1, 1)], (2, 0, 1, 1), ((0,), (0, 1, 1))),  # prefix
    ([(1, 1), (0, 1, 1, 1)], (0, 1, 1, 1), ((1, 1), (0, 1, 1, 1))),
    # (0, 1) is a prefix of (0, 1, 2), (1,) a suffix of (0, 1)
    ([(0, 1), (0, 1, 2), (1,), (2, 2)], (2, 0, 1, 2), ((0, 1), (0, 1, 2))),
])
def test_find_redex_on_rule_sets_that_are_not_factor_free(lhss, word,
                                                          expected):
    red = Reducer(MonomialOrder(3), 1, {lhs: {} for lhs in lhss})
    lhs, other = expected
    for _ in range(2):          # refused at every scan, nothing kept
        with pytest.raises(ValueError) as info:
            red.find_redex(word)
        assert str(info.value) == (f"left-hand side {lhs} occurs in "
                                   f"left-hand side {other}: the rule set "
                                   f"is not factor-free")
        assert red._automaton is None


@pytest.mark.parametrize("lhss", [[()], [(0, 1), (), (1,)]],
                         ids=["alone", "beside-others"])
def test_an_empty_lhs_is_refused(lhss):
    red = Reducer(MonomialOrder(2), 1, {lhs: {} for lhs in lhss})
    with pytest.raises(ValueError, match="the empty word is a left-hand side"):
        red.find_redex((0, 1))
    assert red._automaton is None


@pytest.mark.parametrize("use", [
    lambda pres: pres.find_redex((2, 2)),
    lambda pres: enumerate_basis(pres, 3),
    lambda pres: dimension(pres),
    lambda pres: check_confluence(pres, 8),
], ids=["find_redex", "enumerate_basis", "dimension", "check_confluence"])
def test_a_hand_made_presentation_that_is_not_factor_free_is_refused(use):
    with pytest.raises(ValueError,
                       match=r"left-hand side \(0, 1\) occurs in left-hand "
                             r"side \(0, 1, 2\)"):
        use(not_factor_free_presentation())


def test_find_redex_through_completer_additions_retirements_and_collapse():
    one = CycRat.one(1)
    letters = st.integers(min_value=0, max_value=2)
    words = st.lists(letters, max_size=12).map(tuple)

    @settings(max_examples=60, deadline=None)
    @given(lhss=st.lists(st.lists(letters, min_size=1, max_size=4).map(tuple),
                         min_size=1, max_size=8),
           probes=st.lists(words, min_size=1, max_size=5))
    def agrees(lhss, probes):
        comp = _Completer(("x", "y", "z"), MonomialOrder(3), 1, 6, 100)
        for lhs in lhss:
            if comp.find_redex(lhs) is not None:
                continue            # only irreducible leads, as _orient
            comp._add_rule(lhs, {(): one})
            # the table is updated after every change, retirements too
            for word in probes:
                assert comp.find_redex(word) == brute_redex(comp.rules, word)
        comp._orient({(): one})
        assert comp.collapsed and comp.rules == {}
        for word in probes:
            assert comp.find_redex(word) is None

    agrees()


def test_find_redex_over_300_letters():
    rng = random.Random(7)
    lhss = [(299, 0), (150, 150, 150), (7,), (256, 255, 257), (3, 299, 3, 299)]
    rules = {lhs: {} for lhs in lhss}
    red = Reducer(MonomialOrder(300), 1, rules)
    delta, out = red._build_automaton()
    assert len(delta[0]) == 300
    for _ in range(300):
        word = [rng.choice((0, 3, 150, 255, 256, 257, 299, rng.randrange(300)))
                for _ in range(rng.randrange(16))]
        if word and rng.random() < 0.5:
            k = rng.randrange(len(word) + 1)
            word[k:k] = rng.choice(lhss)
        word = tuple(word)
        assert red.find_redex(word) == brute_redex(rules, word)


def test_shipped_presentations_are_factor_free(oq5):
    quot = quotient_presentation(oq_sl2(3).pres, quotient_ideal("widehat", 3),
                                 complete_to=9)
    for pres in (oq5.pres, quot, o_minus1_sl2().pres, classical_sl2().pres):
        delta, out = pres._build_automaton()
        assert sorted(lhs for lhs in out if lhs) == sorted(pres.rules)


def test_presentations_hold_no_trie():
    # only a running completion inserts into the trie under its table
    quot = quotient_presentation(oq_sl2(3).pres, quotient_ideal("widehat", 3))
    for pres in (quot, quot.fresh(), oq_sl2(3).pres):
        assert pres._automaton is not None and not hasattr(pres, "_trie")


def brute_basis(pres, max_len):
    """Irreducible words by length, filtered from all words in order."""
    if pres.collapsed:
        return [[] for _ in range(max_len + 1)]
    ngens = pres.order.ngens
    return [[w for w in itertools.product(range(ngens), repeat=n)
             if not any(rewrite._contains(w, lhs) for lhs in pres.rules)]
            for n in range(max_len + 1)]


def not_factor_free_presentation():
    gens = ("x", "y", "z")
    rules = {(0, 1): {}, (0, 1, 2): {}, (1, 1): {}, (2, 0, 2): {}, (0, 2): {}}
    return Presentation(gens, MonomialOrder(3), 1, rules, [], "generic", None,
                        8, False)


def collapsed_presentation():
    gens = ("x", "y")
    x, one = NCPoly.generator(gens, 1, 0), NCPoly.one(gens, 1)
    pres = build_presentation(gens, MonomialOrder(2),
                              [x - one, x - one - one], 1)
    assert pres.collapsed
    return pres


@pytest.mark.parametrize("make, max_len", [
    (lambda: oq_sl2(5).pres, 5),
    (lambda: quotient_presentation(oq_sl2(3).pres,
                                   quotient_ideal("widehat", 3),
                                   complete_to=9), 6),
    (lambda: classical_sl2().pres, 5),
    (collapsed_presentation, 4),
])
def test_enumerate_basis_matches_brute_force_filter(make, max_len):
    pres = make()
    assert enumerate_basis(pres, max_len) == brute_basis(pres, max_len)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nf_matches_cache_free_reference(oq5_deep, data):
    pres = oq5_deep.pres
    word = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                              max_size=8).map(tuple))
    assert pres.nf_word_terms(word) == reference_nf(pres.order, pres.rules,
                                                    word, pres.ell)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_descending_key_reverses_order_key(data):
    ngens = data.draw(st.integers(min_value=1, max_value=4))
    precedence = data.draw(st.permutations(range(ngens)))
    # plain deglex, weighted, and weights above 255 (a fallback path)
    weights = data.draw(st.one_of(
        st.just([1] * ngens),
        st.lists(st.sampled_from([1, 2, 3, 300]),
                 min_size=ngens, max_size=ngens)))
    order = MonomialOrder(ngens, precedence=precedence, weights=weights)
    words = data.draw(st.lists(st.lists(
        st.integers(min_value=0, max_value=ngens - 1), max_size=5).map(tuple),
        min_size=2, max_size=12, unique=True))
    assert (sorted(words, key=order.descending_key)
            == sorted(words, key=order.key, reverse=True))


def test_rule_cap_failure_names_its_context():
    alg = oq_sl2(5)
    with pytest.raises(CompletionFailure) as info:
        build_presentation(alg.gens, alg.pres.order, alg.pres.defining, 5,
                           complete_to=8, max_rules=3)
    text = str(info.value)
    assert text.startswith("rule cap 3 reached at completion bound 8: 3 rules,")
    assert "overlaps on the agenda" in text and "last overlap processed" in text
    context = info.value.context
    assert context["bound"] == 8 and context["rules"] == 3
    assert context["agenda"] >= 0


# -- the automaton, updated in place ---------------------------------------------


def live_states(comp):
    """Trie states on a path to a current lhs; the rest are dead."""
    return {lhs[:k] for lhs in comp.rules for k in range(len(lhs) + 1)}


def check_table(comp):
    """Every state of the table, dead ones included, against its string:
    its depth, failure link, failure-tree children, transitions, and the
    current lhs that is a suffix of it."""
    delta, out = comp._automaton
    kids, depth, fail, tree = comp._trie
    spell = [()] * len(kids)
    for s in range(len(kids)):
        for g, t in kids[s].items():
            spell[t] = spell[s] + (g,)
    state = {w: s for s, w in enumerate(spell)}
    assert len(state) == len(kids) == len(delta) == len(out)

    def longest_suffix(w):
        return next(state[w[i:]] for i in range(len(w) + 1) if w[i:] in state)

    children = {s: [] for s in state.values()}
    for s, w in enumerate(spell):
        assert depth[s] == len(w)
        assert out[s] == next((w[i:] for i in range(len(w))
                               if w[i:] in comp.rules), None)
        assert delta[s] == [longest_suffix(w + (g,))
                            for g in range(comp.order.ngens)]
        if s:
            assert fail[s] == longest_suffix(w[1:])
            children[fail[s]].append(s)
    assert all(sorted(tree[s]) == kids_of for s, kids_of in children.items())


def check_against_fresh_build(comp, rng, stats):
    """find_redex and _covered of comp's table, updated in place, agree with
    a completer that builds its table from scratch over the same rules."""
    fresh = _Completer(comp.gens, comp.order, comp.ell, None, 10 ** 6)
    fresh.rules = dict(comp.rules)
    lhss = list(comp.rules)
    words = [u + v for u in lhss for v in lhss]
    words += [tuple(rng.randrange(comp.order.ngens)
                    for _ in range(rng.randrange(16))) for _ in range(200)]
    for word in words:
        assert comp.find_redex(word) == fresh.find_redex(word)
        assert comp._covered(word) == fresh._covered(word)
    check_table(comp)
    stats["dead"] = max(stats["dead"],
                        len(comp._trie[0]) - len(live_states(comp)))


def completion_checked_after_every_rule(monkeypatch, build):
    """Run build with every _add_rule followed by the check; return the
    result with counts of the completer's full builds and of the rules added
    with the table updated in place, the most dead trie states seen, and
    whether the completer collapsed."""
    rng = random.Random(18)
    stats = {"builds": 0, "in_place": 0, "dead": 0, "collapsed": False}
    build_automaton = Reducer._build_automaton

    def counted(self):
        stats["builds"] += isinstance(self, Checked)
        return build_automaton(self)

    class Checked(_Completer):
        def _add_rule(self, lead, rhs):
            super()._add_rule(lead, rhs)
            stats["in_place"] += self._automaton is not None
            check_against_fresh_build(self, rng, stats)

        def _orient(self, terms):
            super()._orient(terms)
            if self.collapsed:
                stats["collapsed"] = True
                assert self._automaton is None and self._trie is None
                assert self.find_redex((0, 1, 0)) is None

    monkeypatch.setattr(Reducer, "_build_automaton", counted)
    monkeypatch.setattr(rewrite, "_Completer", Checked)
    pres = build()
    monkeypatch.undo()
    return pres, stats


@pytest.mark.parametrize("make_base, kind, ell", [
    (oq_sl2, "widehat", 3), (oq_sl2, "widehat", 5), (oq_sl2, "overline", 4),
    (lambda ell: sl2_algebra("odd", ell), "widehat", 5),
], ids=["widehat-3", "widehat-5", "overline-4", "sl2-algebra-widehat-5"])
def test_automaton_updated_in_place_matches_a_fresh_build(monkeypatch,
                                                          make_base, kind, ell):
    base = make_base(ell).pres
    pres, stats = completion_checked_after_every_rule(
        monkeypatch, lambda: quotient_presentation(base,
                                                   quotient_ideal(kind, ell)))
    # retirements leave dead trie states behind, and nothing rebuilds
    assert not pres.collapsed and stats["in_place"] > 0 and stats["dead"] > 0
    assert stats["builds"] == 1


def test_automaton_in_place_through_dead_states_and_a_collapse(monkeypatch):
    # xy = 1 and yx = 0 give x = xyx = 0, which retires xy (its state stays
    # in the trie, dead), and then xy = 1 reduces to 0 = 1
    gens = ("x", "y")
    x, y = (NCPoly.generator(gens, 1, g) for g in range(2))
    pres, stats = completion_checked_after_every_rule(
        monkeypatch, lambda: build_presentation(
            gens, MonomialOrder(2), [x * y - NCPoly.one(gens, 1), y * x], 1))
    assert pres.collapsed and stats["collapsed"]
    assert stats["in_place"] > 0 and stats["dead"] > 0


def test_widehat_7_completion_builds_its_automaton_at_most_three_times(
        monkeypatch):
    base = oq_sl2(7).pres
    builds, runs = [], []
    build_automaton = Reducer._build_automaton

    def counted(self):
        builds.append(self)
        return build_automaton(self)

    class Recording(_Completer):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(Reducer, "_build_automaton", counted)
    monkeypatch.setattr(rewrite, "_Completer", Recording)
    pres = quotient_presentation(base, quotient_ideal("widehat", 7),
                                 complete_to=21)
    assert len(builds) <= 3
    comp, = runs
    # retired, skipped, scheduled and cut record the order in which
    # overlaps are processed, which the agenda key decides
    assert (len(comp.rules), comp.retired, comp.skipped, comp.counter,
            len(comp.cut)) == (110, 43, 1285, 3135, 0)
    assert len(pres.rules) == 110 and pres.confluence == "complete"


# -- one-term chains ---------------------------------------------------------------


class HeapOnlyPresentation(Presentation):
    """Presentation whose _reduce pushes every rewritten word onto the heap,
    one-term right-hand sides included."""

    def _reduce(self, pending):
        cache, rules = self.cache, self.rules
        key, find = self._key, self.find_redex
        heap = [(key(w), w) for w in pending]
        heapq.heapify(heap)
        out = {}
        while heap:
            w = heapq.heappop(heap)[1]
            c = pending.pop(w)
            if c.is_zero():
                continue
            known = cache.get(w)
            if known is not None:
                for u, cu in known.items():
                    addto(out, u, cu * c)
                continue
            redex = find(w)
            if redex is None:
                addto(out, w, c)
                continue
            i, L, lhs = redex
            prefix, suffix = w[:i], w[i + L:]
            for t, ct in rules[lhs].items():
                u = prefix + t + suffix
                acc = pending.get(u)
                if acc is None:
                    pending[u] = ct * c
                    heapq.heappush(heap, (key(u), u))
                else:
                    pending[u] = acc + ct * c
        return out


def copies(pres, cls):
    return cls(pres.gens, pres.order, pres.ell, pres.rules, pres.defining,
               pres.parity, pres.q, pres.completion_bound, pres.collapsed,
               pres.label)


@pytest.mark.parametrize("make", [
    lambda: oq_sl2(5).pres,
    lambda: quotient_presentation(sl2_algebra("odd", 3).pres,
                                  quotient_ideal("widehat", 3)),
], ids=["bounded-oq-sl2-5", "complete-widehat-3"])
def test_one_term_chains_match_heap_only_reduction(make):
    pres = make()
    chained = copies(pres, Presentation)
    reference = copies(pres, HeapOnlyPresentation)
    ngens = pres.order.ngens
    rng = random.Random(6)
    words = [w for n in range(7)
             for w in itertools.product(range(ngens), repeat=n)]
    words += [tuple(rng.randrange(ngens) for _ in range(rng.randrange(12, 21)))
              for _ in range(300)]
    one_term = sum(len(rhs) == 1 for rhs in pres.rules.values())
    assert one_term > 0
    for word in words:
        assert chained.nf_word_terms(word) == reference.nf_word_terms(word)


# -- merged critical pairs ---------------------------------------------------------


def every_overlap_triple(pres):
    """(l1, l2, k) for every overlap of two rules, k ascending."""
    return [(l1, l2, k) for l1 in pres.rules for l2 in pres.rules
            for k in pairwise_overlaps(l1, l2)]


def merged_pairs_unresolved(pres):
    """Check overlap_difference against the two-sided formula on every
    overlap of pres, each side on its own copy (so neither reads a normal
    form the other cached); return how many overlaps are unresolved."""
    merged = copies(pres, Presentation)
    reference = copies(pres, Presentation)
    unresolved = 0
    for l1, l2, k in every_overlap_triple(pres):
        diff = merged.overlap_difference(l1, l2, k)
        assert diff == two_sided_difference(reference, l1, l2, k)
        unresolved += bool(diff)
    return unresolved


def test_merged_critical_pairs_on_the_bounded_base():
    # past its bound the normal forms of oq_sl2(5) depend on the rewrite
    # path, and overlaps up to 2 maxlhs - 1 reach past it
    pres = oq_sl2(5).pres
    assert pres.confluence == "bounded(8)"
    assert max(map(len, (l1 + l2[k:] for l1, l2, k
                         in every_overlap_triple(pres)))) > 8
    assert merged_pairs_unresolved(pres) > 0


@pytest.mark.parametrize("kind,ell", [("widehat", 5), ("overline", 8)])
def test_merged_critical_pairs_on_complete_quotients(finite_quotients, kind,
                                                     ell):
    pres = finite_quotients[kind, ell]
    assert every_overlap_triple(pres)
    assert merged_pairs_unresolved(pres) == 0


def test_merged_critical_pairs_on_an_sl2_algebra_quotient():
    # widehat-7 completes within length 9 in the finite order, but its cut
    # overlaps resolve; widehat-9 is cut short for real
    pres = quotient_presentation(sl2_algebra("odd", 9).pres,
                                 quotient_ideal("widehat", 9), complete_to=9)
    assert pres.confluence == "bounded(9)"
    merged_pairs_unresolved(pres)


def widehat_at_bound(ell, bound):
    return quotient_presentation(sl2_algebra("odd", ell).pres,
                                 quotient_ideal("widehat", ell),
                                 complete_to=bound)


def test_a_cut_completion_whose_cut_overlaps_resolve_is_complete():
    # widehat-7 cut at 9 ends with the 7 rules of the complete quotient,
    # and every overlap past the bound resolves under them
    pres = widehat_at_bound(7, 9)
    assert pres.confluence == "complete"
    assert pres.rules == widehat_at_bound(7, None).rules
    assert len(pres.rules) == 7
    assert check_confluence(pres, 2 * max(map(len, pres.rules)) - 1) == []
    assert repr(dimension(pres)) == "Finite(343)"


def test_a_cut_completion_with_an_unresolved_cut_overlap_stays_bounded():
    pres = widehat_at_bound(9, 9)
    assert pres.confluence == "bounded(9)"
    assert len(pres.rules) == 11
    assert check_confluence(pres, 2 * max(map(len, pres.rules)) - 1)
    base = oq_sl2(5).pres
    assert base.confluence == "bounded(8)"
    assert check_confluence(base, 2 * max(map(len, base.rules)) - 1)


@settings(max_examples=60, deadline=None)
@given(relations=small_relation_sets(), bound=st.integers(3, 6))
def test_merged_critical_pairs_random(relations, bound):
    try:
        pres = build_small(relations, complete_to=bound)
    except CompletionFailure:
        assume(False)
    merged_pairs_unresolved(pres)


def test_merged_critical_pair_of_a_collapsed_reducer_is_empty():
    # {ab -> a, ba -> b}: the overlap aba gives aa - a until the collapse
    one = CycRat.one(1)
    red = Reducer(MonomialOrder(2), 1, {(0, 1): {(0,): one},
                                        (1, 0): {(1,): one}})
    assert red.overlap_difference((0, 1), (1, 0), 1) == {(0, 0): one,
                                                         (0,): -one}
    red.collapsed = True
    assert red.overlap_difference((0, 1), (1, 0), 1) == {}
