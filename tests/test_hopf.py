import hashlib
import itertools
import json
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsl2.cyclo import CycRat
from qsl2.errors import NotFiniteDimensional, QSL2Error
from qsl2.hopf import (FiniteModel, HopfStructure, NamedAlgebra, all_ok,
                       check_axioms, check_central, check_normal,
                       check_structure_well_defined, coinvariants, grouplikes,
                       hopf_quotient, map_poly, named_algebra, run_battery,
                       verify_hopf_morphism, _first_failure)
from qsl2.ncalg import NCPoly, TensorPoly, render_poly
from qsl2.presentations import (ABCD, classical_sl2, distinguished_subalgebra,
                                o_minus1_sl2, oq_sl2, quotient_ideal,
                                sl2_algebra, _sl2_order, _sl2_relations)
from qsl2.rewrite import (build_presentation, dimension, enumerate_basis,
                          normal_form, product_normal_form,
                          quotient_presentation, tensor_normal_form)
from qsl2.subgroups import (GroupSpec, SubgroupDatum, construct_quotient,
                             gamma_embedding, kernel_sigma_t)

A, B, C, D = 0, 1, 2, 3


@pytest.fixture(scope="module")
def oq5():
    return oq_sl2(5)


def tens(alg, items):
    out = TensorPoly.zero(ABCD, alg.ell)
    for (u, v), c in items:
        out = out + TensorPoly.monomial(ABCD, alg.ell, (u, v),
                                        alg.pres.scalar(c))
    return out


def test_delta_on_generators(oq5):
    got = oq5.delta(oq5.pres.gen("b"))
    want = tens(oq5, [(((A,), (B,)), 1), (((B,), (D,)), 1)])
    assert got == want


def test_unit_images(oq5):
    one = oq5.pres.one()
    assert oq5.delta(one) == TensorPoly.one(ABCD, oq5.ell)
    assert oq5.counit(one).is_one()
    assert oq5.antipode(one) == one


def test_antipode_law_on_a(oq5):
    # m(S (x) id) Delta(a) = S(a) a + S(b) c reduces to 1
    da = oq5.delta_word((A,))
    acc = oq5.pres.zero()
    for (u, v), c in da.terms.items():
        acc = acc + (oq5.antipode_word(u) * NCPoly.monomial(ABCD, oq5.ell, v)) * c
    assert oq5.nf(acc) == oq5.pres.one()


@pytest.mark.parametrize("build", [lambda: sl2_algebra("odd", 5),
                                   lambda: oq_sl2(4)],
                         ids=["sl2-odd-5", "oq-sl2-4"])
def test_structure_maps_match_termwise_sums(build):
    """delta and antipode equal the sum of their word images, term order
    included, on random polynomials."""
    alg = build()
    rng = random.Random(11)
    words = [tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
             for _ in range(12)]
    for _ in range(8):
        items = [(rng.choice(words), CycRat.q_power(alg.ell, rng.randrange(9))
                  * rng.choice([1, -1, 2])) for _ in range(6)]
        p = NCPoly.from_terms(ABCD, alg.ell, items)
        d_ref = TensorPoly.zero(ABCD, alg.ell)
        s_ref = alg.pres.zero()
        for w, c in p.terms.items():
            d_ref = d_ref + alg.delta_word(w) * c
            s_ref = s_ref + alg.antipode_word(w) * c
        s_ref = alg.nf(s_ref)
        d, s = alg.delta(p), alg.antipode(p)
        assert list(d.terms.items()) == list(d_ref.terms.items())
        assert list(s.terms.items()) == list(s_ref.terms.items())


def test_battery_all_shipped():
    for ell in (3, 4, 6):
        alg = oq_sl2(ell)
        assert all_ok(check_structure_well_defined(alg))
        assert all_ok(check_axioms(alg, 3))
    alg = o_minus1_sl2()
    assert all_ok(check_structure_well_defined(alg))
    assert all_ok(check_axioms(alg, 3))


def test_axioms_to_degree_four(oq5):
    assert all_ok(check_axioms(oq5, 4))


# sha256 of the JSON rows the verify benchmark's batteries return
BATTERY_ROWS_SHA256 = \
    "14ccfcf3e9c9eb10c426bb7b156937daf6ebd5ad61de4b69ae41fa5f0cc54824"


def test_battery_rows_byte_identical():
    rows = []
    for alg in [oq_sl2(ell) for ell in range(3, 10)] + [o_minus1_sl2()]:
        rows += [r.to_json() for r in run_battery(alg, 4)]
    assert len(rows) == 192
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == BATTERY_ROWS_SHA256


def _mutant_drop_bc(ell):
    alg = oq_sl2(ell)
    d = dict(alg.hopf.delta)
    d[A] = TensorPoly.monomial(ABCD, alg.ell, ((A,), (A,)))
    return NamedAlgebra(
        alg.pres, HopfStructure(d, alg.hopf.counit, alg.hopf.antipode),
        "mutant-delta")


def _mutant_antipode_sign(ell):
    alg = oq_sl2(ell)
    s = dict(alg.hopf.antipode)
    s[B] = NCPoly.monomial(ABCD, alg.ell, (B,), alg.pres.q.inverse())
    return NamedAlgebra(
        alg.pres, HopfStructure(alg.hopf.delta, alg.hopf.counit, s),
        "mutant-antipode")


def _mutant_no_determinant(ell):
    q = CycRat.q_power(ell, 1)
    rels = _sl2_relations(ell, q)[:-1]
    pres = build_presentation(ABCD, _sl2_order(), rels, ell, q, "odd", 8,
                              label="mutant-nodet")
    return NamedAlgebra(pres, oq_sl2(ell).hopf, "mutant-nodet")


def test_mutants_caught():
    m1 = _mutant_drop_bc(5)
    assert not all_ok(check_structure_well_defined(m1))
    m2 = _mutant_antipode_sign(5)
    caught = (not all_ok(check_structure_well_defined(m2))
              or not all_ok(check_axioms(m2, 2)))
    assert caught
    m3 = _mutant_no_determinant(5)
    assert all_ok(check_structure_well_defined(m3))  # still a bialgebra map
    assert not all_ok(check_axioms(m3, 2))           # antipode law fails


def _sum_terms(items):
    """Plain sums of (key, coefficient) items with zero sums dropped."""
    out = {}
    for k, c in items:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def legwise_reference(pres, terms):
    """Tensor normal form by brute force: each leg word reduced alone with
    normal_form, and the legs' normal forms multiplied out as an explicit
    Cartesian product."""
    def leg(word):
        mono = NCPoly.monomial(pres.gens, pres.ell, word)
        return list(normal_form(pres, mono).terms.items())

    items = []
    for key, c in terms.items():
        for combo in itertools.product(*(leg(w) for w in key)):
            x = c
            for _, cu in combo:
                x = x * cu
            items.append((tuple(u for u, _ in combo), x))
    return _sum_terms(items)


def reference_check_axioms(alg, sample_deg=3):
    """The battery's three laws from the generator images alone: Delta(w)
    multiplied out from alg.hopf.delta, counits as products of
    alg.hopf.counit, and every side reduced to normal form before
    comparing.  check_axioms must give the same rows."""
    pres, gens, ell = alg.pres, alg.gens, alg.ell
    words = [w for level in enumerate_basis(pres, sample_deg)
             for w in level]
    for g in range(len(gens)):
        w = (g,)
        if pres.find_redex(w) is None and w not in words:
            words.append(w)

    def delta(w):
        t = TensorPoly.one(gens, ell)
        for g in w:
            t = t * alg.hopf.delta[g]
        return legwise_reference(pres, t.terms)

    def counit(w):
        out = CycRat.one(ell)
        for g in w:
            out = out * alg.hopf.counit[g]
        return out

    def coassociative(w):
        left, right = [], []
        for (u, v), c in delta(w).items():
            left += [((u1, u2, v), c * x) for (u1, u2), x in delta(u).items()]
            right += [((u, v1, v2), c * x) for (v1, v2), x in delta(v).items()]
        return (legwise_reference(pres, _sum_terms(left))
                == legwise_reference(pres, _sum_terms(right)))

    def counit_law(w):
        lhs = alg.pres.zero()
        rhs = alg.pres.zero()
        for (u, v), c in delta(w).items():
            lhs = lhs + NCPoly.monomial(gens, ell, v, c * counit(u))
            rhs = rhs + NCPoly.monomial(gens, ell, u, c * counit(v))
        target = NCPoly.monomial(gens, ell, w)
        return (alg.nf(lhs - target).is_zero()
                and alg.nf(rhs - target).is_zero())

    def antipode_law(w):
        left = alg.pres.zero()
        right = alg.pres.zero()
        for (u, v), c in delta(w).items():
            left = left + (alg.antipode_word(u)
                           * NCPoly.monomial(gens, ell, v)) * c
            right = right + (NCPoly.monomial(gens, ell, u)
                             * alg.antipode_word(v)) * c
        target = alg.pres.one() * counit(w)
        return (alg.nf(left - target).is_zero()
                and alg.nf(right - target).is_zero())

    return [_first_failure("coassociativity", alg, words, coassociative),
            _first_failure("counit-law", alg, words, counit_law),
            _first_failure("antipode-law", alg, words, antipode_law)]


@pytest.fixture(scope="module")
def battery_bases():
    """Bounded PBW bases, complete finite-order bases in all three regimes,
    the classical algebra, and a collapsed quotient."""
    bases = [oq_sl2(3), oq_sl2(4), o_minus1_sl2(), sl2_algebra("odd", 3),
             sl2_algebra("even", 4), sl2_algebra("minus_one", 2),
             classical_sl2()]
    base = bases[3]
    collapsed = quotient_presentation(base.pres, [base.pres.one()])
    assert collapsed.collapsed
    return bases + [NamedAlgebra(collapsed, base.hopf, "collapsed")]


def _random_mutant(alg, rng):
    """alg with Delta, epsilon or S of one generator changed at random: a
    term added, or the image scaled (by 1 too, which changes nothing)."""
    n, p = len(alg.gens), alg.pres
    scalars = [p.scalar(1), p.scalar(-1), p.scalar(2)]
    if p.q is not None:
        scalars += [p.q, p.q.inverse()]
    c = rng.choice(scalars)
    word = lambda: tuple(rng.randrange(n) for _ in range(rng.randrange(3)))
    maps = [dict(alg.hopf.delta), dict(alg.hopf.counit),
            dict(alg.hopf.antipode)]
    which, g = rng.randrange(3), rng.randrange(n)
    image = maps[which][g]
    if rng.random() < 0.5:
        maps[which][g] = image * c
    elif which == 0:
        maps[0][g] = image + TensorPoly.monomial(alg.gens, alg.ell,
                                                 (word(), word()), c)
    elif which == 1:
        maps[1][g] = image + c
    else:
        maps[2][g] = image + NCPoly.monomial(alg.gens, alg.ell, word(), c)
    return NamedAlgebra(alg.pres, HopfStructure(*maps),
                        f"{alg.label}/mutant-{which}-{g}")


def test_battery_matches_the_normalising_reference(battery_bases):
    rng = random.Random(20261018)
    rows = []
    for alg in battery_bases:
        cases = [alg] + [_random_mutant(alg, rng) for _ in range(15)]
        for case in cases:
            got = [r.to_json() for r in check_axioms(case, 3)]
            want = [r.to_json() for r in reference_check_axioms(case, 3)]
            assert got == want, case.label
            rows += got
    # both outcomes are well represented (166 of 384 rows fail)
    failing = sum(r["status"] == "fail" for r in rows)
    assert 100 < failing < len(rows) - 100


def test_coproducts_of_basis_words_are_leg_normal(battery_bases):
    # check_axioms compares coproducts without reducing them: this is the
    # fact it relies on, on every base and on a finite quotient (Taft)
    base = sl2_algebra("odd", 3)
    p = base.pres
    taft = base.quotient([p.gen("c"), p.poly("a^3 - 1"), p.poly("b^3"),
                          p.poly("d^3 - 1")], label="taft-3")
    for alg in battery_bases + [taft]:
        for w in (w for level in enumerate_basis(alg.pres, 4) for w in level):
            dw = alg.delta_word(w)
            for t in (dw, dw.expand_leg(0, alg.delta_word),
                      dw.expand_leg(1, alg.delta_word)):
                assert all(alg.pres.find_redex(leg) is None
                           for key in t.terms for leg in key), (alg.label, w)


@pytest.fixture(scope="module")
def tensor_bases():
    """A bounded PBW base, a complete base, a collapsed quotient and the
    complete q = -1 base."""
    bounded, complete = oq_sl2(4), sl2_algebra("odd", 3)
    collapsed = quotient_presentation(complete.pres, [complete.pres.one()])
    return [bounded, complete,
            NamedAlgebra(collapsed, complete.hopf, "collapsed"),
            sl2_algebra("minus_one", 2)]


def _random_tensor(alg, rng, legs, nterms):
    n, p = len(alg.gens), alg.pres
    scalars = [p.scalar(1), p.scalar(-2), p.q, p.q.inverse()]
    out = TensorPoly.zero(alg.gens, alg.ell, legs)
    for _ in range(nterms):
        key = [tuple(rng.randrange(n) for _ in range(rng.randrange(4)))
               for _ in range(legs)]
        out = out + TensorPoly.monomial(alg.gens, alg.ell, key,
                                        rng.choice(scalars))
    return out


def test_tensor_normal_form_matches_legwise_reference(tensor_bases):
    # t - nf(t) is a sum of unreduced and normal terms whose normal forms
    # cancel key by key; adding s to it leaves the normal form of s
    rng = random.Random(23)
    cancelled = 0
    for alg in tensor_bases:
        gens, ell = alg.gens, alg.ell
        for legs in (1, 2, 3):
            for _ in range(12):
                t = _random_tensor(alg, rng, legs, 4)
                s = _random_tensor(alg, rng, legs, 3)
                nf_t = TensorPoly(gens, ell, legs,
                                  legwise_reference(alg.pres, t.terms))
                for x in (t, s, t - nf_t, t - nf_t + s):
                    got = tensor_normal_form(alg.pres, x)
                    assert got.legs == legs
                    assert got.terms == legwise_reference(alg.pres, x.terms)
                zero = tensor_normal_form(alg.pres, t - nf_t)
                assert zero.is_zero() and zero.legs == legs
                cancelled += not (t - nf_t).is_zero()
                assert (tensor_normal_form(alg.pres, t - nf_t + s).terms
                        == tensor_normal_form(alg.pres, s).terms)
    assert cancelled > 40


def _splice_reference(t, leg, images):
    return _sum_terms((key[:leg] + ikey + key[leg + 1:], c * ic)
                      for key, c in t.terms.items()
                      for ikey, ic in images(key[leg]).terms.items())


def test_expand_leg_matches_splice_reference(tensor_bases):
    for alg in tensor_bases:
        for w in (w for level in enumerate_basis(alg.pres, 3) for w in level):
            dw = alg.delta_word(w)
            for leg in (0, 1):
                got = dw.expand_leg(leg, alg.delta_word)
                assert got.legs == 3
                assert got.terms == _splice_reference(dw, leg, alg.delta_word)
    # a zero tensor expands to a zero tensor of one more leg
    collapsed = tensor_bases[2]
    zero = collapsed.delta_word((A,))
    assert zero.is_zero() and zero.expand_leg(0, collapsed.delta_word).legs == 3


def test_expand_leg_drops_cancelled_keys(tensor_bases):
    # a map that reads only a word's letters as a multiset sends a*b and
    # b*a to the same image, so their difference expands to zero
    alg = tensor_bases[1]
    gens, ell = alg.gens, alg.ell
    one = CycRat.one(ell)

    def sym(legs):
        def images(w):
            keys = [(tuple(sorted(w)),) + ((),) * (legs - 1),
                    ((),) * (legs - 1) + (tuple(sorted(w)),)]
            return TensorPoly(gens, ell, legs,
                              _sum_terms((k, one) for k in keys))
        return images

    mono = lambda key, c=one: TensorPoly.monomial(gens, ell, key, c)
    for legs in (1, 2, 3):
        images = sym(legs)
        t = mono(((A, B), (C,))) - mono(((B, A), (C,)))
        got = t.expand_leg(0, images)
        assert got.is_zero() and got.legs == legs + 1
        s = mono(((A,), (D,)), alg.pres.q)
        got = (t + s).expand_leg(0, images)
        assert got.legs == legs + 1
        assert got.terms == _splice_reference(t + s, 0, images)
        assert got.terms == _splice_reference(s, 0, images) != {}
    assert TensorPoly.zero(gens, ell, 2).expand_leg(1, sym(3)).legs == 3


@pytest.fixture(scope="module")
def taft3():
    """A finite quotient in which c and b^3 vanish, so that a nonzero word
    times a nonzero word can be zero and one leg of a tensor can vanish
    while the other does not."""
    base = sl2_algebra("odd", 3)
    p = base.pres
    return base.quotient([p.gen("c"), p.poly("a^3 - 1"), p.poly("b^3"),
                          p.poly("d^3 - 1")], label="taft-3")


def _operands(alg, legs):
    """Pairs of NCPolys (legs 1) or 2-leg TensorPolys over alg with unit,
    rational and zero coefficients."""
    p = alg.pres
    scalars = [p.scalar(1), p.scalar(-1), p.scalar(0), p.scalar(2),
               p.scalar(Fraction(-1, 3)), p.q, p.q.inverse() * 3]
    word = st.lists(st.integers(0, len(alg.gens) - 1), max_size=3).map(tuple)
    key = word if legs == 1 else st.tuples(word, word)
    terms = st.lists(st.tuples(key, st.sampled_from(scalars)), max_size=4)
    if legs == 1:
        poly = terms.map(lambda items: NCPoly(alg.gens, alg.ell,
                                              _sum_terms(items)))
    else:
        poly = terms.map(lambda items: TensorPoly(alg.gens, alg.ell, 2,
                                                  _sum_terms(items)))
    return st.tuples(poly, poly)


@pytest.mark.parametrize("which", range(5))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_normal_form_equals_multiply_then_reduce(tensor_bases, taft3,
                                                         which, data):
    alg = (tensor_bases + [taft3])[which]
    x, y = data.draw(_operands(alg, 1))
    got = product_normal_form(alg.pres, x, y)
    assert got.terms == normal_form(alg.pres, x * y).terms
    s, t = data.draw(_operands(alg, 2))
    got = product_normal_form(alg.pres, s, t)
    assert got.legs == 2
    assert got.terms == tensor_normal_form(alg.pres, s * t).terms


def test_product_normal_form_drops_only_zero_legs(taft3):
    # c vanishes in taft-3: a pair whose first leg is zero is dropped, one
    # whose second leg alone is zero too, and the others are kept
    p = taft3.pres
    one = p.scalar(1)
    mono = lambda key, c=one: TensorPoly.monomial(p.gens, p.ell, key, c)
    x = mono(((A,), (B,))) + mono(((C,), (A,)), p.scalar(2))
    y = mono(((B,), (C,)), p.q) + mono(((D,), (D,)), p.scalar(5))
    got = product_normal_form(p, x, y)
    kept = tensor_normal_form(p, mono(((A, D), (B, D)), p.scalar(5)))
    assert got.terms == kept.terms != {}
    assert got.terms == tensor_normal_form(p, x * y).terms


def test_structure_maps_equal_multiply_then_reduce(tensor_bases, taft3):
    """delta_word and antipode_word equal their multiply-then-reduce
    definitions on every irreducible word up to degree 4."""
    checked = 0
    for alg in tensor_bases + [taft3]:
        alg = alg.fresh()
        p = alg.pres
        deltas, antipodes = {}, {}

        def delta_ref(w):
            if w not in deltas:
                t = (TensorPoly.one(alg.gens, alg.ell) if not w
                     else delta_ref(w[:-1]) * alg.hopf.delta[w[-1]])
                deltas[w] = tensor_normal_form(p, t)
            return deltas[w]

        def antipode_ref(w):
            if w not in antipodes:
                s = (p.one() if not w
                     else antipode_ref(w[1:]) * alg.hopf.antipode[w[0]])
                antipodes[w] = normal_form(p, s)
            return antipodes[w]

        words = [w for level in enumerate_basis(p, 4) for w in level]
        for w in words:
            assert alg.delta_word(w) == delta_ref(w), (alg.label, w)
            assert alg.antipode_word(w) == antipode_ref(w), (alg.label, w)
            checked += 1
    assert checked > 150


def test_hopf_maps_build_no_unreduced_product(monkeypatch):
    """delta_word, antipode_word and substitute multiply in the quotient:
    no NCPoly or TensorPoly product is formed inside them."""
    from qsl2 import hopf

    depth, entered = [0], {}
    products = {"NCPoly": 0, "TensorPoly": 0}

    def count_products(cls):
        mul = cls.__mul__

        def counted(self, other):
            products[cls.__name__] += depth[0] > 0
            return mul(self, other)
        monkeypatch.setattr(cls, "__mul__", counted)

    def scope(owner, name):
        fn = getattr(owner, name)

        def scoped(*args):
            entered[name] = entered.get(name, 0) + 1
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(owner, name, scoped)

    count_products(NCPoly)
    count_products(TensorPoly)
    scope(NamedAlgebra, "delta_word")
    scope(NamedAlgebra, "antipode_word")
    scope(hopf, "substitute")
    alg = sl2_algebra("odd", 5)
    p = alg.pres
    assert all_ok(run_battery(alg, 3))
    _, rows = hopf_quotient(alg, [p.gen("c"), p.poly("a^5 - 1"),
                                  p.poly("b^5"), p.poly("d^5 - 1")],
                            label="taft-5")
    assert all_ok(rows)
    source = classical_sl2()
    images = gamma_embedding("odd", alg)
    image = map_poly(source.pres.poly("x11*x22 - x12*x21 + 2*x11^2*x12"),
                     lambda w: (images[g] for g in w), alg)
    assert not image.is_zero()
    assert set(entered) == {"delta_word", "antipode_word", "substitute"}
    assert products == {"NCPoly": 0, "TensorPoly": 0}


# the normal-form engine loops, which skip a product with the interned one
# inline; everywhere else CycRat.__mul__ returns the other factor
SKIPS_ONE = {("rewrite.py", "_reduce"), ("rewrite.py", "nf_terms"),
             ("rewrite.py", "product_normal_form"),
             ("rewrite.py", "tensor_normal_form"), ("ncalg.py", "expand_leg")}


def test_hot_loops_multiply_by_no_one(monkeypatch):
    """No scalar product with the field's interned one is made inside the
    normal-form engine loops, and the rows stay the same."""
    def rows_of(alg):
        p = alg.pres
        rows = run_battery(alg, 4)
        _, quotient_rows = hopf_quotient(
            alg, [p.gen("c"), p.poly("a^5 - 1"), p.poly("b^5"),
                  p.poly("d^5 - 1")], label="taft-5")
        rows += check_normal(alg, [p.poly("a^5 + (q + 2)*b^5"),
                                   p.poly("c^5")])
        rows += verify_hopf_morphism(classical_sl2(), alg,
                                     gamma_embedding("odd", alg))
        kernel = kernel_sigma_t(GroupSpec("cyclic", n=3), "odd")
        return ([r.to_json() for r in rows + quotient_rows],
                [render_poly(g) for g in kernel.generators])

    expect = rows_of(sl2_algebra("odd", 5))
    products = {"with one": 0, "other": 0}
    frames = set()
    mul = CycRat.__mul__

    def counted(a, b):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):     # comprehensions
            frame = frame.f_back
        code = frame.f_code
        site = (os.path.basename(code.co_filename), code.co_name)
        if site in SKIPS_ONE:
            frames.add(site)
            one = CycRat.one(a.ell)
            products["with one" if a is one or b is one else "other"] += 1
        return mul(a, b)
    monkeypatch.setattr(CycRat, "__mul__", counted)
    got = rows_of(sl2_algebra("odd", 5))
    assert got == expect and all(r["status"] == "pass" for r in got[0])
    assert products["with one"] == 0 and products["other"] > 1000
    # every product tensor_normal_form would make here has a factor one
    assert frames == SKIPS_ONE - {("rewrite.py", "tensor_normal_form")}


@pytest.mark.parametrize("relations,check", [
    (["b - 1"], "hopf-ideal-counit"),
    (["b*c"], "hopf-ideal-delta"),
    (["a^5 - 1", "b^5", "b - q*c"], "hopf-ideal-delta")])
def test_quotient_raises_at_the_first_failing_check(monkeypatch, relations,
                                                    check):
    """NamedAlgebra.quotient names the first row hopf_quotient fails, in
    the same words, and renders that one relation alone."""
    from qsl2 import hopf

    alg = sl2_algebra("odd", 5)
    rels = [alg.pres.poly(r) for r in relations]
    _, rows = hopf_quotient(alg, rels, label="t", complete_to=8)
    first = next(r for r in rows if not r.ok)
    assert (first.check, first.witness) == (check, relations[-1])
    rendered = []
    monkeypatch.setattr(hopf, "render_poly",
                        lambda p, *a: rendered.append(p) or render_poly(p, *a))
    with pytest.raises(QSL2Error) as info:
        alg.quotient(rels, label="t", complete_to=8)
    assert str(info.value) == (f"not a Hopf ideal of oq-sl2(ell=5): "
                               f"{check} at {relations[-1]}")
    assert rendered == [rels[-1]]


def test_successful_quotients_render_no_relation(monkeypatch):
    """A construct_quotient that succeeds renders no relation inside hopf,
    its base builds included; hopf_quotient renders each relation once for
    its three rows."""
    from qsl2 import hopf

    rendered = []
    monkeypatch.setattr(hopf, "render_poly",
                        lambda p, *a: rendered.append(p) or render_poly(p, *a))
    for datum in (SubgroupDatum(parity="even", ell=6,
                                gamma=GroupSpec("cyclic", n=2),
                                N_generator=2, delta_exponent=1),
                  SubgroupDatum(parity="odd", ell=3, I_plus=(1,), I_minus=(),
                                gamma=GroupSpec("catalog", name="G_a"))):
        construct_quotient(datum)
    assert rendered == []
    alg = sl2_algebra("odd", 5)
    rels = [alg.pres.poly(r) for r in ("c", "a^5 - 1", "b^5", "d^5 - 1")]
    _, rows = hopf_quotient(alg, rels, label="taft-5")
    assert all_ok(rows) and len(rows) == 12
    assert rendered == rels


def test_counit_cache_is_per_instance_and_exact(battery_bases):
    def product_of_counits(alg, w):
        out = CycRat.one(alg.ell)
        for g in w:
            out = out * alg.hopf.counit[g]
        return out

    rng = random.Random(424)
    differs = 0
    for alg in battery_bases:
        words = [w for level in enumerate_basis(alg.pres, 4) for w in level]
        words += [(g,) for g in range(len(alg.gens))]
        for _ in range(2):          # cold, then warm
            for w in words:
                assert alg.counit_word(w) == product_of_counits(alg, w)
        for _ in range(6):
            mutant = _random_mutant(alg, rng)
            assert mutant.pres is alg.pres
            for w in words:
                assert mutant.counit_word(w) == product_of_counits(mutant, w)
                differs += mutant.counit_word(w) != alg.counit_word(w)
    assert differs > 0


def test_validation_rejects_mutant():
    alg = oq_sl2(3)
    d = dict(alg.hopf.delta)
    d[A] = TensorPoly.monomial(ABCD, alg.ell, ((A,), (A,)))
    with pytest.raises(QSL2Error) as info:
        named_algebra(alg.pres, d, alg.hopf.counit, alg.hopf.antipode, "bad")
    # the text names the first failing row of the report's checks
    rows = check_structure_well_defined(NamedAlgebra(
        alg.pres, HopfStructure(d, alg.hopf.counit, alg.hopf.antipode), "bad"))
    first = next(r for r in rows if not r.ok)
    assert str(info.value) == (f"Hopf structure ill-defined on bad: "
                               f"{first.check} at {first.witness}")


def finite_quotient(ell, kind):
    return oq_sl2(ell).quotient(quotient_ideal(kind, ell),
                                label=f"{kind}-{ell}", complete_to=3 * ell)


def test_finite_models():
    w3 = FiniteModel(finite_quotient(3, "widehat"))
    assert w3.dim == 27
    o4 = FiniteModel(finite_quotient(4, "overline"))
    assert o4.dim == 16


def test_not_finite_dimensional(oq5):
    with pytest.raises(NotFiniteDimensional):
        FiniteModel(oq5)


def test_structure_constants_associative():
    # sampled associativity of the 27-dimensional model's products:
    # an independent consistency check on the rewriting engine itself
    import random

    model = FiniteModel(finite_quotient(3, "widehat"))
    rng = random.Random(7)

    def product(i, j):
        # basis[i] * basis[j] in the basis, read off its normal form
        word = model.basis[i] + model.basis[j]
        return {model.index[w]: c
                for w, c in model.alg.pres.nf_word_terms(word).items()}

    def times(vec, j):
        out = {}
        for i, c in vec.items():
            for k, ck in product(i, j).items():
                acc = out.get(k)
                v = acc + c * ck if acc is not None else c * ck
                if v.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = v
        return out

    for _ in range(40):
        i, j, k = (rng.randrange(model.dim) for _ in range(3))
        left = times(product(i, j), k)
        right = {}
        for t, c in product(j, k).items():
            for u, cu in product(i, t).items():
                acc = right.get(u)
                v = acc + c * cu if acc is not None else c * cu
                if v.is_zero():
                    right.pop(u, None)
                else:
                    right[u] = v
        assert left == right


def test_antipode_involutive_at_minus_one():
    alg = o_minus1_sl2()
    for g in range(4):
        x = alg.pres.gen(g)
        assert alg.antipode(alg.antipode(x)) == alg.nf(x)


def test_grouplikes_taft():
    # the unipotent-line quotient: c = 0, powers of a and d identified
    alg = oq_sl2(5)
    p = alg.pres
    ideal = [p.gen("c"), p.poly("a^5 - 1"), p.poly("b^5"), p.poly("d^5 - 1")]
    taft = alg.quotient(ideal, label="taft-5", complete_to=12)
    rep = grouplikes(FiniteModel(taft))
    assert rep.count() == 5
    assert rep.complete


def test_grouplikes_group_algebra():
    # the full torus top at even ell = 4: a group algebra on 2m elements
    alg = oq_sl2(4)
    p = alg.pres
    ideal = [p.gen("b"), p.gen("c"), p.poly("a^4 - 1"), p.poly("d^4 - 1")]
    top = alg.quotient(ideal, label="torus-top-4", complete_to=12)
    rep = grouplikes(FiniteModel(top))
    assert rep.count() == 4 and rep.complete
    assert "every basis word is grouplike" in rep.method


def hopf_ideal_rows(alg, gens):
    return hopf_quotient(alg, gens)[1]


def test_hopf_ideals():
    alg3 = oq_sl2(3)
    assert all_ok(hopf_ideal_rows(alg3, quotient_ideal("widehat", 3)))
    alg6 = oq_sl2(6)
    assert all_ok(hopf_ideal_rows(alg6, quotient_ideal("overline", 6)))
    # non-example: (b - 1) has nonzero counit
    bad = [alg3.pres.poly("b - 1")]
    rep = hopf_ideal_rows(alg3, bad)
    assert any(r.check == "hopf-ideal-counit" and not r.ok for r in rep)


def test_quotient_shares_the_structure_maps():
    alg = oq_sl2(3)
    quot = alg.quotient(quotient_ideal("widehat", 3), label="widehat-3")
    assert quot.hopf is alg.hopf
    assert quot.label == quot.pres.label == "widehat-3"
    assert quot.pres.confluence == "complete"


def test_quotient_is_the_instance_its_hopf_ideal_rows_were_checked_on(
        monkeypatch):
    alg = oq_sl2(3)
    ideal = quotient_ideal("widehat", 3)
    checked = []
    real_delta, real_antipode = NamedAlgebra.delta, NamedAlgebra.antipode

    def delta(self, p):
        checked.append(self)
        return real_delta(self, p)

    def antipode(self, p):
        checked.append(self)
        return real_antipode(self, p)

    monkeypatch.setattr(NamedAlgebra, "delta", delta)
    monkeypatch.setattr(NamedAlgebra, "antipode", antipode)
    quot = alg.quotient(ideal, label="widehat-3")
    assert len(checked) == 2 * len(ideal)
    assert all(a is quot for a in checked)
    # so the words of the relations are already in its caches
    words = {w for j in ideal for w in j.terms}
    assert words <= quot._delta_cache.keys()
    assert words <= quot._antipode_cache.keys()


def test_quotient_by_a_non_hopf_ideal_raises():
    alg = oq_sl2(3)
    with pytest.raises(QSL2Error, match="hopf-ideal-counit at b - 1"):
        alg.quotient([alg.pres.poly("b - 1")])


def test_central_and_normal():
    alg3 = oq_sl2(3)
    assert all_ok(check_central(alg3, distinguished_subalgebra("L_odd", 3)))
    m1 = o_minus1_sl2()
    Bgens = distinguished_subalgebra("B_minus1", 2)
    assert not all_ok(check_central(m1, Bgens))
    assert all_ok(check_normal(m1, Bgens))
    alg4 = oq_sl2(4)
    N = distinguished_subalgebra("N_even", 4)
    assert not all_ok(check_central(alg4, N))
    assert all_ok(check_normal(alg4, N))


def test_identity_morphism(oq5):
    images = {g: oq5.pres.gen(g) for g in range(4)}
    rep = verify_hopf_morphism(oq5, oq5, images)
    assert all_ok(rep)


def test_collapsed_targets_send_constants_to_zero():
    # the maps reduce where they are made, the empty word's image included,
    # so nothing downstream reduces a constant of a collapsed target again
    alg = sl2_algebra("odd", 3)
    one = alg.pres.one()
    target, rows = hopf_quotient(alg, [one], label="collapsed")
    assert target.pres.collapsed
    assert [(r.check, r.ok) for r in rows] == [
        ("hopf-ideal-counit", False), ("hopf-ideal-delta", True),
        ("hopf-ideal-antipode", True)]
    assert target.delta_word(()).is_zero()
    assert target.antipode_word(()).is_zero()
    source = classical_sl2()
    images = gamma_embedding("odd", alg)
    assert map_poly(source.pres.one(), lambda w: (images[g] for g in w),
                    target).is_zero()
    rows = verify_hopf_morphism(source, target, images)
    assert {r.check for r in rows} == {
        "morphism-relation", "morphism-delta", "morphism-counit",
        "morphism-antipode"}
    assert all_ok(rows)


def test_coinvariants_identity_and_counit():
    alg = finite_quotient(3, "widehat")
    model = FiniteModel(alg)
    # pi = identity: coinvariants are the scalars
    coinv = coinvariants(model, alg.pres)
    assert len(coinv) == 1
    # pi = counit projection (quotient by the augmentation ideal):
    # everything is coinvariant
    p = alg.pres
    aug = [p.poly("a - 1"), p.gen("b"), p.gen("c"), p.poly("d - 1")]
    trivial = quotient_presentation(p, aug, complete_to=10, label="trivial")
    assert dimension(trivial, 6).value == 1
    coinv = coinvariants(model, trivial)
    assert len(coinv) == model.dim
