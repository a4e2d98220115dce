import random

import pytest

from qsl2.cyclo import CycRat
from qsl2.errors import NotFiniteDimensional, QSL2Error
from qsl2.hopf import (FiniteModel, HopfStructure, NamedAlgebra, all_ok,
                       check_axioms, check_central, check_normal,
                       check_structure_well_defined, coinvariants, grouplikes,
                       hopf_quotient, map_poly, named_algebra,
                       verify_hopf_morphism, _first_failure)
from qsl2.ncalg import NCPoly, TensorPoly
from qsl2.presentations import (ABCD, classical_sl2, distinguished_subalgebra,
                                o_minus1_sl2, oq_sl2, quotient_ideal,
                                sl2_algebra, _sl2_order, _sl2_relations)
from qsl2.rewrite import (build_presentation, dimension, enumerate_basis,
                          quotient_presentation, tensor_normal_form)
from qsl2.subgroups import gamma_embedding

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


def reference_check_axioms(alg, sample_deg=3):
    """The battery's three laws with every side reduced to normal form
    before comparing: check_axioms must give the same rows."""
    words = [w for level in enumerate_basis(alg.pres, sample_deg)
             for w in level]
    for g in range(len(alg.gens)):
        w = (g,)
        if alg.pres.is_irreducible(w) and w not in words:
            words.append(w)

    def coassociative(w):
        dw = alg.delta_word(w)
        left = tensor_normal_form(alg.pres, dw.expand_leg(0, alg.delta_word))
        right = tensor_normal_form(alg.pres, dw.expand_leg(1, alg.delta_word))
        return (left - right).is_zero()

    def counit_law(w):
        lhs = alg.pres.zero()
        rhs = alg.pres.zero()
        for (u, v), c in alg.delta_word(w).terms.items():
            lhs = lhs + NCPoly.monomial(alg.gens, alg.ell, v,
                                        c * alg.counit_word(u))
            rhs = rhs + NCPoly.monomial(alg.gens, alg.ell, u,
                                        c * alg.counit_word(v))
        target = NCPoly.monomial(alg.gens, alg.ell, w)
        return (alg.nf(lhs - target).is_zero()
                and alg.nf(rhs - target).is_zero())

    def antipode_law(w):
        left = alg.pres.zero()
        right = alg.pres.zero()
        for (u, v), c in alg.delta_word(w).terms.items():
            left = left + (alg.antipode_word(u)
                           * NCPoly.monomial(alg.gens, alg.ell, v)) * c
            right = right + (NCPoly.monomial(alg.gens, alg.ell, u)
                             * alg.antipode_word(v)) * c
        target = alg.pres.one() * alg.counit_word(w)
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
                assert all(alg.pres.is_irreducible(leg)
                           for key in t.terms for leg in key), (alg.label, w)


def test_validation_rejects_mutant():
    alg = oq_sl2(3)
    d = dict(alg.hopf.delta)
    d[A] = TensorPoly.monomial(ABCD, alg.ell, ((A,), (A,)))
    with pytest.raises(QSL2Error):
        named_algebra(alg.pres, d, alg.hopf.counit, alg.hopf.antipode, "bad")


def finite_quotient(ell, kind):
    return oq_sl2(ell).quotient(quotient_ideal(kind, ell),
                                label=f"{kind}-{ell}", complete_to=3 * ell)


def test_finite_models():
    w3 = FiniteModel(finite_quotient(3, "widehat"))
    assert w3.dim == 27
    o4 = FiniteModel(finite_quotient(4, "overline"))
    assert o4.dim == 16
    # spot check: the product table agrees with direct normal forms
    i, j = 1, 2
    prod = w3.product(i, j)
    direct = w3.alg.pres.nf_word_terms(w3.basis[i] + w3.basis[j])
    assert prod == {w3.index[w]: c for w, c in direct.items()}


def test_not_finite_dimensional(oq5):
    with pytest.raises(NotFiniteDimensional):
        FiniteModel(oq5)


def test_structure_constants_associative():
    # sampled associativity of the 27-dimensional model's product table:
    # an independent consistency check on the rewriting engine itself
    import random

    model = FiniteModel(finite_quotient(3, "widehat"))
    rng = random.Random(7)

    def times(vec, j):
        out = {}
        for i, c in vec.items():
            for k, ck in model.product(i, j).items():
                acc = out.get(k)
                v = acc + c * ck if acc is not None else c * ck
                if v.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = v
        return out

    for _ in range(40):
        i, j, k = (rng.randrange(model.dim) for _ in range(3))
        left = times(model.product(i, j), k)
        right = {}
        for t, c in model.product(j, k).items():
            for u, cu in model.product(i, t).items():
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
    assert rep.group_order == 5


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
    images = gamma_embedding("odd", alg)[0]
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
