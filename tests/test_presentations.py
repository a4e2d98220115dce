from itertools import product

import pytest

from qsl2 import presentations
from qsl2.cyclo import CycRat, multiplicative_order
from qsl2.errors import ParamOutOfRange, ParityMismatch, QSL2Error
from qsl2.exactla import span_dim
from qsl2.ncalg import NCPoly, TensorPoly, render_poly
from qsl2.presentations import (ABCD, QUAD_PAIRS, QUAD_PAIRS_ALL, XGENS,
                                classical_sl2,
                                classical_sl2_presentation,
                                distinguished_subalgebra, o_minus1_sl2,
                                oq_sl2, phi_images, psl2_model,
                                quotient_ideal, sl2_algebra, sl2_parity,
                                verify_psl2_embedding, phi_even_images)
from qsl2.rewrite import (check_confluence, dimension, enumerate_basis,
                          normal_form, quotient_presentation)


def test_oq_relations_hold():
    alg = oq_sl2(5)
    p = alg.pres
    q = p.q
    assert normal_form(p, p.poly("a*b") - p.poly("b*a") * q).is_zero()
    assert normal_form(p, p.poly("a*d") - p.poly("b*c") * q - p.one()).is_zero()


def test_oq_rejects_small_ell():
    with pytest.raises(QSL2Error):
        oq_sl2(2)
    with pytest.raises(QSL2Error):
        oq_sl2(1)


def test_counit_kills_determinant():
    alg = oq_sl2(4)
    q = alg.pres.q
    det = alg.pres.poly("a*d") - alg.pres.poly("b*c") * q - alg.pres.one()
    assert alg.counit(det).is_zero()


def test_antipode_square_on_b():
    # S^2(b) = q^-2 b, which at ell = 4 equals q^2 b
    alg = oq_sl2(4)
    b = alg.pres.gen("b")
    s2 = alg.antipode(alg.antipode(b))
    assert s2 == b * CycRat.q_power(4, 2)


def test_minus_one_presentation():
    alg = o_minus1_sl2()
    p = alg.pres
    assert normal_form(p, p.poly("a*d") - p.poly("d*a")).is_zero()
    assert normal_form(p, p.poly("a*d") + p.poly("b*c") - p.one()).is_zero()
    assert normal_form(p, p.poly("b*a") + p.poly("a*b")).is_zero()
    assert multiplicative_order(p.q) == 2


def test_classical_sl2():
    alg = classical_sl2()
    p = alg.pres
    assert normal_form(p, p.poly("x11*x22 - x12*x21 - 1")).is_zero()
    assert normal_form(p, p.poly("x21*x11 - x11*x21")).is_zero()


def test_classical_quadratic_products_have_rank_nine():
    # the ten products of two coordinates span the degree-2 component with
    # one dependency, the determinant: x11*x22 = 1 + x12*x21
    pres = classical_sl2().pres
    quadratic = [{w: c for w, c in normal_form(
        pres, NCPoly.monomial(XGENS, 1, pair)).terms.items() if len(w) == 2}
        for pair in QUAD_PAIRS_ALL]
    assert len(quadratic) == 10 and span_dim(quadratic) == 9


def test_classical_normal_forms_keep_parity():
    # every defining relation is parity-homogeneous, so the even part is
    # closed: a word's normal form has only words of its length's parity
    pres = classical_sl2().pres
    words = [w for k in range(5) for w in product(range(4), repeat=k)]
    assert len(words) == 341
    for w in words:
        nf = normal_form(pres, NCPoly.monomial(XGENS, 1, w))
        assert all((len(v) - len(w)) % 2 == 0 for v in nf.terms), w
    # x12*x21 reduces to x11*x22 - 1, evenly
    assert normal_form(pres, pres.poly("x12*x21")).terms.keys() == {
        (), (0, 3)}


def test_classical_even_normal_words_by_degree():
    levels = enumerate_basis(classical_sl2().pres, 4)
    assert [len(levels[k]) for k in (0, 2, 4)] == [1, 9, 25]


def test_psl2_model_refuses_products_past_its_degree():
    model = psl2_model(8)
    assert len(model.products(1)) == len(QUAD_PAIRS) == 9
    with pytest.raises(ParamOutOfRange, match="degree 10 > 8"):
        model.products(5)


@pytest.mark.parametrize("kind,ell,expected", [
    ("widehat", 3, ["a^3 - 1", "b^3", "c^3", "d^3 - 1"]),
    ("overline", 6, ["a^6 - 1", "b^3", "c^3", "d^6 - 1"]),
])
def test_quotient_ideal_lists(kind, ell, expected):
    gens = quotient_ideal(kind, ell)
    assert [render_poly(g) for g in gens] == expected


def test_quotient_ideal_parity_mismatch():
    with pytest.raises(ParityMismatch):
        quotient_ideal("overline", 5)
    with pytest.raises(ParityMismatch):
        quotient_ideal("widehat", 4)


@pytest.mark.parametrize("parity, ell", [
    ("odd", 4), ("even", 3), ("even", 5), ("minus_one", 3), ("minus_one", 4),
    ("generic", 3),
])
def test_sl2_algebra_refuses_a_parity_that_disagrees_with_ell(parity, ell):
    assert sl2_algebra(sl2_parity(ell), ell).pres.parity == sl2_parity(ell)
    with pytest.raises(ParityMismatch):
        sl2_algebra(parity, ell)


def test_sl2_algebra_checks_the_range_before_the_parity():
    # ell = 2 is q = -1: a generic regime asks for ell >= 3 first, with a
    # plain ParamOutOfRange rather than its ParityMismatch subclass
    for parity in ("odd", "even"):
        with pytest.raises(ParamOutOfRange) as exc:
            sl2_algebra(parity, 2)
        assert exc.type is ParamOutOfRange


def test_distinguished_subalgebras():
    L = distinguished_subalgebra("L_odd", 3)
    assert [render_poly(g) for g in L] == ["a^3", "b^3", "c^3", "d^3"]
    B = distinguished_subalgebra("B_minus1", 2)
    assert len(B) == 9
    N = distinguished_subalgebra("N_even", 4)
    assert len(N) == 16
    assert render_poly(N[0]) == "a^4"  # a^m a^m with m = 2
    with pytest.raises(ParityMismatch):
        distinguished_subalgebra("L_odd", 4)
    with pytest.raises(ParityMismatch):
        distinguished_subalgebra("N_even", 5)


def test_phi_matrix_entries():
    # at q = -1 (m = 1) every pair maps to its word in a, b, c, d; b^2, bc,
    # bd, c^2 and cd carry a minus
    alg = o_minus1_sl2()
    phi = phi_images(alg)
    assert {pair: render_poly(img) for pair, img in phi.items()} == {
        (0, 0): "a^2", (0, 1): "a*b", (0, 2): "a*c", (0, 3): "a*d",
        (1, 1): "-b^2", (1, 2): "-b*c", (1, 3): "-b*d",
        (2, 2): "-c^2", (2, 3): "-c*d", (3, 3): "d^2"}


def test_classical_structure_maps_are_the_matrix_coalgebra():
    hopf = classical_sl2().hopf
    x = {(i, j): 2 * (i - 1) + (j - 1) for i in (1, 2) for j in (1, 2)}
    for (i, j), g in x.items():
        delta = TensorPoly.zero(XGENS, 1)
        for s in (1, 2):
            delta = delta + TensorPoly.monomial(XGENS, 1,
                                                ((x[i, s],), (x[s, j],)))
        assert hopf.delta[g] == delta
        assert hopf.counit[g] == CycRat.from_rational(1, int(i == j))
        # S is the adjugate: S(x_ij) = (-1)^(i+j) x_{3-j,3-i}
        assert hopf.antipode[g] == NCPoly.monomial(
            XGENS, 1, (x[3 - j, 3 - i],), CycRat.from_rational(1, (-1) ** (i + j)))


def test_phi_embedding_is_hopf_map():
    model = psl2_model(8)
    alg = o_minus1_sl2()
    rep = verify_psl2_embedding(model, alg, phi_images(alg), 2)
    assert all(r.ok for r in rep)


@pytest.mark.parametrize("ell", [2, 4])
def test_psl2_embedding_check_fails_on_wrong_images(ell):
    model = psl2_model(8)
    alg = o_minus1_sl2() if ell == 2 else oq_sl2(ell)
    images = phi_images(alg)

    def failures(wrong):
        rows = verify_psl2_embedding(model, alg, {**images, **wrong}, 2)
        return {(r.check, r.witness) for r in rows if not r.ok}

    # x11*x12 -> -a^m b^m: the sign breaks Delta and S where it occurs
    assert failures({(0, 1): -images[(0, 1)]}) == {
        ("psl2-map-dependencies", "degree 4: 12 dependencies"),
        ("psl2-map-delta", "x11*x11"), ("psl2-map-delta", "x11*x12"),
        ("psl2-map-delta", "x12*x12"), ("psl2-map-delta", "x12*x21"),
        ("psl2-map-delta", "x21*x22"), ("psl2-map-antipode", "x11*x12"),
        ("psl2-map-antipode", "x12*x22")}
    swapped = failures({(0, 2): images[(1, 2)], (1, 2): images[(0, 2)]})
    assert ("psl2-map-antipode", "x12*x21") in swapped
    assert ("psl2-map-delta", "x11*x21") in swapped


@pytest.mark.parametrize("ell", [4, 6])
def test_even_embedding_is_hopf_map(ell):
    model = psl2_model(8)
    alg = oq_sl2(ell)
    rep = verify_psl2_embedding(model, alg, phi_even_images(alg), 2)
    assert all(r.ok for r in rep)


# -- the two orders of the SL2 base -----------------------------------------------


def _bases(ell):
    """The public PBW base and the finite-order base of quotient work."""
    if ell == 2:
        return o_minus1_sl2(), sl2_algebra("minus_one", 2)
    return oq_sl2(ell), sl2_algebra("odd" if ell % 2 else "even", ell)


def _rule_polys(pres):
    return [NCPoly.monomial(ABCD, pres.ell, lhs)
            - NCPoly(ABCD, pres.ell, dict(rhs))
            for lhs, rhs in pres.rules.items()]


@pytest.mark.parametrize("ell", [3, 4, 7, 2])
def test_pbw_and_finite_bases_present_one_algebra(ell):
    pbw, fin = _bases(ell)
    assert pbw.pres.confluence == "bounded(8)"
    for rule in _rule_polys(pbw.pres):
        assert normal_form(fin.pres, rule).is_zero()
    for rule in _rule_polys(fin.pres):
        assert normal_form(pbw.pres, rule).is_zero()


@pytest.mark.parametrize("ell", [3, 4, 7, 2])
def test_change_of_basis_is_diagonal(ell):
    # a^l b^m c^s = a^l c^s b^m and b^m c^s d^t = q^(t(s+m)) d^t c^s b^m:
    # each PBW word is a unit multiple of one finite-order normal word
    _, fin = _bases(ell)
    p = fin.pres
    a, b, c, d = (0,), (1,), (2,), (3,)
    for x in range(4):
        for m in range(4):
            for s in range(4):
                rhs = NCPoly.monomial(ABCD, p.ell, a * x + c * s + b * m)
                lhs = NCPoly.monomial(ABCD, p.ell, a * x + b * m + c * s)
                assert normal_form(p, rhs) == rhs
                assert normal_form(p, lhs) == rhs
                rhs = NCPoly.monomial(ABCD, p.ell, d * x + c * s + b * m,
                                      p.q ** (x * (s + m)))
                lhs = NCPoly.monomial(ABCD, p.ell, b * m + c * s + d * x)
                assert normal_form(p, rhs) == rhs
                assert normal_form(p, lhs) == rhs


@pytest.mark.parametrize("ell", [3, 4, 7, 2])
def test_finite_base_is_totally_confluent(ell):
    _, fin = _bases(ell)
    pres = fin.pres
    assert len(pres.rules) == 7
    assert pres.confluence == "complete"
    assert all(len(lhs) == 2 for lhs in pres.rules)
    # every overlap of two quadratic left-hand sides has length 3
    assert check_confluence(pres, 3) == []
    levels = enumerate_basis(pres, 12)
    assert [len(level) for level in levels] == [(n + 1) ** 2
                                                for n in range(13)]


def _series(*runs):
    """Coefficients of prod (1 - t^r)/(1 - t) over the runs r."""
    coeffs = [1]
    for r in runs:
        out = [0] * (len(coeffs) + r - 1)
        for i, c in enumerate(coeffs):
            for j in range(r):
                out[i + j] += c
        coeffs = out
    return coeffs


def test_finite_quotients_complete_to_seven_rules_in_closed_form():
    # once a^ell = 1, d -> a^(ell-1) (1 + q bc) is a rule, so the normal
    # words are a^i c^k b^j: i < ell and j, k below the power of b and c
    # that the ideal kills (ell for widehat, ell/2 for overline)
    cases = [("widehat", ell, (ell, ell, ell)) for ell in range(3, 22, 2)]
    cases += [("overline", ell, (ell, ell // 2, ell // 2))
              for ell in range(4, 21, 2)]
    for kind, ell, runs in cases:
        base = sl2_algebra(sl2_parity(ell), ell)
        quot = quotient_presentation(base.pres, quotient_ideal(kind, ell))
        assert quot.confluence == "complete", (kind, ell)
        assert len(quot.rules) == 7, (kind, ell)
        assert (3,) in quot.rules, (kind, ell)
        assert dimension(quot).counts == _series(*runs) + [0], (kind, ell)


# -- one checked build per base, a fresh instance per call --------------------


@pytest.fixture
def empty_memo(monkeypatch):
    """The base memo emptied for one test, and restored after it."""
    memo: dict = {}
    monkeypatch.setattr(presentations, "_BASES", memo)
    return memo


def _caches(x):
    """The caches a base instance fills: its presentation's normal forms
    and, for a NamedAlgebra, its three structure-map caches."""
    if hasattr(x, "pres"):
        return [x.pres.cache, x._delta_cache, x._antipode_cache,
                x._counit_cache]
    return [x.cache]


def _pres(x):
    return x.pres if hasattr(x, "pres") else x


BASE_CALLS = [lambda: sl2_algebra("odd", 3), lambda: sl2_algebra("even", 4),
              lambda: sl2_algebra("minus_one", 2), lambda: classical_sl2(),
              lambda: classical_sl2_presentation(4)]
BASE_IDS = ["odd-3", "even-4", "minus-one", "classical", "classical-pres-4"]


@pytest.mark.parametrize("make", BASE_CALLS, ids=BASE_IDS)
def test_each_call_returns_a_fresh_instance(empty_memo, make):
    first, second = make(), make()
    assert first is not second
    assert _pres(first) is not _pres(second)
    for c1, c2 in zip(_caches(first), _caches(second)):
        assert c1 is not c2
    # the immutable parts are shared, the automaton included
    assert _pres(first).rules is _pres(second).rules
    assert _pres(first)._automaton is _pres(second)._automaton is not None
    if hasattr(first, "hopf"):
        assert first.hopf is second.hopf
    # the memo keeps one copy per base, without the caches its check filled
    for kept in empty_memo.values():
        assert all(c == {} for c in _caches(kept))


def _same_base(x, y):
    px, py = _pres(x), _pres(y)
    assert px.rules == py.rules
    assert px.defining == py.defining
    assert (px.gens, px.ell, px.q, px.parity, px.label, px.confluence,
            px.order.precedence, px.order.weights) == \
        (py.gens, py.ell, py.q, py.parity, py.label, py.confluence,
         py.order.precedence, py.order.weights)
    if hasattr(x, "hopf"):
        assert x.label == y.label
        assert x.hopf.delta == y.hopf.delta
        assert x.hopf.counit == y.hopf.counit
        assert x.hopf.antipode == y.hopf.antipode


@pytest.mark.parametrize("parity,ell,conductors", [
    ("odd", 3, (3, 6)), ("even", 4, (4, 8)), ("minus_one", 2, (2, 4))])
def test_memoized_base_equals_an_uncached_build(empty_memo, parity, ell,
                                                conductors):
    for cond in conductors:
        uncached = presentations._sl2(ell, cond,
                                      presentations._sl2_order(ell), None)
        sl2_algebra(parity, ell, conductor=cond)
        hit = sl2_algebra(parity, ell, conductor=cond)
        assert ("sl2", ell, cond) in empty_memo
        _same_base(hit, uncached)


@pytest.mark.parametrize("conductor", [1, 4])
def test_memoized_classical_ring_equals_an_uncached_build(monkeypatch,
                                                          conductor):
    monkeypatch.setattr(presentations, "_BASES", {})
    built = classical_sl2(conductor)
    hit = classical_sl2(conductor)
    _same_base(hit, built)
    _same_base(classical_sl2_presentation(conductor), built)
    monkeypatch.setattr(presentations, "_BASES", {})
    _same_base(classical_sl2_presentation(conductor), built)


def _count_builds(monkeypatch):
    """Patch the base builds: each completion of a base appends its label."""
    labels = []
    real = presentations.build_presentation

    def counting(*args, **kwargs):
        labels.append(kwargs.get("label"))
        return real(*args, **kwargs)

    monkeypatch.setattr(presentations, "build_presentation", counting)
    return labels


def test_a_defaulted_and_the_resolved_conductor_share_one_build(
        empty_memo, monkeypatch):
    builds = _count_builds(monkeypatch)
    sl2_algebra("odd", 3)
    sl2_algebra("odd", 3, conductor=3)
    assert len(builds) == 1
    # at q = -1 an odd conductor is doubled: None, 1 and 2 resolve to 2
    sl2_algebra("minus_one", 2)
    sl2_algebra("minus_one", 2, conductor=1)
    sl2_algebra("minus_one", 2, conductor=2)
    assert len(builds) == 2
    sl2_algebra("odd", 3, conductor=6)
    assert len(builds) == 3
    assert sorted(empty_memo) == [("sl2", 2, 2), ("sl2", 3, 3), ("sl2", 3, 6)]


def test_bad_input_raises_on_every_call(empty_memo):
    sl2_algebra("odd", 3)
    for _ in range(2):
        with pytest.raises(ParityMismatch):
            sl2_algebra("even", 3)
        with pytest.raises(ParityMismatch):
            sl2_algebra("minus_one", 3)
        for args, kwargs in ((("odd", 3), {"conductor": 4}),
                             (("odd", 1), {}), (("odd", 2), {})):
            with pytest.raises(ParamOutOfRange) as exc:
                sl2_algebra(*args, **kwargs)
            assert exc.type is ParamOutOfRange
    assert list(empty_memo) == [("sl2", 3, 3)]


@pytest.mark.parametrize("make", BASE_CALLS[:4], ids=BASE_IDS[:4])
def test_relabelling_or_filling_an_instance_stays_in_it(empty_memo, make):
    first = make()
    label, pres_label = first.label, first.pres.label
    first.label = first.pres.label = "relabelled"
    gens = range(len(first.gens))
    for g in gens:
        for h in gens:
            first.delta_word((g, h))
            first.antipode_word((g, h))
            first.counit_word((g, h))
    assert all(_caches(first))
    second = make()
    assert (second.label, second.pres.label) == (label, pres_label)
    assert all(c == {} for c in _caches(second))
