import pytest
from hypothesis import given, settings, strategies as st

from qsl2.cyclo import CycRat, parse_scalar
from qsl2.errors import MixedAlgebras
from qsl2.ncalg import MonomialOrder, NCPoly, TensorPoly, parse_poly, render_poly

GENS = ("a", "b", "c", "d")
ELL = 5


def gen(i):
    return NCPoly.generator(GENS, ELL, i)


def test_free_product_no_commutation():
    a, b = gen(0), gen(1)
    p = (a + b) * (a - b)
    # a^2 - ab + ba - b^2 in the free algebra
    assert p.coefficient((0, 0)) == 1
    assert p.coefficient((0, 1)) == -1
    assert p.coefficient((1, 0)) == 1
    assert p.coefficient((1, 1)) == -1
    assert len(p.terms) == 4


def test_zero_annihilates():
    p = gen(0) * gen(3) + gen(1)
    assert (NCPoly.zero(GENS, ELL) * p).is_zero()
    assert p.scale(CycRat.zero(ELL)).is_zero()


def test_tensor_componentwise():
    aa = TensorPoly.monomial(GENS, ELL, ((0,), (0,)))
    bc = TensorPoly.monomial(GENS, ELL, ((1,), (2,)))
    prod = aa * bc
    assert prod.terms == {((0, 1), (0, 2)): CycRat.one(ELL)}


def test_mixed_algebras_rejected():
    p = NCPoly.generator(("x", "y"), ELL, 0)
    with pytest.raises(MixedAlgebras):
        gen(0) + p


def test_compare_plain_deglex():
    key = MonomialOrder(4).key
    assert key((0,)) < key((0, 0))  # degree dominates
    assert key((0, 3)) < key((1, 2))  # ad < bc letterwise
    assert key((1, 0)) == key((1, 0))


def test_compare_weighted():
    key = MonomialOrder(4, weights=(2, 1, 1, 2)).key
    # with a,d heavy the determinant orientation ad > bc holds
    assert key((0, 3)) > key((1, 2))
    # and all commutation rules still orient descents to the right
    assert key((1, 0)) > key((0, 1))  # ba > ab
    assert key((3, 1)) > key((1, 3))  # db > bd


words = st.lists(st.integers(min_value=0, max_value=3), max_size=6).map(tuple)


@settings(max_examples=80, deadline=None)
@given(words, words, words)
def test_order_total_and_concat_compatible(u, v, w):
    key = MonomialOrder(4, weights=(2, 1, 1, 2)).key
    assert (key(u) == key(v)) == (u == v)
    if key(u) < key(v):
        assert key(w + u) < key(w + v)
        assert key(u + w) < key(v + w)


def scalars():
    return st.integers(min_value=-4, max_value=4).map(
        lambda n: CycRat.from_rational(ELL, n)
    )


def polys():
    return st.lists(st.tuples(words, scalars()), max_size=4).map(
        lambda items: NCPoly.from_terms(GENS, ELL, items)
    )


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, r, s):
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s
    assert (p + r) * s == p * s + r * s


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leading_word_multiplicative(p, r):
    order = MonomialOrder(4, weights=(2, 1, 1, 2))
    if p.is_zero() or r.is_zero():
        return
    lw = max((p * r).terms, key=order.key)
    assert lw == max(p.terms, key=order.key) + max(r.terms, key=order.key)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_render_parse_roundtrip(p):
    text = render_poly(p)
    assert parse_poly(text, GENS, ELL) == p


def test_render_example():
    q2 = CycRat.q_power(ELL, 2)
    p = NCPoly.monomial(GENS, ELL, (0, 1), q2) - NCPoly.one(GENS, ELL)
    assert render_poly(p) == "q^2*a*b - 1"
    assert parse_poly("q^2*a*b - 1", GENS, ELL) == p


# -- the one grammar of scalar and polynomial text -----------------------------

MALFORMED = ["a^-1", "a^", "*a", "a*", "a+*b", "-", "a - ", "", "1/0",
             "(" * 1000 + "a" + ")" * 1000, "(" * 1000 + "1" + ")" * 1000,
             "a - -b", "--a", "1.5", "1e3", "a^2^3", "(a)*b", "2q", "e",
             "(1 + q", "1 + q)", "a^10001"]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_raises_value_error(text):
    with pytest.raises(ValueError) as err:
        parse_poly(text, GENS, ELL)
    assert repr(text) in str(err.value)


def test_q_inverse_reads_alike_in_both_parsers():
    a = NCPoly.generator(GENS, ELL, 0)
    assert parse_poly("q^-1*a", GENS, ELL) == parse_scalar(ELL, "q^-1") * a
    assert parse_scalar(ELL, "q^-1") == CycRat.q_power(ELL, -1)


def test_grammar_examples():
    q = CycRat.q_power(ELL, 1)
    a, b = gen(0), gen(1)
    assert parse_poly("((1 + q))*a", GENS, ELL) == (1 + q) * a
    assert (parse_poly("(1 + q)^2*a^3*b - 3/2*q^2 + 4", GENS, ELL)
            == (1 + q) ** 2 * a * a * a * b
            + NCPoly.one(GENS, ELL).scale(4 - CycRat.from_rational(ELL, "3/2") * q * q))
    assert parse_poly("a^0 + 0^0", GENS, ELL) == NCPoly.one(GENS, ELL).scale(
        CycRat.from_rational(ELL, 2))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/qabcd^*+-() ", max_size=40))
def test_any_text_parses_or_raises_value_error(text):
    for parse in (lambda t: parse_poly(t, GENS, ELL),
                  lambda t: parse_scalar(ELL, t)):
        try:
            parse(text)
        except ValueError:
            pass


def tuple_key(order, word):
    """The per-letter key: weight, length, then the precedence of each
    letter."""
    return (sum(order.weights[g] for g in word), len(word),
            tuple(order.precedence[g] for g in word))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_byte_table_key_orders_as_the_tuple_key(data):
    ngens = data.draw(st.integers(min_value=1, max_value=6))
    precedence = data.draw(st.permutations(range(ngens)))
    weights = data.draw(st.lists(st.sampled_from([1, 2, 3, 300]),
                                 min_size=ngens, max_size=ngens))
    order = MonomialOrder(ngens, precedence=precedence, weights=weights)
    assert (order.tables is None) == (max(weights) > 255)
    words = data.draw(st.lists(st.lists(
        st.integers(min_value=0, max_value=ngens - 1), max_size=7).map(tuple),
        min_size=1, max_size=16, unique=True))
    ref = lambda w: tuple_key(order, w)
    assert sorted(words, key=order.key) == sorted(words, key=ref)
    assert max(words, key=order.key) == max(words, key=ref)
    for u in words:
        for v in words:
            assert ((order.key(u) < order.key(v))
                    == (tuple_key(order, u) < tuple_key(order, v)))


def test_key_falls_back_past_the_byte_tables():
    assert MonomialOrder(256).tables is not None
    for order in (MonomialOrder(257), MonomialOrder(2, weights=(1, 256))):
        assert order.tables is None
        assert order.key((1, 0, 1)) == tuple_key(order, (1, 0, 1))


@pytest.mark.parametrize("kwargs,message", [
    ({"precedence": [3, 2]}, "need 4 entries"),
    ({"precedence": [0, 1, 2, 3, 4]}, "need 4 entries"),
    ({"weights": [1, 1, 1]}, "need 4 entries"),
    ({"precedence": [0, 1, 1, 2]}, "distinct"),
    ({"precedence": [0, 300, 2, 300]}, "distinct"),
    ({"weights": [1, 0, 1, 1]}, "positive")])
def test_order_refuses_a_malformed_precedence_or_weights(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MonomialOrder(4, **kwargs)


def test_presentation_document_with_repeated_precedences_is_refused():
    from qsl2.presentations import oq_sl2
    from qsl2.rewrite import presentation_from_json

    doc = oq_sl2(3).pres.to_json()
    doc["order"]["precedence"] = [0, 1, 1, 2]
    with pytest.raises(ValueError, match="distinct"):
        presentation_from_json(doc)
