from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qsl2.cyclo import (
    CycRat,
    cyclotomic_polynomial,
    euler_phi,
    multiplicative_order,
    parse_scalar,
)
from qsl2.errors import MixedOrders


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def phi_by_division(ell):
    # Independent oracle: divide x^ell - 1 by the product of all lower Phi_d
    # using Fraction arithmetic and long division from scratch.
    num = [Fraction(0)] * (ell + 1)
    num[0], num[ell] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, ell):
        if ell % d == 0:
            den = [Fraction(c) for c in poly_mul(den, list(phi_by_division(d)))]
    # long division num / den
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    num = list(num)
    for k in range(len(num) - 1, len(den) - 2, -1):
        c = num[k] / den[-1]
        out[k - len(den) + 1] = c
        for j in range(len(den)):
            num[k - len(den) + 1 + j] -= c * den[j]
    assert not any(num[: len(den) - 1])
    return tuple(out)


def test_cyclotomic_trivial_and_derived():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)  # x^2 - x + 1
    for ell in [2, 3, 5, 8, 12]:
        expect = phi_by_division(ell)
        got = cyclotomic_polynomial(ell)
        assert tuple(Fraction(c) for c in got) == expect
        assert len(got) - 1 == euler_phi(ell)
        assert got[-1] == 1


def test_q_powers():
    assert CycRat.q_power(4, 2) == CycRat.from_rational(4, -1)
    q6 = CycRat.q_power(6, 1)
    assert q6**3 == -1
    assert multiplicative_order(q6**2) == 3
    q5 = CycRat.q_power(5, 1)
    assert q5.inverse() == q5**4
    assert multiplicative_order(q5**2) == 5
    assert multiplicative_order(CycRat.one(7)) == 1


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 8])
def test_order_of_q_is_ell(ell):
    q = CycRat.q_power(ell, 1)
    assert multiplicative_order(q) == ell
    for k in range(ell + 1):
        assert CycRat.q_power(ell, k) * CycRat.q_power(ell, ell - k) == 1


def test_mixed_orders_rejected():
    with pytest.raises(MixedOrders):
        CycRat.one(3) + CycRat.one(4)


def test_invert_zero():
    with pytest.raises(ZeroDivisionError):
        CycRat.zero(5).inverse()
    with pytest.raises(ZeroDivisionError):
        multiplicative_order(CycRat.zero(5))


def elements(ell):
    phi = euler_phi(ell)
    rats = st.fractions(min_value=-30, max_value=30, max_denominator=9)
    return st.lists(rats, min_size=phi, max_size=phi).map(
        lambda cs: CycRat.from_coeffs(ell, cs)
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 6, 8]).flatmap(
    lambda ell: st.tuples(elements(ell), elements(ell), elements(ell))
))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 5, 6]).flatmap(lambda ell: elements(ell)))
def test_render_roundtrip(a):
    assert parse_scalar(a.ell, a.render()) == a


# -- the unit tables against a schoolbook oracle ------------------------------
# The oracle works on Fraction coefficient lists of length phi: products are
# convolved in full and reduced mod Phi_ell by long division, with no table.

FIELDS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16]


def oracle_reduce(ell, vec):
    modulus = cyclotomic_polynomial(ell)
    phi = len(modulus) - 1
    vec = [Fraction(c) for c in vec] + [Fraction(0)] * phi
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            for j, m in enumerate(modulus):
                vec[k - phi + j] -= c * m
    return vec[:phi]


def oracle_mul(ell, a, b):
    return oracle_reduce(ell, poly_mul(a, b))


def oracle_pow(ell, a, k):
    out = oracle_reduce(ell, [1])
    for _ in range(k):
        out = oracle_mul(ell, out, a)
    return out


def oracle_unit(ell, sign, k):
    return oracle_reduce(ell, [0] * (k % ell) + [sign])


def assert_matches(got, ell, coeffs):
    # the canonical form of a Fraction vector: den is the lcm of the
    # denominators, which leaves the content reduced
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    expect = CycRat(ell, tuple(int(c * den) for c in coeffs), den)
    assert got.ell == ell
    assert type(got.num) is tuple
    assert (got.num, got.den) == (expect.num, expect.den)
    assert hash(got) == hash(expect)


@st.composite
def field_element(draw, ell):
    """A +-q^k with k in -ell..2*ell, or an integral or rational element."""
    phi = euler_phi(ell)
    kind = draw(st.sampled_from(["unit", "unit", "integral", "rational"]))
    if kind == "unit":
        coeffs = oracle_unit(ell, draw(st.sampled_from([1, -1])),
                             draw(st.integers(-ell, 2 * ell)))
    else:
        rats = st.fractions(min_value=-12, max_value=12,
                            max_denominator=1 if kind == "integral" else 6)
        coeffs = [Fraction(c) for c in draw(
            st.lists(rats, min_size=phi, max_size=phi))]
    return CycRat.from_coeffs(ell, coeffs), coeffs


scalars = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-5, 5),
                    st.fractions(min_value=-4, max_value=4, max_denominator=5))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda ell: st.tuples(
    st.just(ell), field_element(ell), field_element(ell), scalars,
    st.integers(-3, 4))))
def test_fast_paths_match_oracle(case):
    ell, (a, ca), (b, cb), n, k = case
    one = oracle_reduce(ell, [1])
    assert_matches(a * b, ell, oracle_mul(ell, ca, cb))
    assert_matches(a + b, ell, [x + y for x, y in zip(ca, cb)])
    cn = oracle_reduce(ell, [n])
    assert_matches(a * n, ell, oracle_mul(ell, ca, cn))
    assert_matches(n * a, ell, oracle_mul(ell, ca, cn))
    assert_matches(a + n, ell, [x + y for x, y in zip(ca, cn)])
    other = CycRat.q_power(ell + 1, 1)
    for op in (lambda x, y: x * y, lambda x, y: y * x, lambda x, y: x + y):
        with pytest.raises(MixedOrders):
            op(a, other)
    if a.is_zero():
        return
    inv = a.inverse()
    assert_matches(inv, ell, list(inv.coeffs))
    assert oracle_mul(ell, ca, list(inv.coeffs)) == one
    power = a ** k
    if k >= 0:
        assert_matches(power, ell, oracle_pow(ell, ca, k))
    else:
        assert_matches(power, ell, list(power.coeffs))
        assert oracle_mul(ell, list(power.coeffs), oracle_pow(ell, ca, -k)) == one


@pytest.mark.parametrize("ell", FIELDS + [10])
def test_from_coeffs_any_length_and_q_power(ell):
    for k in range(-ell, 3 * ell + 1):
        assert_matches(CycRat.q_power(ell, k), ell, oracle_unit(ell, 1, k))
    for length in range(3 * ell + 1):
        coeffs = [Fraction((-1) ** k * (k + 1), k % 3 + 1) for k in range(length)]
        expect = CycRat.zero(ell)
        for k, c in enumerate(coeffs):
            expect = expect + c * CycRat.q_power(ell, k)
        assert CycRat.from_coeffs(ell, coeffs) == expect
        assert CycRat.from_coeffs(ell, [1] * length) == sum(
            (CycRat.q_power(ell, k) for k in range(length)), CycRat.zero(ell))
