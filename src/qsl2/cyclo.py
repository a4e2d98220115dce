"""Exact arithmetic in the cyclotomic field Q(zeta_ell) = Q[x]/Phi_ell(x).

Elements are residues mod the ell-th cyclotomic polynomial, stored as an
integer coefficient vector with a common positive denominator, always in
reduced form so equality and hashing are structural.  The class of x is the
distinguished root of unity q with q^ell = 1 and no smaller power trivial.

Most scalars the workbench multiplies are units +-q^k (the coefficients of
the O_q(SL2) relations, coproducts and antipodes).  The roots of unity of
Q(zeta_ell) are exactly the +-q^m, and they form one cyclic group of order
N, generated by w = -q for odd ell (N = 2*ell) and by w = q for even ell
(N = ell, with -1 = q^(ell/2)).  Each field, built once per conductor,
keeps ``pows[m]``, the power-basis vector of q^m for 0 <= m < ell, and
interns the group: ``unit_index`` maps the coefficient tuple of w^e to e,
and ``unit_objs[e]`` is one shared CycRat for w^e.

Each CycRat carries its place in that group in the slot ``u``: e for w^e,
None for a non-unit.  Table paths fill it when they build a value; any
other value looks it up at most once, on first use.  So unit arithmetic is
index arithmetic: a product of two units is ``unit_objs[(ea + eb) % N]``,
-w^e and (w^e)^-1 are ``unit_objs[(e + N/2) % N]`` and
``unit_objs[-e % N]``.  w^e times x is x rotated through ``shifts[e]``,
the rows of w^e q^i; it keeps the denominator of x with no gcd, because
multiplication by a unit is an automorphism of Z[q] (a Z-basis 1, q, ...,
q^(phi-1)) and so keeps the content of the numerator, and it is a non-unit
when x is.  Any other irrational x is inverted by its norm, the product of
its Galois conjugates q -> q^k (k a unit mod ell), which is rational: 1/x
is the product of the conjugates other than x itself over the norm.
Reduction of x^k for any k >= phi reads ``pows[k % ell]``.  The stored
form (ell, num, den) is the same for every path, and equality and hashing
ignore ``u``.

A product with one is the other factor: once both places are known,
``__mul__`` returns self when the other factor is w^0 and the other factor
when self is, before any table, rotation or allocation.  So x * 1 is x
itself, whether the one is the interned CycRat, another CycRat equal to
it, an int or a Fraction.

Sums of two units are read from a table as well: ``sums[(a, b)]``, for
a <= b, is w^a + w^b, filled on first use with its place in the unit group
looked up.  The cancelling pairs (b = a + N/2) give ``zero``, the field's
one interned zero, which ``CycRat.zero`` also returns.  The table holds at
most N(N+1)/2 entries and is cleared when it holds _SUMS_MAX.  Every other
sum of integral elements adds the coefficient vectors with ``map``.

The products the workbench repeats most after those of units are between
non-units with integral coefficients: a completion multiplies the same
rule coefficients again and again.  Each field keeps them in ``products``,
keyed (e, x.num) for w^e times x and (a.num, b.num) for a times b, where
x, a and b are integral (den 1) and irrational.  A miss computes the
product by rotation or convolution and stores it; rational and
non-integral operands, and two units, bypass the table.  It is cleared
when it holds _PRODUCTS_MAX entries.  An entry takes about 330 bytes at
ell = 13 (12 coefficients) while its coefficients fit in 30 bits, so a
full table holds about 2.7 MB, plus 4 bytes for every 30 bits of any
larger coefficient.

Set-up and one pass of the benchmark workloads (seed 3) leave 187 (grid),
1,894 (ladder), 433 (construct) and 1,159 (verify) products over all
fields, at most 1,594 in one field, and 85, 174, 264 and 130 unit sums; a
second pass adds none.  ``qsl2 dim widehat --ell 13`` leaves 371 products.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add as _add

from .errors import MixedOrders


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic. Coefficients low->high.
    num = list(num)
    dden = len(den) - 1
    out = [0] * (len(num) - dden)
    for k in range(len(num) - 1, dden - 1, -1):
        c = num[k]
        out[k - dden] = c
        if c:
            for j in range(dden + 1):
                num[k - dden + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(ell: int) -> tuple[int, ...]:
    """Coefficients of Phi_ell, low degree first; monic of degree phi(ell)."""
    if ell < 1:
        raise ValueError("ell must be positive")
    if ell == 1:
        return (-1, 1)
    # Phi_ell = (x^ell - 1) / prod_{d | ell, d < ell} Phi_d
    num = [0] * (ell + 1)
    num[0], num[ell] = -1, 1
    for d in range(1, ell):
        if ell % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


class _Context:
    """Reduction and unit tables for one conductor, O(ell * phi) in size."""

    __slots__ = ("ell", "phi", "rows", "order", "half",
                 "unit_index", "unit_objs", "q_objs", "shifts", "products",
                 "sums", "zero")

    def __init__(self, ell: int):
        self.ell = ell
        modulus = cyclotomic_polynomial(ell)
        phi = self.phi = len(modulus) - 1
        # pows[m] = q^m in the power basis, for 0 <= m < ell; since q^ell = 1
        # this reduces x^k for every k >= 0 as pows[k % ell].
        top = [-c for c in modulus[:phi]]  # x^phi
        pows = []
        cur = [1] + [0] * (phi - 1)
        for _ in range(ell):
            pows.append(tuple(cur))
            carry = cur[-1]
            cur = [0] + cur[:-1]
            if carry:
                cur = [c + carry * t for c, t in zip(cur, top)]
        # rows[m]: the nonzero (index, coefficient) pairs of pows[m]
        self.rows = [tuple((j, c) for j, c in enumerate(p) if c) for p in pows]
        # the units +-q^m are the cyclic group of w = -q (odd ell, order
        # 2*ell) or w = q (even ell, order ell, -1 = q^(ell/2)), so
        # w^e = (-1)^e q^e for odd ell; w^half = -1
        odd = ell % 2
        self.order = order = 2 * ell if odd else ell
        self.half = order // 2
        self.unit_index = {}
        self.unit_objs = []
        for e in range(order):
            num = pows[e % ell]
            if odd and e % 2:
                num = tuple(-c for c in num)
            self.unit_index[num] = e
            self.unit_objs.append(CycRat(ell, num, 1, e))
        g = self.unit_index[pows[1 % ell]]  # q = w^g
        # q_objs[m] is the interned q^m; shifts[e][i] holds the nonzero
        # (index, coefficient) pairs of w^e q^i, for i < phi
        self.q_objs = [self.unit_objs[m * g % order] for m in range(ell)]
        urows = [tuple((j, c) for j, c in enumerate(u.num) if c)
                 for u in self.unit_objs]
        self.shifts = [tuple(urows[(e + i * g) % order] for i in range(phi))
                       for e in range(order)]
        # products[(e, x.num)] = w^e * x and products[(a.num, b.num)] = a * b
        # for integral, irrational non-units x, a and b; cleared when full
        self.products = {}
        # sums[(a, b)] = w^a + w^b for a <= b, filled on first use; the
        # cancelling pairs give the field's one interned zero
        self.sums = {}
        self.zero = CycRat(ell, (0,) * phi, 1, None)


_CONTEXTS: dict[int, _Context] = {}
_PRODUCTS_MAX = 8192    # entries per field before its product table is cleared
_SUMS_MAX = 4096        # entries per field before its unit-sum table is cleared


def _context(ell: int) -> _Context:
    ctx = _CONTEXTS.get(ell)
    if ctx is None:
        ctx = _CONTEXTS[ell] = _Context(ell)
    return ctx


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = den
    for c in num:
        if c:
            g = gcd(g, c)
            if g == 1:
                break
    if g > 1:
        num = [c // g for c in num]
        den //= g
    if not any(num):
        den = 1
    return tuple(num), den


class _Unknown:
    """The u of a CycRat not yet looked up; copies and pickles as itself."""

    __slots__ = ()

    def __reduce__(self):
        return "_UNKNOWN"


_UNKNOWN = _Unknown()


class CycRat:
    """An element of Q(zeta_ell), reduced mod Phi_ell.

    u is e when the element is the unit w^e (see _Context), None for a
    non-unit, and _UNKNOWN until unit_exp() has looked it up; equality and
    hashing ignore it.
    """

    __slots__ = ("ell", "num", "den", "u")

    def __init__(self, ell: int, num: tuple[int, ...], den: int, u=_UNKNOWN):
        self.ell = ell
        self.num = num
        self.den = den
        self.u = u

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ell: int) -> "CycRat":
        return _context(ell).zero

    @staticmethod
    def one(ell: int) -> "CycRat":
        return _context(ell).unit_objs[0]

    @staticmethod
    def from_rational(ell: int, value) -> "CycRat":
        """value in the field; 0, 1 and -1 are its interned elements."""
        f = Fraction(value)
        ctx = _context(ell)
        if f.denominator == 1 and -1 <= f.numerator <= 1:
            return (ctx.zero, ctx.unit_objs[0],
                    ctx.unit_objs[ctx.half])[f.numerator]
        num, den = _normalize([f.numerator] + [0] * (ctx.phi - 1),
                              f.denominator)
        return CycRat(ell, num, den)

    @staticmethod
    def from_coeffs(ell: int, coeffs) -> "CycRat":
        """Build from rational coefficients of 1, q, q^2, ... (any length)."""
        ctx = _context(ell)
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        ints = [int(f * den) for f in fracs]
        ints = _reduce_vector(ctx, ints)
        num, den = _normalize(ints, den)
        return CycRat(ell, num, den)

    @staticmethod
    def q_power(ell: int, k: int) -> "CycRat":
        return _context(ell).q_objs[k % ell]

    # -- predicates --------------------------------------------------------

    def unit_exp(self) -> int | None:
        """The e with self = w^e, or None for a non-unit (looked up once)."""
        u = self.u
        if u is _UNKNOWN:
            u = self.u = (_context(self.ell).unit_index.get(self.num)
                          if self.den == 1 else None)
        return u

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycRat):
            if other.ell != self.ell:
                raise MixedOrders(f"conductors {self.ell} and {other.ell}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycRat.from_rational(self.ell, other)
        return None

    def __add__(self, other):
        if type(other) is not CycRat or other.ell != self.ell:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        ea, eb = self.u, other.u
        if ea is _UNKNOWN:
            ea = self.unit_exp()
        if eb is _UNKNOWN:
            eb = other.unit_exp()
        if ea is not None and eb is not None:
            sums = _CONTEXTS[self.ell].sums
            key = (ea, eb) if ea <= eb else (eb, ea)
            known = sums.get(key)
            if known is None:
                known = _unit_sum(self, other)
                if len(sums) >= _SUMS_MAX:
                    sums.clear()
                sums[key] = known
            return known
        da, db = self.den, other.den
        if da == 1 and db == 1:
            return CycRat(self.ell, tuple(map(_add, self.num, other.num)), 1)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [a * ma + b * mb for a, b in zip(self.num, other.num)]
        n, d = _normalize(num, da * ma)
        return CycRat(self.ell, n, d)

    __radd__ = __add__

    def __neg__(self):
        u = self.u
        if u is None or u is _UNKNOWN:
            return CycRat(self.ell, tuple(-c for c in self.num), self.den, u)
        ctx = _CONTEXTS[self.ell]
        return ctx.unit_objs[(u + ctx.half) % ctx.order]

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not CycRat or other.ell != self.ell:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        ea, eb = self.u, other.u
        if ea is _UNKNOWN:
            ea = self.unit_exp()
        if eb is _UNKNOWN:
            eb = other.unit_exp()
        if eb == 0:
            return self
        if ea == 0:
            return other
        ell = self.ell
        ctx = _CONTEXTS[ell]
        if ea is not None and eb is not None:
            return ctx.unit_objs[(ea + eb) % ctx.order]
        products = ctx.products
        if ea is not None or eb is not None:
            # w^e times x: rotate x through the rows of w^e q^i; a unit
            # keeps the content of x, so den needs no gcd, and the product
            # of a unit and a non-unit is a non-unit
            e, x = (ea, other) if ea is not None else (eb, self)
            key = (e, x.num) if x.den == 1 and any(x.num[1:]) else None
            if key is not None:
                known = products.get(key)
                if known is not None:
                    return known
            out = [0] * ctx.phi
            for c, row in zip(x.num, ctx.shifts[e]):
                if c:
                    for j, r in row:
                        out[j] += c * r
            result = CycRat(ell, tuple(out), x.den, None)
        else:
            a, b = self.num, other.num
            den = self.den * other.den
            key = (a, b) if den == 1 and any(a[1:]) and any(b[1:]) else None
            if key is not None:
                known = products.get(key)
                if known is not None:
                    return known
            phi = ctx.phi
            conv = [0] * (2 * phi - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            conv[i + j] += ai * bj
            vec = _reduce_vector(ctx, conv)
            if den == 1:
                result = CycRat(ell, tuple(vec), 1)
            else:
                result = CycRat(ell, *_normalize(vec, den))
        if key is not None:
            if len(products) >= _PRODUCTS_MAX:
                products.clear()
            products[key] = result
        return result

    __rmul__ = __mul__

    def inverse(self) -> "CycRat":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero in Q(q)")
        ctx = _context(self.ell)
        e = self.unit_exp()
        if e is not None:
            return ctx.unit_objs[-e % ctx.order]
        if self.is_rational():
            f = 1 / self.rational_value()
            return CycRat.from_rational(self.ell, f)
        # num/den times the product of the other conjugates q -> q^k of num
        # is den times the norm of num, a nonzero integer
        ell, rows = self.ell, ctx.rows
        rest = CycRat.one(ell)
        for k in range(2, ell):
            if gcd(k, ell) == 1:
                conj = [0] * ctx.phi
                for i, c in enumerate(self.num):
                    if c:
                        for j, r in rows[i * k % ell]:
                            conj[j] += c * r
                rest = rest * CycRat(ell, tuple(conj), 1)
        norm = (CycRat(ell, self.num, 1) * rest).num[0]
        num, den = _normalize([c * self.den for c in rest.num], norm)
        return CycRat(ell, num, den, None)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycRat.one(self.ell)
        base = self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycRat.from_rational(self.ell, other)
        if not isinstance(other, CycRat):
            return NotImplemented
        return self.ell == other.ell and self.den == other.den and self.num == other.num

    def __hash__(self):
        # a rational element hashes like the int or Fraction it equals
        if self.is_rational():
            n = self.num[0]
            return hash(n) if self.den == 1 else hash(Fraction(n, self.den))
        return hash((self.ell, self.num, self.den))

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return f"CycRat({self.ell}, {self.render()!r})"

    def render(self) -> str:
        """Human/parser-facing form: polynomial in q with rational
        coefficients; an integral element renders its ints, with no
        Fraction built."""
        if self.is_zero():
            return "0"
        den = self.den
        parts = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            coeff = c if den == 1 else Fraction(c, den)
            if k == 0:
                parts.append(str(coeff))
            else:
                qpow = "q" if k == 1 else f"q^{k}"
                if coeff == 1:
                    parts.append(qpow)
                elif coeff == -1:
                    parts.append(f"-{qpow}")
                else:
                    parts.append(f"{coeff}*{qpow}")
        return join_signed(parts)


def _unit_sum(a: CycRat, b: CycRat) -> CycRat:
    """a + b for two units, as the unit-sum table stores it: the field's
    interned zero when they cancel, else with its place in the unit group
    looked up."""
    num = tuple(map(_add, a.num, b.num))
    if not any(num):
        return _CONTEXTS[a.ell].zero
    out = CycRat(a.ell, num, 1)
    out.unit_exp()
    return out


def _reduce_vector(ctx: _Context, vec: list[int]) -> list[int]:
    """Reduce an integer coefficient vector of any length mod Phi_ell.

    The result has length phi; x^k for k >= phi is read from pows[k % ell].
    """
    phi, ell, rows = ctx.phi, ctx.ell, ctx.rows
    out = list(vec[:phi]) + [0] * (phi - len(vec))
    for k in range(phi, len(vec)):
        c = vec[k]
        if c:
            for j, r in rows[k % ell]:
                out[j] += c * r
    return out


def multiplicative_order(a: CycRat) -> int | None:
    """Least k >= 1 with a^k = 1; None when there is none.  The roots of
    unity of Q(zeta_ell) are the units w^e, of order N / gcd(e, N)."""
    if a.is_zero():
        raise ZeroDivisionError("zero has no multiplicative order")
    e = a.unit_exp()
    if e is None:
        return None
    order = _context(a.ell).order
    return order // gcd(e, order)


def embed_scalar(a: CycRat, target_ell: int) -> CycRat:
    """Image of a under Q(zeta_s) -> Q(zeta_t), zeta_s -> zeta_t^(t/s)."""
    if a.ell == target_ell:
        return a
    if target_ell % a.ell:
        raise MixedOrders(f"no embedding of conductor {a.ell} into {target_ell}")
    step = target_ell // a.ell
    e = a.unit_exp()
    if e is not None:
        # w^e is q^e, times (-1)^e for odd ell (w = -q)
        image = CycRat.q_power(target_ell, e * step)
        return -image if a.ell % 2 and e % 2 else image
    if a.is_rational():
        phi = _context(target_ell).phi
        return CycRat(target_ell, (a.num[0],) + (0,) * (phi - 1), a.den)
    out = CycRat.zero(target_ell)
    for k, c in enumerate(a.num):
        if c:
            out = out + CycRat.from_rational(target_ell, Fraction(c, a.den)) \
                * CycRat.q_power(target_ell, k * step)
    return out


# -- the expression grammar that render() and ncalg.render_poly write ----------

_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S")
_MAX_DEPTH = 32        # parenthesis nesting; render writes one level
_MAX_POWER = 10_000    # k times the size of a power's base (letters or bits)


def join_signed(parts) -> str:
    """Join rendered terms into a sum, writing a leading "-" as " - "."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def parse_terms(ell: int, text: str, names=()) -> list:
    """Read a signed sum of products over Q(zeta_ell) and the names:

        expr   := [sign] term {sign term}
        term   := factor {"*" factor}
        factor := atom ["^" k]        k >= 0; "q^-k" also for q
        atom   := n | n/m | "q" | name | "(" expr ")"

    into its terms, as (word, coefficient) pairs, a word being a tuple of
    indices into names.  A parenthesised expression holds no name and
    nests at most _MAX_DEPTH deep; a power other than of q keeps k times
    the size of its base (1 for a name, the coefficient bits of a scalar)
    within _MAX_POWER.  Any other text raises ValueError naming the text.
    """
    index = {name: i for i, name in enumerate(names)}
    toks = _TOKEN.findall(text) + [""]
    pos = 0

    def fail(why):
        raise ValueError(f"cannot parse {text!r}: {why}")

    def take(tok):
        nonlocal pos
        if toks[pos] == tok:
            pos += 1
            return True
        return False

    def integer():
        nonlocal pos
        tok = toks[pos]
        if not "0" <= tok[:1] <= "9":
            fail(f"expected an integer, found {tok or 'the end'!r}")
        pos += 1
        try:
            return int(tok)
        except ValueError:  # more digits than int() reads
            fail("integer too long")

    def exponent(size, signed=False):
        if not take("^"):
            return 1
        negative = signed and take("-")
        k = integer()
        if k * size > _MAX_POWER:
            fail("power too large")
        return -k if negative else k

    def factor(depth):
        nonlocal pos
        tok = toks[pos]
        if "0" <= tok[:1] <= "9":
            num = integer()
            den = integer() if take("/") else 1
            if not den:
                fail("division by zero")
            value = CycRat.from_rational(ell, Fraction(num, den))
        else:
            pos += 1
            if tok == "q":
                return (), CycRat.q_power(ell, exponent(0, signed=True))
            if tok in index:
                return (index[tok],) * exponent(1), CycRat.one(ell)
            if tok != "(":
                fail(f"expected a factor, found {tok or 'the end'!r}")
            if depth == _MAX_DEPTH:
                fail("parentheses nested too deep")
            terms = expr(depth + 1)
            if any(word for word, _ in terms) or not take(")"):
                fail("expected a scalar, then ')'")
            value = sum((c for _, c in terms), CycRat.zero(ell))
        if toks[pos] == "^":
            value = value ** exponent(max(map(abs, value.num)).bit_length()
                                      + value.den.bit_length()
                                      + len(value.num).bit_length())
        return (), value

    def expr(depth):
        nonlocal pos
        terms = []
        while not terms or toks[pos] in ("+", "-"):
            negative = toks[pos] == "-"
            pos += toks[pos] in ("+", "-")
            word, coeff = factor(depth)
            while take("*"):
                w, c = factor(depth)
                word, coeff = word + w, coeff * c
            terms.append((word, -coeff if negative else coeff))
        return terms

    terms = expr(0)
    if toks[pos]:
        fail(f"unexpected {toks[pos]!r}")
    return terms


def parse_scalar(ell: int, text: str) -> CycRat:
    """Parse the render() syntax: parse_terms with no names."""
    return sum((c for _, c in parse_terms(ell, text)), CycRat.zero(ell))
