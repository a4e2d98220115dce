"""Exact arithmetic in the cyclotomic field Q(zeta_ell) = Q[x]/Phi_ell(x).

Elements are residues mod the ell-th cyclotomic polynomial, stored as an
integer coefficient vector with a common positive denominator, always in
reduced form so equality and hashing are structural.  The class of x is the
distinguished root of unity q with q^ell = 1 and no smaller power trivial.

Most scalars the workbench multiplies are units +-q^k (the coefficients of
the O_q(SL2) relations), so each field keeps two tables, O(ell * phi) in
size and built once per conductor: ``pows[m]``, the power-basis vector of
q^m for 0 <= m < ell, and ``units``, mapping the coefficient tuple of each
+-q^m (denominator 1) to its sign and exponent.  A product of two units is
a table entry; a unit times x is x rotated through ``pows``, keeping the
denominator of x with no gcd, because multiplication by a unit is an
automorphism of Z[q] (a Z-basis 1, q, ..., q^(phi-1)) and so keeps the
content of the numerator.  Inverting a unit reads ``pows[-k % ell]``; any
other irrational x is inverted by its norm, the product of its Galois
conjugates q -> q^k (k a unit mod ell), which is rational: 1/x is the
product of the conjugates other than x itself over the norm.
Reduction of x^k for any k >= phi also reads ``pows[k % ell]``.  The
stored form is the same for every path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import MixedOrders


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


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

    __slots__ = ("ell", "phi", "modulus", "pows", "negs", "rows", "units")

    def __init__(self, ell: int):
        self.ell = ell
        self.modulus = cyclotomic_polynomial(ell)
        phi = self.phi = len(self.modulus) - 1
        # pows[m] = q^m in the power basis, for 0 <= m < ell; since q^ell = 1
        # this reduces x^k for every k >= 0 as pows[k % ell].
        top = [-c for c in self.modulus[:phi]]  # x^phi
        pows = []
        cur = [1] + [0] * (phi - 1)
        for _ in range(ell):
            pows.append(tuple(cur))
            carry = cur[-1]
            cur = [0] + cur[:-1]
            if carry:
                cur = [c + carry * t for c, t in zip(cur, top)]
        self.pows = pows
        self.negs = [tuple(-c for c in p) for p in pows]
        # rows[m]: the nonzero (index, coefficient) pairs of pows[m]
        self.rows = [tuple((j, c) for j, c in enumerate(p) if c) for p in pows]
        # units: coefficient tuple of +-q^m -> (sign, m); for even ell,
        # -q^m = q^(m + ell/2) keeps its positive entry
        units = {}
        for sign, table in ((1, pows), (-1, self.negs)):
            for m, p in enumerate(table):
                units.setdefault(p, (sign, m))
        self.units = units


_CONTEXTS: dict[int, _Context] = {}


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


class CycRat:
    """An element of Q(zeta_ell), reduced mod Phi_ell."""

    __slots__ = ("ell", "num", "den")

    def __init__(self, ell: int, num: tuple[int, ...], den: int):
        self.ell = ell
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ell: int) -> "CycRat":
        phi = _context(ell).phi
        return CycRat(ell, (0,) * phi, 1)

    @staticmethod
    def one(ell: int) -> "CycRat":
        phi = _context(ell).phi
        return CycRat(ell, (1,) + (0,) * (phi - 1), 1)

    @staticmethod
    def from_rational(ell: int, value) -> "CycRat":
        f = Fraction(value)
        phi = _context(ell).phi
        num, den = _normalize([f.numerator] + [0] * (phi - 1), f.denominator)
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
        return CycRat(ell, _context(ell).pows[k % ell], 1)

    # -- predicates --------------------------------------------------------

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
        da, db = self.den, other.den
        if da == 1 and db == 1:
            return CycRat(self.ell,
                          tuple([a + b for a, b in zip(self.num, other.num)]), 1)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [a * ma + b * mb for a, b in zip(self.num, other.num)]
        n, d = _normalize(num, da * ma)
        return CycRat(self.ell, n, d)

    __radd__ = __add__

    def __neg__(self):
        return CycRat(self.ell, tuple(-c for c in self.num), self.den)

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
        ell = self.ell
        ctx = _CONTEXTS.get(ell) or _context(ell)
        units = ctx.units
        ua = units.get(self.num) if self.den == 1 else None
        ub = units.get(other.num) if other.den == 1 else None
        if ua and ub:
            m = (ua[1] + ub[1]) % ell
            return CycRat(ell, ctx.pows[m] if ua[0] == ub[0] else ctx.negs[m], 1)
        if ua or ub:
            # +-q^k times x: rotate x through the power table; a unit keeps
            # the content of x, so den needs no gcd
            (sign, k), x = (ua, other) if ua else (ub, self)
            rows = ctx.rows
            out = [0] * ctx.phi
            for i, c in enumerate(x.num):
                if c:
                    if sign < 0:
                        c = -c
                    for j, r in rows[(i + k) % ell]:
                        out[j] += c * r
            return CycRat(ell, tuple(out), x.den)
        phi = ctx.phi
        a, b = self.num, other.num
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        vec = _reduce_vector(ctx, conv)
        den = self.den * other.den
        if den == 1:
            return CycRat(ell, tuple(vec), 1)
        n, d = _normalize(vec, den)
        return CycRat(ell, n, d)

    __rmul__ = __mul__

    def inverse(self) -> "CycRat":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero in Q(q)")
        ctx = _context(self.ell)
        unit = ctx.units.get(self.num) if self.den == 1 else None
        if unit:
            m = -unit[1] % self.ell
            return CycRat(self.ell, ctx.pows[m] if unit[0] > 0 else ctx.negs[m], 1)
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
        return CycRat(ell, num, den)

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
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycRat.from_rational(self.ell, other)
        if not isinstance(other, CycRat):
            return NotImplemented
        return self.ell == other.ell and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.ell, self.num, self.den))

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return f"CycRat({self.ell}, {self.render()!r})"

    def render(self) -> str:
        """Human/parser-facing form: polynomial in q with rational coefficients."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            coeff = Fraction(c, self.den)
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
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
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
    """Least k >= 1 with a^k = 1, searching k <= 2*ell (the order of every
    root of unity in Q(zeta_ell)); None when there is none."""
    if a.is_zero():
        raise ZeroDivisionError("zero has no multiplicative order")
    acc = a
    for k in range(1, 2 * a.ell + 1):
        if acc.is_one():
            return k
        acc = acc * a
    return None


def embed_scalar(a: CycRat, target_ell: int) -> CycRat:
    """Image of a under Q(zeta_s) -> Q(zeta_t), zeta_s -> zeta_t^(t/s)."""
    if a.ell == target_ell:
        return a
    if target_ell % a.ell:
        raise MixedOrders(f"no embedding of conductor {a.ell} into {target_ell}")
    step = target_ell // a.ell
    out = CycRat.zero(target_ell)
    for k, c in enumerate(a.num):
        if c:
            out = out + CycRat.from_rational(target_ell, Fraction(c, a.den)) \
                * CycRat.q_power(target_ell, k * step)
    return out


def parse_scalar(ell: int, text: str) -> CycRat:
    """Parse the render() syntax: sums of rational*q^k terms."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    result = CycRat.zero(ell)
    for sign, term in _split_terms(text):
        result = result + sign * _parse_scalar_term(ell, term)
    return result


def _split_terms(text: str):
    terms, depth, cur, sign = [], 0, "", 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip() and not cur.rstrip().endswith(("*", "^", "/")):
            terms.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif depth == 0 and ch == "-" and not cur.strip():
            sign = -sign
        elif depth == 0 and ch == "+" and not cur.strip():
            pass
        else:
            cur += ch
        i += 1
    if cur.strip():
        terms.append((sign, cur.strip()))
    return terms


def _parse_scalar_term(ell: int, term: str) -> CycRat:
    coeff = Fraction(1)
    qexp = None
    for factor in term.split("*"):
        factor = factor.strip()
        if not factor:
            continue
        if factor == "q":
            qexp = (qexp or 0) + 1
        elif factor.startswith("q^"):
            qexp = (qexp or 0) + int(factor[2:])
        else:
            coeff *= Fraction(factor)
    out = CycRat.from_rational(ell, coeff)
    if qexp:
        out = out * CycRat.q_power(ell, qexp)
    return out
