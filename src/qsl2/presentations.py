"""Canonical constructors for every algebra in the catalog.

The public oq_sl2 and o_minus1_sl2 weight a, d by 2 and b, c by 1, which
orients the determinant relation as ad -> 1 + q bc, and take the
precedence a < b < c < d (the PBW order): their irreducible words are the
PBW monomials a^l b^m c^s and b^m c^s d^t, every word a b^m c^s d is an
obstruction, and so they complete only to a bound.  sl2_algebra, the base
of all quotient work, takes d < a < c < b with weights (1, 1, 1, ell + 2)
instead, ell the order of q: there the same algebra completes to seven
quadratic rules, with irreducible words a^l c^s b^m and d^t c^s b^m.  In a
quotient where a^ell = 1, a is a unit and d = a^(ell-1) (1 + q bc), whose
right side weighs ell + 1 < ell + 2, so d itself becomes an lhs and no
normal word contains it.  The classical coordinate ring uses plain deglex.

The bases every quotient divides, sl2_algebra and the classical ring
(classical_sl2_presentation, classical_sl2), are completed and have their
Hopf maps checked once per process, keyed by ell and the resolved
conductor.  Each call returns a fresh instance of that one checked build:
it shares the rules, defining relations, order, q, structure maps and
redex automaton, and has its own normal-form and structure-map caches.
Bad input raises on every call.  oq_sl2 and o_minus1_sl2, whose bound is
the caller's, build anew each time.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .cyclo import CycRat, embed_scalar, multiplicative_order
from .errors import ParamOutOfRange, ParityMismatch, QSL2Error
from .exactla import addto, kernel_of_columns, span_dim
from .hopf import (CheckResult, NamedAlgebra, map_poly, map_tensor,
                   named_algebra)
from .ncalg import MonomialOrder, NCPoly, TensorPoly
from .rewrite import (DEFAULT_COMPLETION_BOUND, Presentation,
                      build_presentation, normal_form)

ABCD = ("a", "b", "c", "d")
XGENS = ("x11", "x12", "x21", "x22")
A, B, C, D = 0, 1, 2, 3


# the rank of each letter in the finite order d < a < c < b
_FINITE_PRECEDENCE = (1, 3, 2, 0)


def _sl2_order(ell: int | None = None) -> MonomialOrder:
    """The PBW order: letter weights (2, 1, 1, 2), precedence a < b < c < d.
    Given ell, the order of q, the finite order instead: weights
    (1, 1, 1, ell + 2), precedence d < a < c < b; d outweighs a^(ell-1) bc,
    so a quotient with a^ell = 1 rewrites d away."""
    if ell is None:
        return MonomialOrder(4, weights=(2, 1, 1, 2))
    return MonomialOrder(4, _FINITE_PRECEDENCE, weights=(1, 1, 1, ell + 2))


def _sl2_relations(ell: int, q: CycRat) -> list[NCPoly]:
    qi = q.inverse()
    mono = lambda w, c=None: NCPoly.monomial(ABCD, ell, w, c)
    one = NCPoly.one(ABCD, ell)
    return [
        mono((A, B)) - mono((B, A), q),
        mono((B, C)) - mono((C, B)),
        mono((A, C)) - mono((C, A), q),
        mono((A, D)) - mono((D, A)) - mono((B, C), q - qi),
        mono((B, D)) - mono((D, B), q),
        mono((C, D)) - mono((D, C), q),
        mono((A, D)) - mono((B, C), q) - one,
    ]


def _sl2_hopf(ell: int, q: CycRat, gens=ABCD):
    """Delta, epsilon and S of the matrix generators (x11, x12, x21, x22) =
    (a, b, c, d): Delta(x_ij) = sum_s x_is (x) x_sj, epsilon(x_ij) = delta_ij
    and S the q-adjugate, which at q = 1 is the adjugate."""
    tens = lambda uv, c=None: TensorPoly.monomial(gens, ell, uv, c)
    mono = lambda w, c=None: NCPoly.monomial(gens, ell, w, c)
    delta = {
        A: tens(((A,), (A,))) + tens(((B,), (C,))),
        B: tens(((A,), (B,))) + tens(((B,), (D,))),
        C: tens(((C,), (A,))) + tens(((D,), (C,))),
        D: tens(((C,), (B,))) + tens(((D,), (D,))),
    }
    counit = {
        A: CycRat.one(ell), B: CycRat.zero(ell),
        C: CycRat.zero(ell), D: CycRat.one(ell),
    }
    antipode = {
        A: mono((D,)),
        B: mono((B,), -q.inverse()),
        C: mono((C,), -q),
        D: mono((A,)),
    }
    return delta, counit, antipode


def sl2_parity(ell: int) -> str:
    """The regime of a primitive ell-th root q: ell = 2 is q = -1."""
    return "minus_one" if ell == 2 else ("odd" if ell % 2 else "even")


# parity -> the ell it admits: odd ell >= 3, even ell >= 4 and q = -1
REGIMES = {"odd": "odd ell >= 3", "even": "even ell >= 4",
           "minus_one": "ell = 2"}


def require_parity(parity: str, ell: int, subject: str):
    """Raise ParityMismatch unless ell >= 2 lies in the regime parity, a key
    of REGIMES; the one check of which ell each regime admits.  A parity
    read from JSON may be any value, unhashable ones included."""
    if not isinstance(parity, str) or parity not in REGIMES:
        raise ParityMismatch(f"unknown parity {parity!r}")
    if ell < 2 or sl2_parity(ell) != parity:
        raise ParityMismatch(f"{subject} needs {REGIMES[parity]}, got {ell}")


def _sl2_conductor(ell: int, conductor: int | None) -> int:
    """The conductor of O_q(SL2) at a primitive ell-th root q: the given
    one, ell by default, doubled if odd at q = -1."""
    cond = conductor or ell
    if ell == 2 and cond % 2:
        cond *= 2
    if cond % ell:
        raise ParamOutOfRange(f"conductor {cond} does not contain an "
                              f"order-{ell} root")
    return cond


def _sl2(ell: int, cond: int, order: MonomialOrder,
         complete_to: int | None) -> NamedAlgebra:
    """O_q(SL2) at a primitive ell-th root q, ell >= 2, over the cyclotomic
    field of the resolved conductor cond, in the given order, completed to
    complete_to (None: to the end)."""
    q = CycRat.q_power(cond, cond // ell)
    parity = sl2_parity(ell)
    label = "o-minus1-sl2" if ell == 2 else f"oq-sl2(ell={ell})"
    pres = build_presentation(ABCD, order,
                              _sl2_relations(cond, q), cond, q, parity,
                              complete_to, label=label)
    delta, counit, antipode = _sl2_hopf(cond, q)
    return named_algebra(pres, delta, counit, antipode, label)


def require_generic(ell: int):
    """Refuse ell <= 2 where q must be generic: q = -1 has its own
    presentation."""
    if ell <= 2:
        raise ParamOutOfRange("the generic presentation needs ell >= 3; "
                              "use o_minus1_sl2 for q = -1")


def oq_sl2(ell: int,
           complete_to: int = DEFAULT_COMPLETION_BOUND) -> NamedAlgebra:
    """The q-deformed coordinate algebra at a primitive ell-th root, ell >= 3,
    over Q(zeta_ell) in the PBW order, whose completion is infinite: bounded
    by complete_to."""
    require_generic(ell)
    return _sl2(ell, ell, _sl2_order(), complete_to)


def o_minus1_sl2(complete_to: int = DEFAULT_COMPLETION_BOUND) -> NamedAlgebra:
    """The q = -1 coordinate algebra over Q in the PBW order; relations
    specialize the generic ones."""
    return _sl2(2, 2, _sl2_order(), complete_to)


def sl2_algebra(parity: str, ell: int,
                conductor: int | None = None) -> NamedAlgebra:
    """The base of all quotient work: the algebra of oq_sl2 (of o_minus1_sl2
    for parity minus_one) in the finite order _sl2_order(ell), complete
    with seven rules.  Its widehat and overline quotients complete to seven
    rules too, d among their left sides.  A generic parity with ell <= 2
    raises ParamOutOfRange; any other ell outside the regime of parity
    raises ParityMismatch, the ParamOutOfRange of a regime (require_parity).

    Each call returns a fresh instance of one checked build per ell and
    resolved conductor (see _memoized): conductor=None and conductor=ell
    share it."""
    if parity != "minus_one":
        require_generic(ell)
    require_parity(parity, ell, f"{parity} parity")
    cond = _sl2_conductor(ell, conductor)
    return _memoized(("sl2", ell, cond),
                     lambda: _sl2(ell, cond, _sl2_order(ell), None))


def classical_sl2_presentation(conductor: int = 1) -> Presentation:
    """Commutative coordinate ring of SL2, without its Hopf maps; its
    completion is finite (seven rules) and runs to the end.  Each call
    returns a fresh instance of one build per conductor."""
    def build():
        mono = lambda w, c=None: NCPoly.monomial(XGENS, conductor, w, c)
        rels = [mono((j, i)) - mono((i, j))
                for i in range(4) for j in range(i + 1, 4)]
        rels.append(mono((0, 3)) - mono((1, 2)) - NCPoly.one(XGENS, conductor))
        return build_presentation(XGENS, MonomialOrder(4), rels, conductor,
                                  None, "classical", None,
                                  label="classical-sl2")
    return _memoized(("classical", conductor), build)


def classical_sl2(conductor: int = 1) -> NamedAlgebra:
    """classical_sl2_presentation with its standard Hopf maps, checked well
    defined on the defining relations.  Each call returns a fresh instance
    of one checked build per conductor."""
    def build():
        pres = classical_sl2_presentation(conductor)
        delta, counit, antipode = _sl2_hopf(conductor, CycRat.one(conductor),
                                            XGENS)
        return named_algebra(pres, delta, counit, antipode, pres.label)
    return _memoized(("classical-hopf", conductor), build)


# resolved constructor arguments -> a cache-free copy of the checked build;
# unbounded, like cyclo._CONTEXTS: a process uses a handful of bases
_BASES: dict = {}


def _memoized(key, build):
    """A fresh instance (Presentation.fresh, NamedAlgebra.fresh) of the base
    under key.  The first call in a process runs build(), which completes
    the base and checks its Hopf maps if it has them, and keeps a copy
    without the caches that filled.  Every call, that one included, gets
    its own instance, so no caller reads normal forms or coproducts that
    another computed, and a relabelled instance does not reach the next
    call."""
    base = _BASES.get(key)
    if base is None:
        base = _BASES[key] = build().fresh()
    return base.fresh()


# all ten unordered products of two coordinates; the nine below generate
# O(PSL2), the tenth (x11*x22) is their combination via the determinant
QUAD_PAIRS_ALL = tuple(combinations_with_replacement(range(4), 2))
QUAD_PAIRS = tuple(p for p in QUAD_PAIRS_ALL if p != (0, 3))


class PSL2Model:
    """The even part of O(SL2), the image of O(PSL2): the classical ring
    alg and the products of its nine quadratic generators up to degree
    max_deg, which verify_psl2_embedding compares with their images.

    There is no finite presentation here; the parity grading is intact
    because every defining relation is parity-homogeneous.
    """

    def __init__(self, max_deg: int = 8):
        self.alg = classical_sl2()
        self.max_deg = max_deg

    def products(self, count: int):
        """All multisets of `count` quadratic generators with their classes."""
        if 2 * count > self.max_deg:
            raise ParamOutOfRange(f"products of {count} quadratic generators "
                                  f"have degree {2 * count} > {self.max_deg}")
        out = []
        for combo in combinations_with_replacement(QUAD_PAIRS, count):
            word = tuple(g for pair in combo for g in pair)
            out.append((combo, normal_form(
                self.alg.pres, NCPoly.monomial(XGENS, self.alg.ell, word))))
        return out


def psl2_model(max_deg: int = 8) -> PSL2Model:
    return PSL2Model(max_deg)


# -- quotient ideals and distinguished subalgebras ------------------------------


def quotient_ideal(kind: str, ell: int, conductor: int | None = None) -> list[NCPoly]:
    """Generator list of the finite-quotient ideal: widehat at odd ell,
    overline at even ell = 2m."""
    if kind not in ("widehat", "overline"):
        raise QSL2Error(f"unknown quotient ideal kind {kind!r}")
    require_parity("odd" if kind == "widehat" else "even", ell, kind)
    cond = conductor or ell
    mono = lambda w, c=None: NCPoly.monomial(ABCD, cond, w, c)
    one = NCPoly.one(ABCD, cond)
    if kind == "widehat":
        return [mono((A,) * ell) - one, mono((B,) * ell),
                mono((C,) * ell), mono((D,) * ell) - one]
    m = ell // 2
    return [mono((A,) * ell) - one, mono((B,) * m),
            mono((C,) * m), mono((D,) * ell) - one]


def phi_images(alg: NamedAlgebra) -> dict:
    """The even-part embedding: quadratic pair -> x^m y^m; q must have even
    order 2m.

    The m-th powers of the coordinates commute up to (-1)^m, so for odd m
    (q = -1 is m = 1) the pairs whose first sorted factor is off-diagonal
    carry a minus; for even m the unsigned map is the algebra map.
    """
    m = multiplicative_order(alg.pres.q) // 2
    out = {}
    for pair in QUAD_PAIRS_ALL:
        sign = -1 if m % 2 and pair[0] in (B, C) else 1
        out[pair] = NCPoly.monomial(ABCD, alg.ell,
                                    (pair[0],) * m + (pair[1],) * m,
                                    CycRat.from_rational(alg.ell, sign))
    return out


def phi_even_images(alg: NamedAlgebra) -> dict:
    """phi_images onto the subalgebra N: q of even order ell >= 4."""
    require_parity("even", multiplicative_order(alg.pres.q), "N")
    return phi_images(alg)


def pair_factors(images: dict):
    """The factors of map_poly for a map given on sorted coordinate pairs
    (images: pair -> NCPoly over the target): a classical word of even
    length splits into its pairs."""
    def factors(word):
        if len(word) % 2:
            raise QSL2Error("PSL2-side lift needs even words")
        return (images[tuple(sorted(word[i:i + 2]))]
                for i in range(0, len(word), 2))
    return factors


def verify_psl2_embedding(model: PSL2Model, target: NamedAlgebra, images: dict,
                          max_product_degree: int = 2) -> list:
    """Certify pair -> images as a Hopf map on the even-part model.

    images maps every sorted coordinate pair to an NCPoly over the target.
    Checks, degreewise, that every exact linear dependency among products of
    the nine quadratic generators maps to zero, and that Delta, counit and
    antipode match on the generators.  The source values are the classical
    maps on the free products x_a x_b, unreduced, so that every word maps
    through exactly one pair.  Each product is lifted once per degree, and
    the image of a dependency is summed from those lifts.
    """
    results = []
    label = f"psl2-model -> {target.label}"
    src = model.alg
    factors = pair_factors(images)
    lift = lambda p: map_poly(p, factors, target)

    for count in range(1, max_product_degree + 1):
        prods = model.products(count)
        lifts = [lift(NCPoly.monomial(XGENS, src.ell, sum(combo, ())))
                 for combo, _ in prods]
        deps = kernel_of_columns([p.terms for _, p in prods], src.ell)
        all_dead = True
        for combo_vec in deps:
            image: dict = {}
            for idx, coeff in combo_vec.items():
                scale = embed_scalar(coeff, target.ell)
                for w, c in lifts[idx].terms.items():
                    addto(image, w, c * scale)
            if image:
                all_dead = False
                break
        results.append(CheckResult(
            "psl2-map-dependencies", label, all_dead,
            f"degree {2 * count}: {len(deps)} dependencies"))
        # equal ranks of sources and images certify degreewise injectivity;
        # the kernel has one vector per dependent product (rank-nullity)
        src_rank = len(prods) - len(deps)
        img_rank = span_dim(img.terms for img in lifts)
        results.append(CheckResult(
            "psl2-map-degreewise-injective", label, src_rank == img_rank,
            f"degree {2 * count}: rank {src_rank} vs {img_rank}"))

    hopf = src.hopf
    for a, b in QUAD_PAIRS:
        image = images[(a, b)]
        name = f"{src.gens[a]}*{src.gens[b]}"
        rhs = map_tensor(hopf.delta[a] * hopf.delta[b], lift, target)
        results.append(CheckResult("psl2-map-delta", label,
                                   (target.delta(image) - rhs).is_zero(), name))
        eps = embed_scalar(hopf.counit[a] * hopf.counit[b], target.ell)
        results.append(CheckResult("psl2-map-counit", label,
                                   target.counit(image) == eps, name))
        s_src = lift(hopf.antipode[b] * hopf.antipode[a])
        results.append(CheckResult("psl2-map-antipode", label,
                                   (target.antipode(image) - s_src).is_zero(),
                                   name))
    return results


# each distinguished subalgebra, named by its first letter, and its regime
_SUBALGEBRA_PARITY = {"L_odd": "odd", "B_minus1": "minus_one",
                      "N_even": "even"}


def distinguished_subalgebra(case: str, ell: int):
    """Generator lists of the central/normal subalgebras L (odd ell), B
    (ell = 2) and N (even ell)."""
    if case not in _SUBALGEBRA_PARITY:
        raise QSL2Error(f"unknown subalgebra case {case!r}")
    require_parity(_SUBALGEBRA_PARITY[case], ell, case[0])
    mono = lambda w, c=None: NCPoly.monomial(ABCD, ell, w, c)
    if case == "L_odd":
        return [mono((g,) * ell) for g in range(4)]
    if case == "B_minus1":
        # squares first, then mixed pairs (a stable sort): reports list
        # their rows in this order
        return [mono(w)
                for w in sorted(QUAD_PAIRS, key=lambda p: p[0] != p[1])]
    m = ell // 2
    return [mono((x,) * m + (y,) * m) for x in range(4) for y in range(4)]
