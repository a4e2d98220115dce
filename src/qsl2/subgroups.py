"""Subgroup data, vanishing-ideal kernels, and the three-step quotient pipeline.

A datum selects which of b, c are killed (step 1), a finite or catalog
subgroup whose vanishing ideal is lifted through the distinguished
commutative subalgebra (step 2), and optionally a twist relation
a^p = chi^r identifying a power of the grouplike class of a with a
character of the subgroup (step 3).  Consistency is certified a
posteriori: the image of the function algebra of the subgroup inside the
constructed quotient must have dimension equal to the group order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .cyclo import CycRat, multiplicative_order
from .errors import (CertificateFailed, InconsistentDatum, ParamOutOfRange,
                     ParityMismatch, QSL2Error)
from .exactla import ColumnKernel, span_closure
from .hopf import (CheckResult, FiniteModel, NamedAlgebra, all_ok,
                   coinvariants, map_poly)
from .ncalg import NCPoly, render_poly
from .presentations import (ABCD, QUAD_PAIRS, XGENS,
                            classical_sl2_presentation, pair_factors,
                            phi_images, quotient_ideal, require_parity,
                            sl2_algebra)
from .rewrite import (DEFAULT_PROBE_BOUND, Presentation, dimension,
                      enumerate_basis, normal_form, product_normal_form,
                      quotient_presentation)

A, B, C = 0, 1, 2

# each catalog group and the case (I_plus, I_minus) it lives in
CATALOG_CASES = {"torus": ((), ()), "borel_plus": ((1,), ()),
                 "borel_minus": ((), (1,)), "G_a": ((1,), ()),
                 "G_m": ((), ()), "full": ((1,), (1,))}

# each group kind's JSON fields after "kind", with how each value is read (a
# catalog name as given: validate_datum judges it)
GROUP_FIELDS = {"cyclic": {"n": int}, "dihedral": {"m": int}, "trivial": {},
                "catalog": {"name": lambda name: name}}


def _group_fields(kind) -> dict:
    try:
        return GROUP_FIELDS[kind]
    except (KeyError, TypeError):
        raise QSL2Error(f"unknown group kind {kind!r}") from None


@dataclass(frozen=True)
class GroupSpec:
    kind: str                  # cyclic | dihedral | trivial | catalog
    n: int | None = None       # cyclic order
    m: int | None = None       # dihedral parameter (order 2m)
    name: str | None = None    # catalog entry

    @property
    def finite(self) -> bool:
        return self.kind in ("cyclic", "dihedral", "trivial")

    @property
    def order(self) -> int | None:
        if self.kind == "cyclic":
            return self.n
        if self.kind == "dihedral":
            return 2 * self.m
        if self.kind == "trivial":
            return 1
        return None

    def root_order(self, parity: str) -> int:
        """Order of the root of unity the group's matrices are written with
        (1 for a catalog group, which has none).  On the PSL2 side a cyclic
        or trivial group is written by its +-1 preimage, of twice its order;
        in the lcm with the base ell that 2 changes nothing for a trivial
        group, as that ell is even."""
        if self.kind == "cyclic":
            return self.n if parity == "odd" else 2 * self.n
        if self.kind == "dihedral":
            return 2 * self.m
        if self.kind == "trivial":
            return 1 if parity == "odd" else 2
        return 1

    def to_json(self):
        return {"kind": self.kind,
                **{f: getattr(self, f) for f in _group_fields(self.kind)}}

    @staticmethod
    def from_json(doc) -> "GroupSpec":
        kind = doc["kind"]
        return GroupSpec(kind, **{f: read(doc[f]) for f, read
                                  in _group_fields(kind).items()})


@dataclass(frozen=True)
class SubgroupDatum:
    parity: str                       # odd | even | minus_one
    ell: int
    I_plus: tuple = ()
    I_minus: tuple = ()
    N_generator: int | None = None
    gamma: GroupSpec = GroupSpec("trivial")
    sigma_exponent: int = 1
    delta_exponent: int = 1

    def to_json(self):
        doc = {
            "parity": self.parity,
            "ell": self.ell,
            "I_plus": list(self.I_plus),
            "I_minus": list(self.I_minus),
            "gamma": self.gamma.to_json(),
            "sigma": {"exponent": self.sigma_exponent},
        }
        if self.N_generator is not None:
            doc["N_generator"] = self.N_generator
            doc["delta_exponent"] = self.delta_exponent
        return doc

    @staticmethod
    def from_json(doc) -> "SubgroupDatum":
        return SubgroupDatum(
            parity=doc["parity"],
            ell=int(doc["ell"]),
            I_plus=tuple(doc.get("I_plus", [])),
            I_minus=tuple(doc.get("I_minus", [])),
            N_generator=(int(doc["N_generator"])
                         if doc.get("N_generator") is not None else None),
            gamma=GroupSpec.from_json(doc.get("gamma", {"kind": "trivial"})),
            sigma_exponent=int(doc.get("sigma", {}).get("exponent", 1)),
            delta_exponent=int(doc.get("delta_exponent", 1)),
        )


def validate_datum(d: SubgroupDatum) -> list[str]:
    """Structural violations; empty means the datum may be constructed."""
    errs = []
    try:
        require_parity(d.parity, d.ell, f"{d.parity} parity")
    except ParityMismatch as exc:
        errs.append(str(exc))

    for name, val in (("I_plus", d.I_plus), ("I_minus", d.I_minus)):
        if tuple(val) not in ((), (1,)):
            errs.append(f"{name} must be [] or [1], got {list(val)}")

    s = 1 - (1 if (1 in d.I_plus or 1 in d.I_minus) else 0)
    if d.N_generator is not None and s == 0:
        errs.append("N must be trivial when s = 0 (some I is {1})")
    if d.N_generator is not None:
        p = d.N_generator
        if p < 1 or d.ell % p:
            errs.append(f"N generator {p} does not divide ell = {d.ell}")

    g = d.gamma
    if g.kind == "cyclic":
        if not g.n or g.n < 1:
            errs.append("cyclic group needs n >= 1")
        elif gcd(d.sigma_exponent, g.n) != 1:
            errs.append(f"embedding exponent {d.sigma_exponent} is not a unit "
                        f"mod {g.n}: not injective")
    elif g.kind == "dihedral":
        if d.parity != "minus_one":
            errs.append("dihedral gamma is supported in the q = -1 regime only")
        elif not g.m or g.m < 1:
            errs.append("dihedral group needs m >= 1")
    elif g.kind == "catalog":
        needed = CATALOG_CASES.get(g.name) if isinstance(g.name, str) else None
        if needed is None:
            errs.append(f"unknown catalog group {g.name!r}")
        elif (tuple(d.I_plus), tuple(d.I_minus)) != needed:
            errs.append(f"catalog group {g.name} lives in the case "
                        f"I_plus={list(needed[0])}, I_minus={list(needed[1])}")
    elif g.kind != "trivial":
        errs.append(f"unknown group kind {g.kind!r}")
    return errs


# -- vanishing ideals of finite subgroups ---------------------------------------


@dataclass
class KernelResult:
    generators: list            # NCPoly over the classical coordinates
    conductor: int
    quotient: Presentation      # classical algebra mod the ideal
    certificates: list = field(default_factory=list)


def _group_matrices(gamma: GroupSpec, conductor: int):
    """Explicit 2x2 matrices (entries CycRat) for the embedded finite group,
    written with q, a primitive conductor-th root (gamma.root_order): the
    points at which the kernel-vanishes certificate evaluates."""
    qp = lambda k: CycRat.q_power(conductor, k % conductor)
    zero = CycRat.zero(conductor)
    if gamma.kind == "dihedral":
        return ([((qp(j), zero), (zero, qp(-j))) for j in range(gamma.m)]
                + [((zero, qp(j)), (-qp(-j), zero)) for j in range(gamma.m)])
    # cyclic, and trivial as the cyclic group of order 1
    return [((qp(j), zero), (zero, qp(-j))) for j in range(gamma.order)]


def _eval_word(word, mat, conductor) -> CycRat:
    out = CycRat.one(conductor)
    for g in word:
        out = out * mat[g // 2][g % 2]
        if out.is_zero():
            break
    return out


def _eval_poly(p: NCPoly, mat, conductor) -> CycRat:
    val = CycRat.zero(conductor)
    for w, c in p.terms.items():
        val = val + _eval_word(w, mat, conductor) * c
    return val


def _character_column(word, dihedral: bool, s: int, n: int, one) -> dict:
    """The word's coordinates in the character basis of each coset of the
    diagonal subgroup: the points are diag(z^j, z^-j) and, on a dihedral
    group, antidiag(z^j, -z^-j), for j < n, with z = q^s of order n.

    On the diagonal coset a word without b and c takes the values
    z^(j k), k = (#a - #d)/s, which is the character of key k mod n; on
    the antidiagonal one a word without a and d takes (-1)^#c z^(j k),
    k = (#b - #c)/s.  Every other word vanishes on the coset.  s divides
    each k of the words kernel_sigma_t reads (on the PSL2 side s = 2 and
    the words are even)."""
    a, b, c, d = (word.count(g) for g in range(4))
    col = {}
    if not b and not c:
        col["diagonal", (a - d) // s % n] = one
    if dihedral and not a and not d:
        col["antidiagonal", (b - c) // s % n] = -one if c % 2 else one
    return col


def kernel_sigma_t(gamma: GroupSpec, parity: str) -> KernelResult:
    """Vanishing ideal of the embedded finite group in the coordinate ring.

    A cyclic datum's embedding exponent sigma is no argument: for a unit
    sigma the embedded points are the same set, up to order on the SL2
    side and up to sign on the PSL2 side, where only even words are
    evaluated, so the ideal is the same.

    Works degreewise, in one elimination: at each degree the monomials of
    that length that are irreducible in the quotient so far get their
    columns, once, and the columns enter one ColumnKernel in deglex order
    (the empty word first).  A column that completes a kernel vector gives
    a generator; the generators of a degree extend the previous quotient,
    whose completion resumes from its rules.  The ideal grows until the
    expected dimension is certified.  For the PSL2-side parities only even
    monomials are considered; the parity grading of the classical
    presentation makes the even-word count the dimension of the even part.

    Every group here is monomial: its points are the diagonal subgroup of
    order n and, on a dihedral group, its antidiagonal coset.  A word's
    column is not its values at the points but its coordinates in the
    character basis of each coset (_character_column): one signed entry
    per coset, or none, read off the letter counts.  This is exact.
    The values and the coordinates differ by one invertible linear map,
    the discrete Fourier transform on each coset, applied to every column
    alike.  Such a map changes neither which columns are pivots nor any
    kernel vector, the unique expression of a column over the pivots
    before it.  The kernel-vanishes certificate evaluates the generators
    at the true points, a check that owes nothing to the character
    columns.

    Invariant, checked at each degree: the words of lower degree that the
    quotient keeps are the pivot words so far, in the order they entered.
    So the columns seen are those of a fresh elimination over all the
    quotient's irreducible words up to the degree, a kernel vector is the
    unique expression of its column over the pivots before it, and a
    reduced Groebner basis is unique for its ideal and order: generators
    and rules are those of a per-degree recomputation from the ambient.
    Each generator is irreducible in the quotient it extends, so
    ``quotient.defining`` lists the ambient's relations and then the
    generators as found, each degree normalised against the quotient it
    extends, which leaves it as it is; nothing renders that list.
    """
    if not gamma.finite:
        raise QSL2Error("kernel computation needs a finite group")
    if gamma.kind == "dihedral" and parity == "odd":
        raise QSL2Error("dihedral subgroups live on the PSL2 side")
    order = gamma.order
    step = 1 if parity == "odd" else 2
    conductor = gamma.root_order(parity)
    dihedral = gamma.kind == "dihedral"
    n = gamma.m if dihedral else order     # points on the diagonal
    s, one = conductor // n, CycRat.one(conductor)
    max_deg = step * (order + 2)
    quot = classical_sl2_presentation(conductor)
    ideal: list[NCPoly] = []
    expected = order if parity == "odd" else 2 * order
    kernel = ColumnKernel(conductor)
    words: list = []        # the word of each column, by column index
    pivots: list = []       # the words of the pivot columns, in order

    for deg in range(step, max_deg + 1, step):
        levels = enumerate_basis(quot, deg)
        lower = [w for dd in range(0, deg, step) for w in levels[dd]]
        # at the first degree, the lower words are the empty word, unseen
        assert not words or lower == pivots, "kernel invariant broken"
        found = []
        for w in (levels[deg] if words else lower + levels[deg]):
            words.append(w)
            combo = kernel.add(_character_column(w, dihedral, s, n, one))
            if combo is None:
                pivots.append(w)
            else:
                found.append(NCPoly.from_terms(
                    XGENS, conductor, [(words[i], c) for i, c in combo.items()]))
        if found:
            ideal += found
            quot = quotient_presentation(quot, found, label="classical/kernel")
        res = dimension(quot)
        if res.finite and res.value == expected:
            break

    certs = []
    mats = _group_matrices(gamma, conductor)
    bad = next((g for g in ideal
                if any(not _eval_poly(g, m, conductor).is_zero()
                       for m in mats)), None)
    certs.append(CheckResult("kernel-vanishes", gamma.kind, bad is None,
                             None if bad is None else render_poly(bad)))
    if parity == "odd":
        dim_ok = res.finite and res.value == order
        witness = f"dim {res.value} = |group| {order}"
    else:
        even_dim = sum(res.counts[::2])
        dim_ok = res.finite and even_dim == order and res.value == 2 * order
        witness = (f"even part {even_dim} = |group| {order}; "
                   f"total {res.value} = preimage order {2 * order}")
    certs.append(CheckResult("kernel-dimension", gamma.kind, dim_ok, witness))
    if not all_ok(certs):
        raise CertificateFailed(f"kernel certificate failed: {certs}")
    return KernelResult(ideal, conductor, quot, certs)


# -- lifting through the distinguished subalgebra -------------------------------


def lift_classical_polys(polys, parity: str, images: dict,
                         alg: NamedAlgebra) -> list[NCPoly]:
    """Normal forms in alg of the images of classical polynomials under the
    subalgebra embedding given by images (gamma_embedding(parity, alg)):
    letter by letter on the SL2 side, pair by pair on the PSL2 side."""
    factors = ((lambda w: (images[g] for g in w)) if parity == "odd"
               else pair_factors(images))
    return [map_poly(p, factors, alg) for p in polys]


def gamma_embedding(parity: str, alg: NamedAlgebra) -> dict:
    """The generators of the distinguished commutative subalgebra that the
    group is embedded through, keyed by the classical letter or sorted
    pair each one images: g -> g^ell on the SL2 side, the signed m-th power
    pairs (phi_images) on the PSL2 side.  The map is a Hopf map, so
    alg.counit of an image is the counit of its source."""
    if parity == "odd":
        k = multiplicative_order(alg.pres.q)
        return {g: NCPoly.monomial(ABCD, alg.ell, (g,) * k) for g in range(4)}
    return phi_images(alg)


# catalog groups: kernel generators transcribed in the quantum letters
def _catalog_kernel(name: str, images: dict, alg: NamedAlgebra) -> list[NCPoly]:
    if name in ("torus", "G_m"):
        # the off-diagonal generators, where the counit vanishes
        return [img for img in images.values() if alg.counit(img).is_zero()]
    if name == "G_a":
        return [img - alg.pres.one() * eps for img in images.values()
                if not (eps := alg.counit(img)).is_zero()]
    return []  # borel_plus, borel_minus, full: identity embedding


# -- the construction pipeline ---------------------------------------------------


@dataclass
class Construction:
    datum: SubgroupDatum
    algebra: NamedAlgebra              # A_D
    h: NamedAlgebra                    # top quotient H
    dim: object                        # DimensionResult of A_D
    h_dim: object                      # DimensionResult of H
    gamma_image_dim: int | None
    transcript: dict
    certificates: list
    kernel: KernelResult | None        # step 2's kernel of a finite group

    @property
    def consistent(self) -> bool:
        return all_ok(self.certificates)


def _parity_augmentation_ideal(parity: str, images: dict, alg: NamedAlgebra):
    if parity == "odd":
        return quotient_ideal("widehat", multiplicative_order(alg.pres.q),
                              conductor=alg.ell)
    if parity == "even":
        return quotient_ideal("overline", multiplicative_order(alg.pres.q),
                              conductor=alg.ell)
    return [images[pair] - alg.pres.one() * alg.counit(images[pair])
            for pair in QUAD_PAIRS]


def construct_quotient(d: SubgroupDatum,
                       probe_bound: int = DEFAULT_PROBE_BOUND,
                       raise_on_inconsistent: bool = True) -> Construction:
    """Run the three steps on a datum and certify the result.  Every
    quotient divides the complete base sl2_algebra and completes until no
    overlap is left, a catalog group's infinite ambient included; the probe
    bound only limits the words counted in an infinite dimension."""
    violations = validate_datum(d)
    if violations:
        raise InconsistentDatum("; ".join(violations))

    parity = d.parity
    gamma = d.gamma
    order = gamma.order

    # conductor: the base root of unity and the embedding root must coexist
    conductor = lcm(d.ell, gamma.root_order(parity))

    base = sl2_algebra(parity, d.ell, conductor=conductor)
    images = gamma_embedding(parity, base)
    transcript: dict = {"parity": parity, "ell": d.ell, "conductor": conductor,
                        "steps": []}

    step1 = []
    if 1 not in d.I_plus:
        step1.append(base.pres.gen(B))
    if 1 not in d.I_minus:
        step1.append(base.pres.gen(C))
    transcript["steps"].append({
        "step": 1, "ideal": [render_poly(g) for g in step1]})

    kres = None
    if gamma.finite:
        kres = kernel_sigma_t(gamma, parity)
        step2 = lift_classical_polys(kres.generators, parity, images, base)
        transcript["kernel"] = [render_poly(g) for g in kres.generators]
    else:
        step2 = _catalog_kernel(gamma.name, images, base)
    transcript["steps"].append({
        "step": 2, "ideal": [render_poly(g, base.pres.order) for g in step2]})

    # (b), (c) and a kernel lifted through a Hopf subalgebra are Hopf ideals
    a2 = base.quotient(step1 + step2, label=f"A[{parity},step2]")
    dim2 = dimension(a2.pres, probe_bound)
    transcript["after_step2_dim"] = repr(dim2)

    step3 = []
    if d.N_generator is not None:
        p = d.N_generator
        rel = (NCPoly.monomial(ABCD, conductor, (A,) * p)
               - NCPoly.monomial(ABCD, conductor,
                                 (A,) * (d.ell * d.delta_exponent)))
        step3 = [rel]
        algebra = a2.quotient(step3, label=f"A_D[{parity}]")
    else:
        algebra = a2
    transcript["steps"].append({
        "step": 3, "ideal": [render_poly(g, base.pres.order) for g in step3]})

    # reports name A_D by its datum; its presentation keeps the short label
    algebra.label = f"A_D({parity}, ell={d.ell}, gamma={gamma.to_json()})"
    dim_res = dimension(algebra.pres, probe_bound) if step3 else dim2

    h_ideal = step1 + _parity_augmentation_ideal(parity, images, base)
    if d.N_generator is not None:
        h_ideal = h_ideal + [NCPoly.monomial(ABCD, conductor,
                                             (A,) * d.N_generator)
                             - base.pres.one()]
    h = base.quotient(h_ideal, label=f"H({parity})")
    h_dim = dimension(h.pres, probe_bound)

    certificates = list(kres.certificates if kres else [])
    # pipeline monotonicity: dimensions only shrink along the transcript
    if dim2.finite and dim_res.finite:
        certificates.append(CheckResult(
            "pipeline-monotone", algebra.label, dim_res.value <= dim2.value,
            f"{dim2.value} -> {dim_res.value}"))

    gamma_image_dim = None
    if gamma.finite and dim_res.finite:
        gens = [normal_form(algebra.pres, g) for g in images.values()]
        gamma_image_dim = span_closure(
            algebra.pres.one(),
            lambda v: (product_normal_form(algebra.pres, v, g)
                       for g in gens),
            lambda v: v.terms).dim
        certificates.append(CheckResult(
            "gamma-image-dimension", algebra.label, gamma_image_dim == order,
            f"image dim {gamma_image_dim}, |group| {order}"))
        if h_dim.finite:
            certificates.append(CheckResult(
                "sequence-dimension", algebra.label,
                dim_res.value == order * h_dim.value,
                f"{dim_res.value} = {order} x {h_dim.value}"))

    transcript["dim"] = repr(dim_res)
    transcript["h_dim"] = repr(h_dim)
    transcript["gamma_image_dim"] = gamma_image_dim

    result = Construction(d, algebra, h, dim_res, h_dim,
                          gamma_image_dim, transcript, certificates, kres)
    if raise_on_inconsistent and not result.consistent:
        raise InconsistentDatum(
            f"certificates failed: "
            f"{[c.to_json() for c in certificates if not c.ok]}")
    return result


def exact_sequence_shadow(result: Construction) -> list[CheckResult]:
    """dim A = (coinvariant dimension) x (dim H) on a finite construction."""
    model = FiniteModel(result.algebra)
    coinv = coinvariants(model, result.h.pres)
    h_dim = result.h_dim.value
    ok = model.dim == len(coinv) * h_dim
    out = [CheckResult("coinvariant-product", result.algebra.label, ok,
                       f"{model.dim} = {len(coinv)} x {h_dim}")]
    if result.gamma_image_dim is not None:
        out.append(CheckResult(
            "coinvariants-match-group", result.algebra.label,
            len(coinv) == result.gamma_image_dim,
            f"coinv {len(coinv)}, image {result.gamma_image_dim}"))
    return out


# -- datum equivalence -------------------------------------------------------------


@dataclass
class EquivalenceResult:
    equivalent: bool
    witness: int | None = None      # unit u with sigma_1 . u = sigma_2
    reason: str = ""


def datum_equiv(d1: SubgroupDatum, d2: SubgroupDatum) -> EquivalenceResult:
    """Decision procedure for datum equivalence; witness is the group
    automorphism exponent (smallest unit wins)."""
    if d1.parity != d2.parity or d1.ell != d2.ell:
        return EquivalenceResult(False, reason="different parity or ell")
    if tuple(d1.I_plus) != tuple(d2.I_plus) or tuple(d1.I_minus) != tuple(d2.I_minus):
        return EquivalenceResult(False, reason="different I_+/I_-")
    n1 = d1.N_generator
    n2 = d2.N_generator
    if (n1 is None) != (n2 is None) or (n1 is not None and n1 != n2):
        return EquivalenceResult(False, reason="different N")
    g1, g2 = d1.gamma, d2.gamma
    if g1.kind != g2.kind:
        return EquivalenceResult(False, reason="different group kind")
    if g1.kind == "catalog":
        if g1.name != g2.name:
            return EquivalenceResult(False, reason="different catalog groups")
        return EquivalenceResult(True, witness=1, reason="identical embedding")
    if g1.kind == "trivial":
        return EquivalenceResult(True, witness=1, reason="trivial group")
    if g1.kind == "dihedral":
        if g1.m != g2.m:
            return EquivalenceResult(False, reason="different dihedral order")
        return EquivalenceResult(True, witness=1, reason="same dihedral group")
    if g1.n != g2.n:
        return EquivalenceResult(False, reason="different cyclic order")
    n = g1.n
    for u in range(1, n + 1):
        if gcd(u, n) != 1:
            continue
        if (d1.sigma_exponent * u - d2.sigma_exponent) % n:
            continue
        if n1 is not None and (d1.delta_exponent * u - d2.delta_exponent) % n:
            continue
        return EquivalenceResult(True, witness=u,
                                 reason=f"automorphism g -> g^{u}")
    return EquivalenceResult(False, reason="no unit matches sigma and delta")


# -- q = -1 classification -----------------------------------------------------------


def dihedral_model(m: int) -> list:
    """The dihedral group of order 2m as 2m matrices over Q(zeta_2m),
    rotations first: points of the q = -1 algebra, where ad + bc = 1.

    With z = q^2, a primitive m-th root, the rotations are diag(z^k, z^-k)
    and the reflections have off-diagonal entries -z^k and -z^-k (det -1
    as matrices); the group law is the matrix product."""
    if m < 1:
        raise ParamOutOfRange(f"the dihedral group of order 2m needs m >= 1, "
                              f"got {m}")
    conductor = 2 * m
    z = lambda k: CycRat.q_power(conductor, (2 * k) % conductor)
    zero = CycRat.zero(conductor)
    return ([((z(k), zero), (zero, z(-k))) for k in range(m)]
            + [((zero, -z(k)), (-z(-k), zero)) for k in range(m)])


def _mat_mul(x, y):
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2))
                 for i in range(2))


def _mat_inverse(x):
    (a, b), (c, d) = x
    r = (a * d - b * c).inverse()
    return ((d * r, -b * r), (-c * r, a * r))


def verify_dihedral_quotient(m: int) -> list[CheckResult]:
    """Certify the surjection onto functions on the order-2m dihedral group.

    The target is a function algebra, so all Hopf compatibilities are
    pointwise identities: products are componentwise, the coproduct is
    precomposition with group multiplication, the antipode with inversion.
    """
    mats = dihedral_model(m)
    cond = 2 * m
    base = sl2_algebra("minus_one", 2, conductor=cond)
    results = []
    label = f"o-minus1-sl2 -> functions(D_{2 * m})"
    # the value of each generator and coproduct leg word at each group
    # element, read once
    legs = {(g,) for g in range(4)} | {
        w for g in range(4) for key in base.hopf.delta[g].terms for w in key}
    at = [{w: _eval_word(w, x, cond) for w in legs} for x in mats]

    for rel in base.pres.defining:
        results.append(CheckResult(
            "morphism-relation", label,
            all(_eval_poly(rel, x, cond).is_zero() for x in mats),
            render_poly(rel, base.pres.order)))

    def convolve(g, i, j):
        out = CycRat.zero(cond)
        for (u, v), c in base.hopf.delta[g].terms.items():
            out = out + c * at[i][u] * at[j][v]
        return out

    table = {(i, j): _mat_mul(x, y)
             for i, x in enumerate(mats) for j, y in enumerate(mats)}
    for g in range(4):
        gname = ABCD[g]
        ok = all(xy[g // 2][g % 2] == convolve(g, i, j)
                 for (i, j), xy in table.items())
        results.append(CheckResult("morphism-delta", label, ok, gname))
        results.append(CheckResult(
            "morphism-counit", label,
            at[0][(g,)] == base.hopf.counit[g], gname))
        ok = all(_eval_poly(base.hopf.antipode[g], x, cond)
                 == _mat_inverse(x)[g // 2][g % 2] for x in mats)
        results.append(CheckResult("morphism-antipode", label, ok, gname))

    # surjectivity: products of the four image functions span everything
    ech = span_closure(
        [CycRat.one(cond)] * len(mats),
        lambda v: ([a * x[(g,)] for a, x in zip(v, at)] for g in range(4)),
        lambda v: {i: x for i, x in enumerate(v) if not x.is_zero()})
    results.append(CheckResult("morphism-surjective", label,
                               ech.dim == len(mats),
                               f"span {ech.dim} of {len(mats)}"))

    # the two evaluation maps: alpha at the rotation generator, beta at the
    # base reflection; their value tables and the dihedral relations
    r, s = mats[1 % m], mats[m]
    Bval = r[0][0]
    Cval = s[0][1]
    table_ok = (r[0][1].is_zero() and r[1][0].is_zero()
                and r[1][1] == (Bval ** (m - 1) if m > 1 else Bval)
                and s[0][0].is_zero() and s[1][1].is_zero()
                and s[1][0] == Cval.inverse())
    results.append(CheckResult("alpha-beta-tables", label, table_ok,
                               f"alpha(a) = {Bval.render()}, beta(b) = {Cval.render()}"))
    # beta is an involution: evaluation at s convolved with itself is the counit
    ok = all(convolve(g, m, m) == base.hopf.counit[g] for g in range(4))
    results.append(CheckResult("beta-involution", label, ok))
    # the evaluation points form a group, dihedral of order 2m
    e, elements = mats[0], set(mats)
    pow_r = e
    for _ in range(m):
        pow_r = _mat_mul(pow_r, r)
    srs = _mat_mul(_mat_mul(s, r), _mat_inverse(s))
    group_ok = (len(elements) == 2 * m and pow_r == e
                and set(table.values()) <= elements
                and _mat_mul(s, s) == e and srs == _mat_inverse(r))
    results.append(CheckResult("dihedral-relations", label, group_ok,
                               f"order {len(elements)}"))
    return results


def minus_one_case_i_datum(gamma: GroupSpec) -> SubgroupDatum:
    """The q = -1 datum of case I (b and c kept) with the subgroup gamma."""
    return SubgroupDatum(parity="minus_one", ell=2, I_plus=(1,), I_minus=(1,),
                         gamma=gamma)


def minus_one_classify(gamma: GroupSpec):
    """Route a q = -1 subgroup: kernel quotient or dihedral function algebra."""
    if gamma.kind == "dihedral":
        return ("II", verify_dihedral_quotient(gamma.m))
    return ("I", construct_quotient(minus_one_case_i_datum(gamma)))
