"""Named instances with their certified expectations: the regression surface.

Every expectation is recomputed by verify(); nothing is assumed.  Entries
return CheckResult rows shared with the verification modules, so the CLI
report schema is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .errors import ParamOutOfRange, UnknownEntry
from .exactla import addto
from .hopf import (CheckResult, FiniteModel, NamedAlgebra, all_ok,
                   check_central, check_normal, grouplikes, hopf_quotient,
                   run_battery, verify_hopf_morphism)
from .ncalg import TensorPoly
from .presentations import (ABCD, classical_sl2, distinguished_subalgebra,
                            phi_even_images, phi_images, psl2_model,
                            quotient_ideal, require_parity, sl2_algebra,
                            sl2_parity, verify_psl2_embedding)
from .rewrite import (check_confluence, dimension, normal_form,
                      tensor_normal_form)
from .subgroups import (GroupSpec, SubgroupDatum, construct_quotient,
                        exact_sequence_shadow, gamma_embedding,
                        minus_one_case_i_datum, verify_dihedral_quotient)

A, B, C, D = 0, 1, 2, 3


@dataclass
class CatalogEntry:
    name: str
    params: dict
    expected: dict
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all_ok(self.results)

    def to_json(self):
        return {"entry": self.name, "params": self.params,
                "expected": self.expected,
                "status": "pass" if self.ok else "fail",
                "results": [r.to_json() for r in self.results]}


def _confluence(subject: str, pres) -> CheckResult:
    """No overlap of two lhs is longer than 2 * maxlhs - 1: checking that far
    reduces every one, an independent audit of completion's chain criterion."""
    longest = max(map(len, pres.rules))
    return CheckResult("confluence", subject,
                       check_confluence(pres, 2 * longest - 1) == [])


def _dimension_row(check: str, label: str, res, expected,
                   note: str = "") -> CheckResult:
    """res is finite of dimension expected, or infinite if expected is
    None."""
    if expected is None:
        return CheckResult(check, label, not res.finite, repr(res))
    return CheckResult(check, label, res.finite and res.value == expected,
                       f"{res!r}, expected {expected}{note}")


def _grouplikes_row(alg: NamedAlgebra, expected: int) -> CheckResult:
    """alg has expected grouplikes, with a completeness certificate."""
    rep = grouplikes(FiniteModel(alg))
    return CheckResult("grouplikes", alg.label,
                       rep.count() == expected and rep.complete,
                       f"{rep.count()} found ({rep.method})")


# the subgroup data of the catalog entries, shared with the CLI


def taft_datum(ell: int) -> SubgroupDatum:
    """The unipotent line G_a in the case I_plus = {1}, at odd ell."""
    return SubgroupDatum(parity="odd", ell=ell, I_plus=(1,), I_minus=(),
                         gamma=GroupSpec("catalog", name="G_a"))


def cz2n_datum(n: int) -> SubgroupDatum:
    """The cyclic group of order n at q = -1, with b and c kept."""
    return minus_one_case_i_datum(GroupSpec("cyclic", n=n))


def cz2mn_datum(ell: int, n: int, p: int | None = None,
                r: int = 1) -> SubgroupDatum:
    """The cyclic group of order n at even ell; a^p = chi^r if p is given."""
    return SubgroupDatum(parity="even", ell=ell, gamma=GroupSpec("cyclic", n=n),
                         N_generator=p, delta_exponent=r)


def torus_datum(parity: str, ell: int) -> SubgroupDatum:
    """The torus in the case where b and c are both killed."""
    return SubgroupDatum(parity=parity, ell=ell,
                         gamma=GroupSpec("catalog", name="torus"))


def _verify_dual(kind: str, ell: int) -> CatalogEntry:
    if kind == "widehat":
        dim, claim = ell ** 3, "quotient dimension is ell^3"
    else:
        dim, claim = 2 * (ell // 2) ** 3, "quotient dimension is 2 m^3"
    entry = CatalogEntry(f"{kind}-dual", {"ell": ell},
                         {"dimension": dim, "claim": claim})
    alg = sl2_algebra(sl2_parity(ell), ell)
    quot, rows = hopf_quotient(alg, quotient_ideal(kind, ell),
                               label=f"{kind}-{ell}")
    entry.results.append(
        _dimension_row("dimension", quot.label, dimension(quot.pres), dim))
    entry.results.append(_confluence(quot.label, quot.pres))
    entry.results.extend(rows)
    return entry


def _verify_taft(ell: int) -> CatalogEntry:
    entry = CatalogEntry("taft", {"ell": ell},
                         {"dimension": ell ** 2, "grouplikes": ell,
                          "claim": "unipotent-line quotient: dim ell^2, "
                                   "cyclic grouplikes, skew-primitive b*a"})
    cons = construct_quotient(taft_datum(ell))
    entry.results.append(_dimension_row(
        "ambient-infinite", cons.algebra.label, cons.dim, None))
    entry.results.append(_dimension_row(
        "dimension", cons.h.pres.label, cons.h_dim, ell ** 2))
    entry.results.append(_confluence(cons.h.pres.label, cons.h.pres))
    taft = cons.h
    taft.label = f"taft-{ell}"
    entry.results.append(_grouplikes_row(taft, ell))
    # skew-primitive witness: Delta(b a) = a^2 (x) b a + b a (x) 1
    x = normal_form(taft.pres, taft.pres.poly("b*a"))
    lhs = taft.delta(x)
    terms: dict = {}
    for w, c in x.terms.items():
        addto(terms, ((A, A), w), c)
        addto(terms, (w, ()), c)
    rhs = tensor_normal_form(taft.pres, TensorPoly(ABCD, taft.ell, 2, terms))
    entry.results.append(CheckResult(
        "skew-primitive-witness", taft.label, (lhs - rhs).is_zero(),
        "Delta(b*a) = a^2 (x) b*a + b*a (x) 1"))
    return entry


def _verify_cz2n(n: int) -> CatalogEntry:
    entry = CatalogEntry("cz2n", {"n": n},
                         {"dimension": 2 * n,
                          "claim": "cyclic subgroup at q = -1: dim 2n"})
    cons = construct_quotient(cz2n_datum(n))
    entry.results.append(_dimension_row(
        "dimension", cons.algebra.label, cons.dim, 2 * n))
    entry.results.append(_confluence(cons.algebra.label, cons.algebra.pres))
    entry.results.extend(cons.certificates)
    entry.results.extend(exact_sequence_shadow(cons))
    # the standard kernel generator list is recovered (two-way containment)
    quot = cons.kernel.quotient
    expected = ([f"x11^{2 * n} - 1", f"x22^{2 * n} - 1", "x11*x22 - 1"]
                + ["x11*x12", "x11*x21", "x12*x21", "x12*x22", "x21*x22",
                   "x12^2", "x21^2"])
    member = all(normal_form(quot, quot.poly(t)).is_zero() for t in expected)
    entry.results.append(CheckResult(
        "kernel-generators-recovered", f"cyclic({n}) in PSL2", member,
        "; ".join(expected[:3]) + "; all off-diagonal quadratics"))
    entry.results.append(_grouplikes_row(cons.algebra, 2 * n))
    return entry


def _verify_cz2mn(ell: int, n: int) -> CatalogEntry:
    m = ell // 2
    entry = CatalogEntry("cz2mn", {"ell": ell, "n": n},
                         {"dimension": 2 * m * n,
                          "claim": "cyclic subgroup at even order: dim 2mn"})
    cons = construct_quotient(cz2mn_datum(ell, n))
    entry.results.append(_dimension_row(
        "dimension", cons.algebra.label, cons.dim, 2 * m * n))
    entry.results.append(_dimension_row(
        "h-dimension", cons.h.pres.label, cons.h_dim, 2 * m))
    entry.results.append(_confluence(cons.algebra.label, cons.algebra.pres))
    entry.results.extend(cons.certificates)
    entry.results.extend(exact_sequence_shadow(cons))
    return entry


def _verify_jdelta(ell: int, n: int, p: int, r: int) -> CatalogEntry:
    m = ell // 2
    entry = CatalogEntry(
        "jdelta", {"ell": ell, "n": n, "p": p, "r": r},
        {"dimension": 2 * n,
         "claim": "twist by a^p = chi^r collapses 2mn to 2n when r m = 1 mod n"})
    cons = construct_quotient(cz2mn_datum(ell, n, p, r))
    entry.results.append(_dimension_row(
        "dimension", cons.algebra.label, cons.dim, 2 * n,
        f" (down from {2 * m * n})"))
    entry.results.extend(cons.certificates)
    entry.results.extend(exact_sequence_shadow(cons))
    return entry


def _verify_dihedral(m: int) -> CatalogEntry:
    entry = CatalogEntry("dihedral", {"m": m},
                         {"dimension": 2 * m,
                          "claim": "surjection onto functions on the "
                                   "order-2m dihedral group"})
    entry.results.extend(verify_dihedral_quotient(m))
    return entry


def _verify_case_i_full(parity: str, ell: int) -> CatalogEntry:
    entry = CatalogEntry("case-I-full", {"parity": parity, "ell": ell},
                         {"h_dimension": ell,
                          "claim": "torus quotient: group-algebra top"})
    cons = construct_quotient(torus_datum(parity, ell))
    entry.results.append(_dimension_row(
        "ambient-infinite", cons.algebra.label, cons.dim, None))
    entry.results.append(_dimension_row(
        "h-dimension", cons.h.pres.label, cons.h_dim, ell))
    cons.h.label = f"case-I-top({parity})"
    entry.results.append(_grouplikes_row(cons.h, ell))
    return entry


def _verify_central_l(ell: int) -> CatalogEntry:
    entry = CatalogEntry("central-L", {"ell": ell},
                         {"claim": "ell-th powers generate a central "
                                   "classical copy"})
    alg = sl2_algebra("odd", ell)
    L = distinguished_subalgebra("L_odd", ell)
    entry.results.extend(check_central(alg, L))
    images = gamma_embedding("odd", alg)
    entry.results.extend(verify_hopf_morphism(classical_sl2(), alg, images))
    return entry


def _verify_normal_b() -> CatalogEntry:
    entry = CatalogEntry("normal-B", {},
                         {"claim": "quadratic subalgebra at q = -1 is normal, "
                                   "not central, and carries the signed "
                                   "even-part embedding"})
    alg = sl2_algebra("minus_one", 2)
    Bgens = distinguished_subalgebra("B_minus1", 2)
    central = check_central(alg, Bgens)
    entry.results.append(CheckResult(
        "not-central", alg.label, not all_ok(central),
        "some generator fails to commute"))
    entry.results.extend(check_normal(alg, Bgens))
    model = psl2_model(8)
    entry.results.extend(
        verify_psl2_embedding(model, alg, phi_images(alg), 2))
    return entry


def _verify_normal_n(ell: int) -> CatalogEntry:
    entry = CatalogEntry("normal-N", {"ell": ell},
                         {"claim": "m-th power pairs generate a normal "
                                   "even-part copy"})
    alg = sl2_algebra("even", ell)
    N = distinguished_subalgebra("N_even", ell)
    central = check_central(alg, N)
    entry.results.append(CheckResult(
        "not-central", alg.label, not all_ok(central),
        "some generator fails to commute"))
    entry.results.extend(check_normal(alg, N))
    model = psl2_model(8)
    entry.results.extend(
        verify_psl2_embedding(model, alg, phi_even_images(alg), 2))
    return entry


def _verify_battery(ell: int) -> CatalogEntry:
    entry = CatalogEntry("battery", {"ell": ell}, {"claim": "Hopf axioms"})
    entry.results.extend(run_battery(sl2_algebra(sl2_parity(ell), ell), 3))
    return entry


# name -> (builder, the parameters it reads, the regime its ell lies in);
# case-I-full reads its regime as the parity parameter, battery's base
# takes the regime of its ell, and the rest take no ell
_BUILDERS = {
    "widehat-dual": (partial(_verify_dual, "widehat"), ("ell",), "odd"),
    "overline-dual": (partial(_verify_dual, "overline"), ("ell",), "even"),
    "taft": (_verify_taft, ("ell",), "odd"),
    "cz2n": (_verify_cz2n, ("n",), None),
    "cz2mn": (_verify_cz2mn, ("ell", "n"), "even"),
    "jdelta": (_verify_jdelta, ("ell", "n", "p", "r"), "even"),
    "dihedral": (_verify_dihedral, ("m",), None),
    "case-I-full": (_verify_case_i_full, ("parity", "ell"), None),
    "central-L": (_verify_central_l, ("ell",), "odd"),
    "normal-B": (_verify_normal_b, (), None),
    "normal-N": (_verify_normal_n, ("ell",), "even"),
    "battery": (_verify_battery, ("ell",), None),
}


def entry_names() -> list[str]:
    return sorted(_BUILDERS)


def entry_parameters(name: str) -> tuple:
    """The parameters an entry reads, all of them required."""
    if name not in _BUILDERS:
        raise UnknownEntry(name)
    return _BUILDERS[name][1]


def verify_entry(name: str, **params) -> CatalogEntry:
    keys = entry_parameters(name)
    builder, _, regime = _BUILDERS[name]
    missing = [k for k in keys if k not in params]
    if missing:
        raise ParamOutOfRange(f"{name} needs parameters {list(keys)}")
    args = {k: params[k] for k in keys}
    regime = args.get("parity", regime)
    if regime is not None:
        require_parity(regime, args["ell"], name)
    return builder(**args)


DEFAULT_GRID = [
    ("battery", {"ell": 3}), ("battery", {"ell": 4}),
    ("battery", {"ell": 5}), ("battery", {"ell": 6}),
    ("battery", {"ell": 2}),
    ("widehat-dual", {"ell": 3}), ("widehat-dual", {"ell": 5}),
    ("overline-dual", {"ell": 4}), ("overline-dual", {"ell": 6}),
    ("taft", {"ell": 3}), ("taft", {"ell": 5}),
    ("cz2n", {"n": 2}), ("cz2n", {"n": 3}), ("cz2n", {"n": 4}),
    ("cz2mn", {"ell": 4, "n": 2}), ("cz2mn", {"ell": 6, "n": 2}),
    ("cz2mn", {"ell": 6, "n": 3}),
    ("jdelta", {"ell": 6, "n": 2, "p": 2, "r": 1}),
    ("dihedral", {"m": 2}), ("dihedral", {"m": 3}), ("dihedral", {"m": 4}),
    ("case-I-full", {"parity": "odd", "ell": 3}),
    ("case-I-full", {"parity": "even", "ell": 4}),
    ("case-I-full", {"parity": "minus_one", "ell": 2}),
    ("central-L", {"ell": 3}), ("central-L", {"ell": 5}),
    ("normal-B", {}),
    ("normal-N", {"ell": 4}), ("normal-N", {"ell": 6}),
]


def verify_grid(grid=None) -> list[CatalogEntry]:
    out = []
    for name, params in (grid or DEFAULT_GRID):
        out.append(verify_entry(name, **params))
    return out
