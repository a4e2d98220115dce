"""Acceptance suite: every exit criterion, exact tolerances, one line each.

Each test prints a PASS line on success (shown with pytest -s or -rA);
an assertion failure marks the criterion red.  All checks are exact
identities over the cyclotomic coefficient field; there are no numeric
tolerances anywhere.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qsl2.errors import InconsistentDatum
from qsl2.hopf import (FiniteModel, HopfStructure, NamedAlgebra, all_ok,
                       check_axioms, check_central, check_normal,
                       check_structure_well_defined, grouplikes,
                       hopf_quotient)
from qsl2.ncalg import NCPoly, TensorPoly
from qsl2.presentations import (ABCD, classical_sl2, distinguished_subalgebra,
                                o_minus1_sl2, oq_sl2, phi_images,
                                psl2_model, quotient_ideal,
                                verify_psl2_embedding, _sl2_order,
                                _sl2_relations)
from qsl2.rewrite import (build_presentation, check_confluence, dimension,
                          enumerate_basis, normal_form, quotient_presentation,
                          tensor_normal_form)
from qsl2.subgroups import (GroupSpec, SubgroupDatum, construct_quotient,
                            datum_equiv, exact_sequence_shadow, kernel_sigma_t,
                            verify_dihedral_quotient)

A, B, C, D = 0, 1, 2, 3


def _finite_quotient(ell, kind, bound):
    alg = oq_sl2(ell)
    quot = quotient_presentation(alg.pres, quotient_ideal(kind, ell),
                                 complete_to=bound, label=f"{kind}-{ell}")
    return alg, quot


def test_criterion_01_dimension_formulas():
    for ell, expected in ((3, 27), (5, 125)):
        _, quot = _finite_quotient(ell, "widehat", 3 * ell)
        res = dimension(quot, 3 * ell)
        assert res.finite and res.value == expected
    for ell, expected in ((4, 16), (6, 54)):
        _, quot = _finite_quotient(ell, "overline", 2 * ell + 2)
        res = dimension(quot, 2 * ell + 2)
        assert res.finite and res.value == expected
    print("ACCEPTANCE 1 dimension-formulas (27, 125, 16, 54): PASS")


def test_criterion_02_pbw_fidelity():
    def pbw(n):
        out = set()
        for l in range(n + 1):
            for m in range(n + 1 - l):
                out.add((A,) * l + (B,) * m + (C,) * (n - l - m))
        for t in range(1, n + 1):
            for m in range(n + 1 - t):
                out.add((B,) * m + (C,) * (n - t - m) + (D,) * t)
        return out

    for ell in (4, 5):
        levels = enumerate_basis(oq_sl2(ell).pres, 6)
        for n in range(7):
            assert len(levels[n]) == (n + 1) ** 2
            assert set(levels[n]) == pbw(n)
    print("ACCEPTANCE 2 pbw-fidelity ((n+1)^2, setwise, n <= 6): PASS")


def test_criterion_03_confluence_at_8():
    presentations = [
        ("classical-sl2", classical_sl2().pres),
        ("o-minus1-sl2", o_minus1_sl2().pres),
    ]
    for ell in (3, 4, 5, 6):
        presentations.append((f"oq-sl2({ell})", oq_sl2(ell).pres))
    for ell in (3, 5):
        presentations.append(
            (f"widehat-{ell}", _finite_quotient(ell, "widehat", 3 * ell)[1]))
    for ell in (4, 6):
        presentations.append(
            (f"overline-{ell}", _finite_quotient(ell, "overline", 2 * ell + 2)[1]))
    for ell in (3, 5):
        cons = construct_quotient(SubgroupDatum(
            parity="odd", ell=ell, I_plus=(1,), I_minus=(),
            gamma=GroupSpec("catalog", name="G_a")))
        presentations.append((f"taft-{ell}", cons.h.pres))
    for n in (2, 3, 4):
        cons = construct_quotient(SubgroupDatum(
            parity="minus_one", ell=2, I_plus=(1,), I_minus=(1,),
            gamma=GroupSpec("cyclic", n=n)))
        presentations.append((f"cz2n-{n}", cons.algebra.pres))
    for ell, n in ((4, 2), (6, 2), (6, 3)):
        cons = construct_quotient(SubgroupDatum(
            parity="even", ell=ell, gamma=GroupSpec("cyclic", n=n)))
        presentations.append((f"cz2mn-{ell}-{n}", cons.algebra.pres))
    cons = construct_quotient(SubgroupDatum(
        parity="even", ell=6, gamma=GroupSpec("cyclic", n=2),
        N_generator=2, delta_exponent=1))
    presentations.append(("jdelta-6-2", cons.algebra.pres))
    for parity, ell in (("odd", 3), ("even", 4), ("minus_one", 2)):
        cons = construct_quotient(SubgroupDatum(
            parity=parity, ell=ell, gamma=GroupSpec("catalog", name="torus")))
        presentations.append((f"case-I-top-{parity}", cons.h.pres))

    for name, pres in presentations:
        unresolved = check_confluence(pres, 8)
        assert unresolved == [], f"{name}: {len(unresolved)} unresolved"
    print(f"ACCEPTANCE 3 confluence (0 unresolved overlaps at length 8 "
          f"across {len(presentations)} presentations): PASS")


def test_criterion_04_hopf_battery_and_mutants():
    for ell in (3, 4, 5, 6):
        alg = oq_sl2(ell)
        assert all_ok(check_structure_well_defined(alg))
        assert all_ok(check_axioms(alg, 3))
    m1 = o_minus1_sl2()
    assert all_ok(check_structure_well_defined(m1))
    assert all_ok(check_axioms(m1, 3))

    ell = 5
    alg = oq_sl2(ell)
    q = alg.pres.q
    h = alg.hopf

    d = dict(h.delta)
    d[A] = TensorPoly.monomial(ABCD, ell, ((A,), (A,)))  # drop b (x) c
    mut1 = NamedAlgebra(alg.pres, HopfStructure(d, h.counit, h.antipode),
                        "mutant-delta")
    assert not all_ok(check_structure_well_defined(mut1))

    s = dict(h.antipode)
    s[B] = NCPoly.monomial(ABCD, ell, (B,), q.inverse())  # wrong sign
    mut2 = NamedAlgebra(alg.pres, HopfStructure(h.delta, h.counit, s),
                        "mutant-antipode")
    assert (not all_ok(check_structure_well_defined(mut2))
            or not all_ok(check_axioms(mut2, 2)))

    rels = _sl2_relations(ell, q)[:-1]  # drop the determinant relation
    pres = build_presentation(ABCD, _sl2_order(), rels, ell, q, "odd", 8)
    mut3 = NamedAlgebra(pres, h, "mutant-nodet")
    assert not all_ok(check_axioms(mut3, 2))
    print("ACCEPTANCE 4 hopf-battery (ell in {3,4,5,6} and q = -1; "
          "3 seeded mutants caught): PASS")


def test_criterion_05_subalgebra_lemma():
    for ell in (3, 5):
        alg = oq_sl2(ell, complete_to=2 * ell + 2)
        assert all_ok(check_central(alg, distinguished_subalgebra("L_odd", ell)))
    m1 = o_minus1_sl2()
    Bgens = distinguished_subalgebra("B_minus1", 2)
    assert all_ok(check_normal(m1, Bgens))
    model = psl2_model(8)
    assert all_ok(verify_psl2_embedding(model, m1, phi_images(m1), 2))
    for ell in (4, 6):
        alg = oq_sl2(ell)
        assert all_ok(check_normal(alg, distinguished_subalgebra("N_even", ell)))
    alg3 = oq_sl2(3)
    assert all_ok(hopf_quotient(alg3, quotient_ideal("widehat", 3))[1])
    alg6 = oq_sl2(6)
    assert all_ok(hopf_quotient(alg6, quotient_ideal("overline", 6))[1])
    print("ACCEPTANCE 5 subalgebra-lemma (L central 3,5; B normal + "
          "embedding to degree 4; N normal 4,6; quotient ideals are Hopf "
          "ideals): PASS")


def _taft_algebra(ell):
    cons = construct_quotient(SubgroupDatum(
        parity="odd", ell=ell, I_plus=(1,), I_minus=(),
        gamma=GroupSpec("catalog", name="G_a")))
    return cons, cons.h


def test_criterion_06_worked_examples():
    # unipotent-line quotients: dim ell^2, ell grouplikes, skew-primitive b*a
    for ell in (3, 5):
        cons, taft = _taft_algebra(ell)
        assert cons.h_dim.value == ell ** 2
        rep = grouplikes(FiniteModel(taft))
        assert rep.count() == ell and rep.complete
        x = normal_form(taft.pres, taft.pres.poly("b*a"))
        lhs = taft.delta(x)
        rhs = TensorPoly.zero(ABCD, taft.ell)
        for w, c in x.terms.items():
            rhs = rhs + TensorPoly.monomial(ABCD, taft.ell, ((A, A), w), c)
            rhs = rhs + TensorPoly.monomial(ABCD, taft.ell, (w, ()), c)
        assert (lhs - tensor_normal_form(taft.pres, rhs)).is_zero()

    # cyclic subgroups at q = -1: dim 2n and the standard kernel recovered
    for n in (2, 3, 4):
        cons = construct_quotient(SubgroupDatum(
            parity="minus_one", ell=2, I_plus=(1,), I_minus=(1,),
            gamma=GroupSpec("cyclic", n=n)))
        assert cons.dim.value == 2 * n
        kres = kernel_sigma_t(GroupSpec("cyclic", n=n), "minus_one")
        p = kres.quotient.poly
        expected = ([f"x11^{2 * n} - 1", f"x22^{2 * n} - 1", "x11*x22 - 1"]
                    + ["x11*x12", "x11*x21", "x12*x21", "x12*x22", "x21*x22",
                       "x12^2", "x21^2"])
        assert all(normal_form(kres.quotient, p(t)).is_zero()
                   for t in expected)

    # cyclic subgroups at even order: dim 2mn
    for ell, n in ((4, 2), (6, 2), (6, 3)):
        cons = construct_quotient(SubgroupDatum(
            parity="even", ell=ell, gamma=GroupSpec("cyclic", n=n)))
        assert cons.dim.value == (ell // 2) * 2 * n

    # the twist step: a consistent datum collapses 2mn to 2n; the literal
    # m = n parameters violate the congruence and are rejected (criterion 10)
    cons = construct_quotient(SubgroupDatum(
        parity="even", ell=6, gamma=GroupSpec("cyclic", n=2),
        N_generator=2, delta_exponent=1))
    assert cons.transcript["after_step2_dim"] == "Finite(12)"
    assert cons.dim.value == 4
    print("ACCEPTANCE 6 worked-examples (taft ell^2 + grouplikes + witness; "
          "2n at q=-1 with kernels; 2mn even; twist collapse 12 -> 4): PASS")


def test_criterion_07_exact_sequence_shadows():
    finite_data = [
        SubgroupDatum(parity="minus_one", ell=2, I_plus=(1,), I_minus=(1,),
                      gamma=GroupSpec("cyclic", n=n)) for n in (2, 3, 4)
    ] + [
        SubgroupDatum(parity="even", ell=ell, gamma=GroupSpec("cyclic", n=n))
        for ell, n in ((4, 2), (6, 2), (6, 3))
    ] + [
        SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=2),
                      N_generator=2, delta_exponent=1)
    ]
    count = 0
    for datum in finite_data:
        cons = construct_quotient(datum)
        shadow = exact_sequence_shadow(cons)
        assert all_ok(shadow), shadow
        count += 1
    print(f"ACCEPTANCE 7 exact-sequence-shadows (dim A = dim coinv x dim H "
          f"on {count} finite instances): PASS")


def test_criterion_08_dihedral_surface():
    for m in (2, 3, 4):
        rep = verify_dihedral_quotient(m)
        assert all_ok(rep), [r for r in rep if not r.ok]
        names = {r.check for r in rep}
        assert {"morphism-relation", "morphism-delta", "morphism-counit",
                "morphism-antipode", "morphism-surjective",
                "alpha-beta-tables", "beta-involution",
                "dihedral-relations"} <= names
    print("ACCEPTANCE 8 dihedral-surface (Hopf surjection, value tables, "
          "involution for m in {2,3,4}): PASS")


def _random_datum(data):
    n = data.draw(st.sampled_from([2, 3, 4, 5, 6]))
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
    e = data.draw(st.sampled_from(units))
    with_n = data.draw(st.booleans())
    return SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=n),
                         sigma_exponent=e,
                         N_generator=2 if with_n else None,
                         delta_exponent=(data.draw(st.sampled_from(units))
                                         if with_n else 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_criterion_09_equivalence_properties(data):
    d1, d2, d3 = (_random_datum(data) for _ in range(3))
    assert datum_equiv(d1, d1).equivalent
    r12, r21 = datum_equiv(d1, d2), datum_equiv(d2, d1)
    assert r12.equivalent == r21.equivalent
    if r12.equivalent and datum_equiv(d2, d3).equivalent:
        assert datum_equiv(d1, d3).equivalent


def test_criterion_09_equivalence_instances():
    d_e = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5),
                        sigma_exponent=1)
    d_me = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5),
                         sigma_exponent=4)
    assert datum_equiv(d_e, d_me).equivalent
    d_n = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5),
                        N_generator=2)
    assert not datum_equiv(d_e, d_n).equivalent

    d1 = SubgroupDatum(parity="even", ell=4, gamma=GroupSpec("cyclic", n=3),
                       sigma_exponent=1)
    d2 = SubgroupDatum(parity="even", ell=4, gamma=GroupSpec("cyclic", n=3),
                       sigma_exponent=2)
    assert datum_equiv(d1, d2).equivalent
    fingerprints = []
    for d in (d1, d2):
        cons = construct_quotient(d)
        rep = grouplikes(FiniteModel(cons.algebra))
        fingerprints.append((cons.dim.value, rep.count(), rep.complete))
    assert fingerprints[0] == fingerprints[1]
    print("ACCEPTANCE 9 datum-equivalence (equivalence relation on a "
          "randomized cyclic family; exponent e vs -e; N mismatch; equal "
          "fingerprints): PASS")


def test_criterion_10_consistency_enforcement():
    # even regime, m = n = 2: r m = 0 mod n violates the congruence
    with pytest.raises(InconsistentDatum):
        construct_quotient(SubgroupDatum(
            parity="even", ell=4, gamma=GroupSpec("cyclic", n=2),
            N_generator=2, delta_exponent=1))
    # odd regime, ell = 3, k = 4: r t = 3 != 1 mod 4
    with pytest.raises(InconsistentDatum):
        construct_quotient(SubgroupDatum(
            parity="odd", ell=3, gamma=GroupSpec("cyclic", n=4),
            N_generator=1, delta_exponent=1))
    # and the certificate names the group-image collapse
    try:
        construct_quotient(SubgroupDatum(
            parity="even", ell=4, gamma=GroupSpec("cyclic", n=2),
            N_generator=2, delta_exponent=1))
    except InconsistentDatum as exc:
        assert "gamma-image-dimension" in str(exc)
    print("ACCEPTANCE 10 consistency-enforcement (congruence-violating data "
          "rejected by the group-image certificate): PASS")
