import hashlib
import importlib.util
import json
import sys
from collections import Counter
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qsl2.rewrite
import qsl2.subgroups
from qsl2.cyclo import CycRat, embed_scalar
from qsl2.errors import CertificateFailed, InconsistentDatum, QSL2Error
from qsl2.exactla import kernel_of_columns
from qsl2.hopf import CheckResult, FiniteModel, all_ok, grouplikes
from qsl2.ncalg import NCPoly, render_poly
from qsl2.presentations import (ABCD, XGENS, classical_sl2_presentation,
                                sl2_algebra)
from qsl2.rewrite import (DEFAULT_PROBE_BOUND, check_confluence, dimension,
                          enumerate_basis, normal_form, quotient_presentation)
from qsl2.subgroups import (GroupSpec, SubgroupDatum, construct_quotient,
                            datum_equiv, dihedral_model, exact_sequence_shadow,
                            gamma_embedding, kernel_sigma_t,
                            lift_classical_polys, minus_one_classify,
                            validate_datum, verify_dihedral_quotient)


# -- datum validation ---------------------------------------------------------


def test_validate_taft_datum_ok():
    d = SubgroupDatum(parity="odd", ell=5, I_plus=(1,), I_minus=(),
                      gamma=GroupSpec("catalog", name="G_a"))
    assert validate_datum(d) == []


def test_validate_s_zero_forces_trivial_n():
    d = SubgroupDatum(parity="even", ell=6, I_plus=(1,), I_minus=(1,),
                      N_generator=2, gamma=GroupSpec("cyclic", n=2))
    errs = validate_datum(d)
    assert any("N must be trivial" in e for e in errs)


def test_validate_p_divides_ell():
    d = SubgroupDatum(parity="even", ell=6, N_generator=4,
                      gamma=GroupSpec("cyclic", n=2))
    errs = validate_datum(d)
    assert any("does not divide" in e for e in errs)


def test_validate_noninjective_embedding():
    d = SubgroupDatum(parity="even", ell=4, gamma=GroupSpec("cyclic", n=4),
                      sigma_exponent=2)
    errs = validate_datum(d)
    assert any("not injective" in e for e in errs)


def test_json_roundtrip():
    doc = {"parity": "even", "ell": 6, "I_plus": [], "I_minus": [],
           "N_generator": 2, "gamma": {"kind": "cyclic", "n": 3},
           "sigma": {"exponent": 1}, "delta_exponent": 1}
    d = SubgroupDatum.from_json(doc)
    assert d.to_json() == doc
    d2 = SubgroupDatum.from_json(
        {"parity": "odd", "ell": 5, "gamma": {"kind": "catalog", "name": "G_a"},
         "I_plus": [1], "I_minus": []})
    assert d2.N_generator is None


GROUP_SAMPLES = {"cyclic": {"n": 3}, "dihedral": {"m": 2}, "trivial": {},
                 "catalog": {"name": "G_a"}}


@pytest.mark.parametrize("kind", sorted(qsl2.subgroups.GROUP_FIELDS))
def test_group_json_roundtrip_every_kind(kind):
    doc = {"kind": kind, **GROUP_SAMPLES[kind]}
    gamma = GroupSpec.from_json(doc)
    assert gamma == GroupSpec(kind, **GROUP_SAMPLES[kind])
    assert gamma.to_json() == doc
    assert list(gamma.to_json()) == list(doc)


def test_unknown_group_kind_is_refused():
    # to_json used to write an unknown kind as a catalog group
    with pytest.raises(QSL2Error, match="unknown group kind 'binary_ico"):
        GroupSpec("binary_icosahedral").to_json()
    for kind in ["binary_icosahedral", ["cyclic"]]:
        with pytest.raises(QSL2Error, match="unknown group kind"):
            GroupSpec.from_json({"kind": kind})


@pytest.mark.parametrize("name", sorted(qsl2.subgroups.CATALOG_CASES))
def test_catalog_group_validates_in_its_case_only(name):
    needed = CATALOG_CASES[name]        # the reference table further down
    for case in [((), ()), ((1,), ()), ((), (1,)), ((1,), (1,))]:
        errs = validate_datum(SubgroupDatum(
            parity="odd", ell=3, I_plus=case[0], I_minus=case[1],
            gamma=GroupSpec("catalog", name=name)))
        assert errs == ([] if case == needed else [
            f"catalog group {name} lives in the case "
            f"I_plus={list(needed[0])}, I_minus={list(needed[1])}"])


# -- kernels -------------------------------------------------------------------


def test_kernel_cyclic_psl2():
    kres = kernel_sigma_t(GroupSpec("cyclic", n=2), "minus_one")
    quot = kres.quotient
    expected = ["x11^4 - 1", "x22^4 - 1", "x11*x22 - 1", "x11*x12", "x11*x21",
                "x12*x21", "x12*x22", "x21*x22", "x12^2", "x21^2"]
    assert all(normal_form(quot, quot.poly(t)).is_zero() for t in expected)
    assert all_ok(kres.certificates)


def test_kernel_trivial_group():
    kres = kernel_sigma_t(GroupSpec("trivial"), "odd")
    # quotient is the scalars: the augmentation ideal
    from qsl2.rewrite import dimension
    assert dimension(kres.quotient, 6).value == 1


def test_kernel_cyclic_sl2_odd():
    kres = kernel_sigma_t(GroupSpec("cyclic", n=3), "odd")
    quot = kres.quotient
    for t in ("x12", "x21", "x11^3 - 1", "x11*x22 - 1"):
        assert normal_form(quot, quot.poly(t)).is_zero()


def test_kernel_certificate_names_the_first_failing_generator(monkeypatch):
    gamma = GroupSpec("cyclic", n=3)
    ideal = kernel_sigma_t(gamma, "odd").generators
    assert len(ideal) > 1
    # every generator now fails to vanish: the witness is the first one
    monkeypatch.setattr(qsl2.subgroups, "_eval_poly",
                        lambda p, mat, conductor: CycRat.one(conductor))
    with pytest.raises(CertificateFailed) as info:
        kernel_sigma_t(gamma, "odd")
    assert f"witness='{render_poly(ideal[0])}'" in str(info.value)
    assert f"witness='{render_poly(ideal[-1])}'" not in str(info.value)


def test_odd_lift_is_letter_repetition():
    # g -> g^ell through map_poly, reduced after every factor, equals the
    # words written out letter by letter: the lifted generators of every
    # odd cyclic datum are already normal forms in the base
    lifted = 0
    for ell in (3, 5, 7):
        for n in range(1, 7):
            base = sl2_algebra("odd", ell, conductor=lcm(ell, n))
            images = gamma_embedding("odd", base)
            gens = kernel_sigma_t(GroupSpec("cyclic", n=n), "odd").generators
            want = [NCPoly.from_terms(ABCD, base.ell, [
                (tuple(x for x in w for _ in range(ell)),
                 embed_scalar(c, base.ell)) for w, c in g.terms.items()])
                for g in gens]
            assert lift_classical_polys(gens, "odd", images, base) == want
            lifted += len(gens)
    assert lifted == 63


def group_matrices(gamma, sigma, conductor):
    """The points of gamma embedded by g -> g^sigma, sigma a unit of a
    cyclic group, written out here rather than read from the package."""
    if gamma.kind == "dihedral":
        return qsl2.subgroups._group_matrices(gamma, conductor)
    qp = lambda k: CycRat.q_power(conductor, k % conductor)
    zero = CycRat.zero(conductor)
    return [((qp(sigma * j), zero), (zero, qp(-sigma * j)))
            for j in range(gamma.order)]


def kernel_from_scratch(gamma, parity, sigma=1):
    """The per-degree recomputation kernel_sigma_t replaced, on the group
    embedded by sigma: at each degree, every irreducible word of every
    length so far is evaluated again, one kernel_of_columns runs over all
    of them and the quotient is completed again from the ambient.
    (generators, quotient, certificates)."""
    order = gamma.order
    step = 1 if parity == "odd" else 2
    conductor = gamma.root_order(parity)
    mats = group_matrices(gamma, sigma, conductor)
    ambient = classical_sl2_presentation(conductor)
    ideal, quot = [], ambient
    expected = order if parity == "odd" else 2 * order
    for deg in range(step, step * (order + 2) + 1, step):
        levels = enumerate_basis(quot, deg)
        batch = [w for dd in range(0, deg + 1, step) for w in levels[dd]]
        cols = [{i: v for i, m in enumerate(mats)
                 if not (v := qsl2.subgroups._eval_word(w, m, conductor))
                 .is_zero()} for w in batch]
        combos = kernel_of_columns(cols, conductor)
        if combos:
            ideal += [NCPoly.from_terms(
                XGENS, conductor, [(batch[i], c) for i, c in combo.items()])
                for combo in combos]
            quot = quotient_presentation(ambient, ideal,
                                         label="classical/kernel")
        res = dimension(quot)
        if res.finite and res.value == expected:
            break
    vanish = all(qsl2.subgroups._eval_poly(g, m, conductor).is_zero()
                 for g in ideal for m in mats)
    if parity == "odd":
        dim_ok = res.finite and res.value == order
        witness = f"dim {res.value} = |group| {order}"
    else:
        even_dim = sum(res.counts[::2])
        dim_ok = res.finite and even_dim == order and res.value == 2 * order
        witness = (f"even part {even_dim} = |group| {order}; "
                   f"total {res.value} = preimage order {2 * order}")
    certs = [CheckResult("kernel-vanishes", gamma.kind, vanish, None),
             CheckResult("kernel-dimension", gamma.kind, dim_ok, witness)]
    return ideal, quot, certs


def units(n):
    return [u for u in range(1, n + 1) if gcd(u, n) == 1]


KERNEL_DATA = ([(GroupSpec("cyclic", n=n), parity, sigma)
                for parity in ("odd", "even", "minus_one")
                for n in range(1, 11)
                for sigma in sorted({units(n)[0], units(n)[-1]})]
               + [(GroupSpec("dihedral", m=m), "minus_one", 1)
                  for m in range(1, 7)])


def test_incremental_kernel_equals_the_per_degree_recomputation():
    for gamma, parity, sigma in KERNEL_DATA:
        kres = kernel_sigma_t(gamma, parity)
        ideal, quot, certs = kernel_from_scratch(gamma, parity, sigma)
        case = (gamma, parity, sigma)
        assert ([render_poly(g) for g in kres.generators]
                == [render_poly(g) for g in ideal]), case
        assert kres.quotient.rules == quot.rules, case
        assert kres.quotient.to_json() == quot.to_json(), case
        assert ([c.to_json() for c in kres.certificates]
                == [c.to_json() for c in certs]), case


@pytest.mark.parametrize("gamma, parity", [
    (GroupSpec("cyclic", n=6), "odd"),
    (GroupSpec("cyclic", n=5), "even"),
    (GroupSpec("cyclic", n=4), "minus_one"),
    (GroupSpec("dihedral", m=3), "minus_one"),
])
def test_each_word_is_evaluated_and_each_degree_completed_once(
        monkeypatch, gamma, parity):
    evals, completions = Counter(), []
    in_loop = [True]            # the certificates evaluate the generators
    eval_word, eval_poly = (qsl2.subgroups._eval_word,
                            qsl2.subgroups._eval_poly)
    quotient = qsl2.subgroups.quotient_presentation

    def counted_eval(word, mat, conductor):
        if in_loop[0]:
            evals[word, id(mat)] += 1
        return eval_word(word, mat, conductor)

    def certificate_eval(p, mat, conductor):
        in_loop[0] = False
        return eval_poly(p, mat, conductor)

    def counted_quotient(pres, relations, **kwargs):
        out = quotient(pres, relations, **kwargs)
        completions.append((pres, out))
        return out

    monkeypatch.setattr(qsl2.subgroups, "_eval_word", counted_eval)
    monkeypatch.setattr(qsl2.subgroups, "_eval_poly", certificate_eval)
    monkeypatch.setattr(qsl2.subgroups, "quotient_presentation",
                        counted_quotient)
    kres = kernel_sigma_t(gamma, parity)
    mats = {m for _, m in evals}
    words = {w for w, _ in evals}
    assert len(mats) == gamma.order
    assert set(evals.values()) == {1} and len(evals) == len(words) * len(mats)
    # generators of one degree share the length of their leading word
    degrees = {max(map(len, g.terms)) for g in kres.generators}
    assert len(completions) == len(degrees) >= 1
    assert completions[0][0].rules == classical_sl2_presentation(
        kres.conductor).rules
    for (_, previous), (base, _) in zip(completions, completions[1:]):
        assert base is previous
    assert completions[-1][1] is kres.quotient


def test_sigma_never_enters_the_kernel():
    # every unit sigma embeds the same subgroup mu_n, so the reference
    # elimination on the sigma-embedded points finds, term for term, the
    # generators kernel_sigma_t finds without sigma (evidence on the
    # datum's sigma, which only datum_equiv reads)
    compared = 0
    for parity in ("odd", "even", "minus_one"):
        for n in range(1, 13):
            gamma = GroupSpec("cyclic", n=n)
            want = [render_poly(g) for g in kernel_sigma_t(gamma, parity)
                    .generators]
            for sigma in units(n):
                ideal, _, _ = kernel_from_scratch(gamma, parity, sigma)
                assert [render_poly(g) for g in ideal] == want, (
                    parity, n, sigma)
                compared += 1
    assert compared == 3 * sum(len(units(n)) for n in range(1, 13)) == 138


# (group, parity, the conductor kernel_sigma_t computed, the embedding root
# order construct_quotient took the lcm of with the base ell); None where
# no kernel is computed
FORMER_CONDUCTORS = [
    (GroupSpec("cyclic", n=3), "odd", 3, 3),
    (GroupSpec("cyclic", n=3), "even", 6, 6),
    (GroupSpec("cyclic", n=3), "minus_one", 6, 6),
    (GroupSpec("dihedral", m=2), "odd", None, 4),
    (GroupSpec("dihedral", m=2), "even", 4, 4),
    (GroupSpec("dihedral", m=2), "minus_one", 4, 4),
    (GroupSpec("trivial"), "odd", 1, 1),
    (GroupSpec("trivial"), "even", 2, 1),
    (GroupSpec("trivial"), "minus_one", 2, 1),
    (GroupSpec("catalog", name="torus"), "odd", None, 1),
    (GroupSpec("catalog", name="torus"), "even", None, 1),
    (GroupSpec("catalog", name="torus"), "minus_one", None, 1),
]


@pytest.mark.parametrize("gamma, parity, kernel_conductor, construct_root",
                         FORMER_CONDUCTORS)
def test_root_order_is_every_former_conductor(gamma, parity, kernel_conductor,
                                              construct_root):
    root = gamma.root_order(parity)
    if kernel_conductor is not None:
        assert root == kernel_conductor
        assert kernel_sigma_t(gamma, parity).conductor == root
    base_ell = {"odd": 5, "even": 6, "minus_one": 2}[parity]
    assert lcm(base_ell, root) == lcm(base_ell, construct_root)


# -- construction ----------------------------------------------------------------


@pytest.mark.parametrize("doc", [
    {"parity": "minus_one", "ell": 2, "I_plus": [1], "I_minus": [1],
     "gamma": {"kind": "dihedral", "m": 2}},
    {"parity": "even", "ell": 4, "gamma": {"kind": "cyclic", "n": 2}},
    {"parity": "odd", "ell": 3, "gamma": {"kind": "trivial"}},
    {"parity": "odd", "ell": 3, "gamma": {"kind": "catalog", "name": "torus"}},
])
def test_construction_keeps_the_kernel_of_step_two(doc):
    cons = construct_quotient(SubgroupDatum.from_json(doc))
    if cons.kernel is None:
        assert not cons.datum.gamma.finite
        assert "kernel" not in cons.transcript
    else:
        assert ([render_poly(g) for g in cons.kernel.generators]
                == cons.transcript["kernel"])


@pytest.mark.parametrize("doc", [
    {"parity": "odd", "ell": 3, "gamma": {"kind": "cyclic", "n": 3}},
    {"parity": "even", "ell": 4, "gamma": {"kind": "cyclic", "n": 2}},
    {"parity": "minus_one", "ell": 2, "I_plus": [1], "I_minus": [1],
     "gamma": {"kind": "dihedral", "m": 2}},
])
def test_one_construction_builds_the_gamma_embedding_once(monkeypatch, doc):
    # step 2's lift, the PSL2-side augmentation ideal of H and the
    # Gamma-image span read one build of the images
    calls = Counter()
    for name in ("gamma_embedding", "phi_images"):
        real = getattr(qsl2.subgroups, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(qsl2.subgroups, name, counting)
    cons = construct_quotient(SubgroupDatum.from_json(doc))
    assert cons.consistent
    assert cons.gamma_image_dim == cons.datum.gamma.order
    assert calls["gamma_embedding"] == 1
    assert calls["phi_images"] == (doc["parity"] != "odd")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cz2n(n):
    d = SubgroupDatum(parity="minus_one", ell=2, I_plus=(1,), I_minus=(1,),
                      gamma=GroupSpec("cyclic", n=n))
    res = construct_quotient(d)
    assert res.dim.finite and res.dim.value == 2 * n
    assert res.h_dim.value == 2
    assert res.gamma_image_dim == n
    assert all(c.ok for c in exact_sequence_shadow(res))


def test_constructed_quotient_passes_axioms():
    from qsl2.hopf import check_axioms

    d = SubgroupDatum(parity="minus_one", ell=2, I_plus=(1,), I_minus=(1,),
                      gamma=GroupSpec("cyclic", n=2))
    res = construct_quotient(d)
    assert all_ok(check_axioms(res.algebra, 2))
    rep = grouplikes(FiniteModel(res.algebra))
    assert rep.count() == 4 and rep.complete


@pytest.mark.parametrize("ell,n", [(4, 2), (6, 2), (6, 3)])
def test_cz2mn(ell, n):
    d = SubgroupDatum(parity="even", ell=ell, gamma=GroupSpec("cyclic", n=n))
    res = construct_quotient(d)
    m = ell // 2
    assert res.dim.value == 2 * m * n
    assert res.h_dim.value == 2 * m
    assert all(c.ok for c in exact_sequence_shadow(res))


def test_jdelta_consistent_collapse():
    # ell = 6 (m = 3), n = 2: r m = 3 = 1 mod 2, so the twist is consistent
    # and the dimension collapses from 2mn = 12 to 2n = 4
    d = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=2),
                      N_generator=2, delta_exponent=1)
    res = construct_quotient(d)
    assert res.transcript["after_step2_dim"] == "Finite(12)"
    assert res.dim.value == 4
    assert res.h_dim.value == 2
    assert all(c.ok for c in exact_sequence_shadow(res))


def test_quotients_share_the_base_structure_maps(monkeypatch):
    bases = []

    def recording(*args, **kwargs):
        bases.append(sl2_algebra(*args, **kwargs))
        return bases[-1]

    monkeypatch.setattr(qsl2.subgroups, "sl2_algebra", recording)
    res = construct_quotient(SubgroupDatum(
        parity="even", ell=6, gamma=GroupSpec("cyclic", n=2),
        N_generator=2, delta_exponent=1))
    [base] = bases
    assert res.algebra.hopf is base.hopf
    assert res.h.hopf is base.hopf


def test_jdelta_inconsistent_rejected():
    # ell = 4 (m = 2 = n): r m = 2 = 0 mod 2 violates the congruence and the
    # group image collapses
    d = SubgroupDatum(parity="even", ell=4, gamma=GroupSpec("cyclic", n=2),
                      N_generator=2, delta_exponent=1)
    with pytest.raises(InconsistentDatum):
        construct_quotient(d)


def test_jdelta_inconsistent_odd_rejected():
    # odd ell = 3, full N = (1), k = 4: r t = 3 != 1 mod 4
    d = SubgroupDatum(parity="odd", ell=3, gamma=GroupSpec("cyclic", n=4),
                      N_generator=1, delta_exponent=1)
    with pytest.raises(InconsistentDatum):
        construct_quotient(d)


def test_jdelta_consistent_odd():
    # odd ell = 3, N = (1), k = 2: r t = 3 = 1 mod 2: dim p k = 2
    d = SubgroupDatum(parity="odd", ell=3, gamma=GroupSpec("cyclic", n=2),
                      N_generator=1, delta_exponent=1)
    res = construct_quotient(d)
    assert res.dim.value == 2
    assert res.h_dim.value == 1


@pytest.mark.parametrize("ell,n,r", [
    (4, 2, 1), (4, 3, 1), (4, 3, 2),
    (6, 2, 1), (6, 3, 1), (6, 3, 2), (6, 4, 1), (6, 4, 3),
])
def test_jdelta_dimension_oracle(ell, n, r):
    # independent arithmetic oracle: the twist a^2 = chi^r on the 2mn-torus
    # quotient leaves dimension 2 gcd(mn, mr - 1); the datum is consistent
    # exactly when that gcd equals n
    import math

    m = ell // 2
    g = math.gcd(m * n, m * r - 1)
    d = SubgroupDatum(parity="even", ell=ell, gamma=GroupSpec("cyclic", n=n),
                      N_generator=2, delta_exponent=r)
    res = construct_quotient(d, raise_on_inconsistent=False)
    assert res.dim.value == 2 * g
    assert res.consistent == (g == n)


def test_taft_pipeline():
    d = SubgroupDatum(parity="odd", ell=3, I_plus=(1,), I_minus=(),
                      gamma=GroupSpec("catalog", name="G_a"))
    res = construct_quotient(d)
    assert not res.dim.finite
    assert res.h_dim.value == 9


# the case (I_plus, I_minus) each catalog group lives in, and the words
# counted up to the probe bound 10 in its infinite ambient; G_a's count
# depends on the root
CATALOG_CASES = {"torus": ((), ()), "G_m": ((), ()),
                 "borel_plus": ((1,), ()), "borel_minus": ((), (1,)),
                 "G_a": ((1,), ()), "full": ((1,), (1,))}
CATALOG_WORDS = {"torus": 21, "G_m": 21, "borel_plus": 121,
                 "borel_minus": 121, "full": 506}
# InfiniteAtLeast(n) counts the normal words of length <= 10, and which
# words are normal depends on the letter weights: under sl2_algebra's
# (1, 1, 1, ell + 2) the G_a ambient rewrites d and c away, leaving the
# words a^i b^j with a^i short of the first power of a that is an lhs
G_A_WORDS = {3: 30, 7: 56, 4: 38, 8: 60, 2: 21}


def normal_word_count(rules, ngens, max_len):
    """Words of length <= max_len with no lhs as a factor, grown letter by
    letter: a word with an lhs factor has one in every extension too."""
    lengths = {len(u) for u in rules}
    level, total = [()], 1
    for _ in range(max_len):
        level = [w + (g,) for w in level for g in range(ngens)
                 if not any((w + (g,))[-k:] in rules for k in lengths
                            if k <= len(w) + 1)]
        total += len(level)
    return total


@pytest.mark.parametrize("name", sorted(CATALOG_CASES))
@pytest.mark.parametrize("parity,ell", [("odd", 3), ("odd", 7), ("even", 4),
                                        ("even", 8), ("minus_one", 2)])
def test_catalog_ambients_are_complete(name, parity, ell):
    i_plus, i_minus = CATALOG_CASES[name]
    cons = construct_quotient(SubgroupDatum(
        parity=parity, ell=ell, I_plus=i_plus, I_minus=i_minus,
        gamma=GroupSpec("catalog", name=name)))
    pres = cons.algebra.pres
    assert pres.confluence == "complete"
    assert 4 <= len(pres.rules) <= 7
    longest = 2 * max(map(len, pres.rules)) - 1
    assert check_confluence(pres, longest) == []
    words = G_A_WORDS[ell] if name == "G_a" else CATALOG_WORDS[name]
    assert normal_word_count(pres.rules, 4, DEFAULT_PROBE_BOUND) == words
    assert repr(cons.dim) == f"InfiniteAtLeast({words})"
    # the top H: the group algebra of the roots, times the unipotent line
    # (ell^2 on SL2, 2m^2 on PSL2) for each of b, c kept
    if parity == "minus_one":
        top = 2
    else:
        root = ell if parity == "odd" else ell // 2
        top = ell * root ** (len(i_plus) + len(i_minus))
    assert repr(cons.h_dim) == f"Finite({top})"


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize("seed", [3, 424242])
def test_finite_constructions_are_complete(monkeypatch, seed):
    # the finite data the construct benchmark generates at the seed
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    cases = [c for c in workloads.construct_cases(seed)
             if c.accept and c.dim.startswith("Finite")]
    assert cases
    for case in cases:
        cons = construct_quotient(SubgroupDatum.from_json(case.datum))
        for pres in (cons.algebra.pres, cons.h.pres):
            assert pres.confluence == "complete", case.name
            longest = 2 * max(map(len, pres.rules)) - 1
            assert check_confluence(pres, longest) == [], case.name


# step 2 at the frontier, with I+ = I- = [1]: the lifted relations weigh
# d as ell + 2.  An agenda that popped overlaps by length scheduled 8,622
# (even) and 7,636 (odd) in the step-2 completion; by weight it schedules
# 2,319 and 1,088, to the same rules.  The digests cover the presentation
# and the transcript, as computed with the length-first agenda.
@pytest.mark.parametrize("parity, ell, n, dim, digest", [
    ("even", 8, 12, 1536,
     "51c3e56fa14168b62b03dcf142a63b664e451f4e1925ba9df444dad4a873d275"),
    ("odd", 5, 16, 2000,
     "d4c65ae6a1245cab7426e9009c40b25baa4c83c8f76cdbed17c1a2a97fc63637"),
], ids=["even-8-12", "odd-5-16"])
def test_step_two_frontier_completes_lightest_first(monkeypatch, parity, ell,
                                                    n, dim, digest):
    runs = []

    class Recording(qsl2.rewrite._Completer):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(qsl2.rewrite, "_Completer", Recording)
    cons = construct_quotient(SubgroupDatum.from_json({
        "parity": parity, "ell": ell, "I_plus": [1], "I_minus": [1],
        "gamma": {"kind": "cyclic", "n": n}, "sigma": {"exponent": 1}}))
    assert repr(cons.dim) == f"Finite({dim})"
    assert cons.certificates and all(c.ok for c in cons.certificates)
    blob = json.dumps([cons.algebra.pres.to_json(), cons.transcript],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
    assert max(run.counter for run in runs) <= 3000


def test_validation_error_raises():
    d = SubgroupDatum(parity="even", ell=6, I_plus=(1,), I_minus=(1,),
                      N_generator=2, gamma=GroupSpec("cyclic", n=2))
    with pytest.raises(InconsistentDatum):
        construct_quotient(d)


# -- q = -1 classification ---------------------------------------------------------


def test_minus_one_type_i_matches_cyclic():
    kind, res = minus_one_classify(GroupSpec("cyclic", n=3))
    assert kind == "I"
    assert res.dim.value == 6


def test_minus_one_type_i_dihedral_kernel():
    # a dihedral subgroup also has a kernel-type quotient, of dimension 4m
    d = SubgroupDatum(parity="minus_one", ell=2, I_plus=(1,), I_minus=(1,),
                      gamma=GroupSpec("dihedral", m=2))
    res = construct_quotient(d)
    assert res.dim.value == 8
    assert res.gamma_image_dim == 4
    assert all(c.ok for c in exact_sequence_shadow(res))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_dihedral_quotient(m):
    rep = verify_dihedral_quotient(m)
    assert all_ok(rep)


def test_dihedral_value_tables():
    mats = dihedral_model(3)
    # alpha: evaluation at the rotation r; beta: at the reflection s; the
    # value of a generator x_ij at a matrix is its (i, j) entry
    (ra, rb), (rc, rd) = mats[1]
    (sa, sb), (sc, sd) = mats[3]
    from qsl2.cyclo import multiplicative_order
    assert multiplicative_order(ra) == 3
    assert rb.is_zero() and rc.is_zero()
    assert sa.is_zero() and sd.is_zero()
    assert (sb * sb).is_one()  # order-2 value
    assert sc == sb.inverse()


def test_minus_one_type_ii_routing():
    kind, rep = minus_one_classify(GroupSpec("dihedral", m=3))
    assert kind == "II"
    assert all_ok(rep)


# -- equivalence --------------------------------------------------------------------


def test_equiv_identity_and_inverse_exponent():
    d1 = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5),
                       sigma_exponent=1)
    assert datum_equiv(d1, d1).equivalent
    d2 = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5),
                       sigma_exponent=4)  # -1 mod 5
    res = datum_equiv(d1, d2)
    assert res.equivalent and res.witness == 4


def test_equiv_differing_n():
    d1 = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5))
    d3 = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5),
                       N_generator=2)
    assert not datum_equiv(d1, d3).equivalent
    d4 = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5),
                       N_generator=3)
    d5 = SubgroupDatum(parity="even", ell=6, gamma=GroupSpec("cyclic", n=5),
                       N_generator=2)
    assert not datum_equiv(d4, d5).equivalent


def random_data(draw):
    n = draw(st.sampled_from([2, 3, 4, 5, 6]))
    units = [u for u in range(1, n + 1) if __import__("math").gcd(u, n) == 1]
    e = draw(st.sampled_from(units))
    with_n = draw(st.booleans())
    return SubgroupDatum(
        parity="even", ell=6, gamma=GroupSpec("cyclic", n=n), sigma_exponent=e,
        N_generator=2 if with_n else None,
        delta_exponent=draw(st.sampled_from(units)) if with_n else 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equiv_is_an_equivalence_relation(data):
    d1 = random_data(data.draw)
    d2 = random_data(data.draw)
    d3 = random_data(data.draw)
    assert datum_equiv(d1, d1).equivalent
    r12 = datum_equiv(d1, d2)
    r21 = datum_equiv(d2, d1)
    assert r12.equivalent == r21.equivalent
    if r12.equivalent and r21.equivalent:
        n = d1.gamma.n
        # the witnesses invert each other
        assert (r12.witness * r21.witness - 1) % n == 0
    r23 = datum_equiv(d2, d3)
    r13 = datum_equiv(d1, d3)
    if r12.equivalent and r23.equivalent:
        assert r13.equivalent


def test_equivalent_pair_same_fingerprint():
    d1 = SubgroupDatum(parity="even", ell=4, gamma=GroupSpec("cyclic", n=3),
                       sigma_exponent=1)
    d2 = SubgroupDatum(parity="even", ell=4, gamma=GroupSpec("cyclic", n=3),
                       sigma_exponent=2)
    assert datum_equiv(d1, d2).equivalent
    fps = []
    for d in (d1, d2):
        res = construct_quotient(d)
        rep = grouplikes(FiniteModel(res.algebra))
        fps.append((res.dim.value, rep.count()))
    assert fps[0] == fps[1] == (12, 12)
