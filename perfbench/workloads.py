"""The four qsl2 benchmark workloads: op lists, seeded inputs and references.

Every op is a closed-loop call into the qsl2 package that returns an
Outcome: the reasons it failed (empty when it passed), whether it certified
something the benchmark's own reference contradicts (unsound), and the
canonical bytes of what it produced, which feed the byte-stability digest.

The references are closed forms stated here, never values read back from
the package.  Ops call the package through module attributes
(``catalog.verify_entry``, not a name bound at import), so the tracer can
wrap each layer boundary by patching those attributes.
"""

from __future__ import annotations

import copy
import importlib
import json
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    unsound: bool = False
    output: str = ""


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list
    min_passes: int      # passes a run makes even when --seconds is shorter
    inputs: list         # the generated inputs (datum JSON, op descriptors)

    @property
    def tail_pct(self) -> int:
        """The highest percentile with >= 10 op samples beyond it at the
        minimum pass count; fixed per workload so runs stay comparable."""
        return int(100 * (1 - 10 / (len(self.ops) * self.min_passes)))


def _modules():
    names = ("catalog", "errors", "hopf", "ncalg", "presentations", "rewrite",
             "subgroups")
    return {n: importlib.import_module(f"qsl2.{n}") for n in names}


def render_report(make_doc) -> str:
    """Build a report document and serialize it the way the CLI does."""
    return json.dumps(make_doc(), indent=2, sort_keys=True)


def _witness_head(row) -> str:
    return (row.get("witness") or "").split(",")[0]


def check_rows(rows, refs, require_rows=True) -> Outcome:
    """rows: report rows as JSON; refs: check name -> expected witness head.

    A row that is not "pass" is a failure, and so is an empty report when
    rows are required.  A referenced check whose witness
    differs from the closed form is a failure too, and unsound when the
    package marked it "pass".
    """
    out = Outcome()
    if require_rows and not rows:
        out.failures.append("no result rows")
    for row in rows:
        if row["status"] != "pass":
            out.failures.append(f"{row['check']} FAIL on {row['subject']}"
                                f" ({row.get('witness', '')})")
    for check, expected in refs.items():
        hits = [r for r in rows if r["check"] == check]
        bad = [r for r in hits if _witness_head(r) != expected]
        if not hits or bad:
            got = _witness_head(bad[0]) if bad else "no such row"
            out.failures.append(f"{check}: expected {expected}, got {got}")
            if bad and all(r["status"] == "pass" for r in bad):
                out.unsound = True
    return out


# -- grid ---------------------------------------------------------------------


def grid_reference(name: str, params: dict) -> dict:
    """Closed-form witnesses of the default grid entries."""
    ell, n, m = params.get("ell"), params.get("n"), params.get("m")
    if name == "widehat-dual":
        return {"dimension": f"Finite({ell ** 3})"}
    if name == "overline-dual":
        return {"dimension": f"Finite({2 * (ell // 2) ** 3})"}
    if name == "taft":
        return {"dimension": f"Finite({ell ** 2})"}
    if name == "cz2n":
        return {"dimension": f"Finite({2 * n})"}
    if name == "cz2mn":
        return {"dimension": f"Finite({ell * n})",
                "h-dimension": f"Finite({ell})"}
    if name == "jdelta":
        return {"dimension": f"Finite({2 * n})"}
    if name == "dihedral":
        return {"morphism-surjective": f"span {2 * m} of {2 * m}"}
    if name == "case-I-full":
        top = 2 if params["parity"] == "minus_one" else ell
        return {"h-dimension": f"Finite({top})"}
    return {}


def grid_op(mods, name: str, params: dict, refs: dict) -> Op:
    catalog = mods["catalog"]

    def run():
        entry = catalog.verify_entry(name, **params)
        text = render_report(entry.to_json)
        out = check_rows(json.loads(text)["results"], refs)
        out.output = text
        return out

    label = name + "".join(f",{k}={v}" for k, v in params.items())
    return Op(label, run)


def build_grid(seed: int) -> Workload:
    mods = _modules()
    grid = mods["catalog"].DEFAULT_GRID
    ops = [grid_op(mods, name, params, grid_reference(name, params))
           for name, params in grid]
    return Workload("grid", ops, ops, min_passes=7,
                    inputs=[[name, params] for name, params in grid])


# -- ladder -------------------------------------------------------------------


LADDER = (("widehat", 3), ("widehat", 5), ("widehat", 7),
          ("overline", 4), ("overline", 6), ("overline", 8))


def fresh_presentation(mods, pres):
    """A copy of a completed presentation with an empty normal-form cache."""
    return mods["rewrite"].Presentation(
        pres.gens, pres.order, pres.ell, pres.rules, pres.defining,
        pres.parity, pres.q, pres.completion_bound, pres.collapsed, pres.label)


def fresh_algebra(mods, alg):
    return mods["hopf"].NamedAlgebra(fresh_presentation(mods, alg.pres),
                                     alg.hopf, alg.label)


def ladder_op(mods, kind: str, ell: int, base, ref_dim: int) -> Op:
    rewrite, presentations = mods["rewrite"], mods["presentations"]
    bound = 3 * ell if kind == "widehat" else 2 * ell + 2

    def run():
        quot = rewrite.quotient_presentation(
            fresh_presentation(mods, base.pres),
            presentations.quotient_ideal(kind, ell),
            complete_to=bound, label=f"{kind}-{ell}")
        dim = rewrite.dimension(quot, bound)
        unresolved = rewrite.check_confluence(quot, 8)
        text = render_report(lambda: {
            "dimension": repr(dim), "presentation": quot.to_json(),
            "unresolved_overlaps": len(unresolved)})
        out = Outcome(output=text)
        if repr(dim) != f"Finite({ref_dim})":
            out.failures.append(f"dimension {dim!r}, expected {ref_dim}")
            out.unsound = True
        if unresolved:
            out.failures.append(f"{len(unresolved)} unresolved overlaps")
        return out

    return Op(f"{kind}-{ell}", run)


def build_ladder(seed: int) -> Workload:
    mods = _modules()
    bases = {ell: mods["presentations"].oq_sl2(ell) for _, ell in LADDER}
    ops = [ladder_op(mods, kind, ell, bases[ell],
                     ell ** 3 if kind == "widehat" else 2 * (ell // 2) ** 3)
           for kind, ell in LADDER]
    # widehat-7 runs the same code as widehat-5 at about twenty times the
    # cost, so warming up on it would only lengthen every run
    warmup = [op for op in ops if op.name != "widehat-7"]
    return Workload("ladder", ops, warmup, min_passes=4,
                    inputs=[list(x) for x in LADDER])


# -- construct ----------------------------------------------------------------

# (ell, n) of untwisted cyclic data; dim ell*n, top ell
CYCLIC_ODD = ((3, 2), (3, 5), (5, 3), (5, 6), (7, 4), (7, 5))
CYCLIC_EVEN = ((4, 3), (6, 2), (6, 5), (8, 3), (8, 4))
# n of cyclic data at q = -1; dim 2n, top 2
CYCLIC_MINUS_ONE = (3, 6, 10)
MINUS_ONE_CASES = (([1], [1]), ([], []), ([1], []))
# m of dihedral data at q = -1; dim 4m, top 2
DIHEDRAL = (2, 4, 6)
# (group, parity, ell, dim of the top quotient H); the ambient is infinite
CATALOG = (("torus", "odd", 5, 5), ("torus", "even", 6, 6),
           ("torus", "minus_one", 2, 2), ("G_a", "odd", 3, 9),
           ("G_a", "odd", 7, 49), ("G_a", "even", 4, 8),
           ("G_a", "even", 8, 32))
# (ell, n) of twists a^2 = chi^r at even ell = 2m: accepted iff
# r*m = 1 (mod n), then dim 2n and top 2; otherwise rejected
TWIST_ACCEPTED = ((4, 3), (6, 2), (6, 4), (8, 3), (4, 5))
TWIST_REJECTED = ((4, 2), (6, 3), (8, 2), (6, 5))


@dataclass
class DatumCase:
    name: str
    datum: dict
    accept: bool
    dim: str | None = None      # expected repr head, or "InfiniteAtLeast"
    h_dim: str | None = None


def twist_accepted(ell: int, n: int, r: int) -> bool:
    return (r * (ell // 2)) % n == 1 % n


def construct_cases(seed: int) -> list[DatumCase]:
    """The generated data of one run: fixed cost classes, seeded variants."""
    rng = random.Random(seed)

    def unit(n):
        return rng.choice([u for u in range(1, n + 1) if gcd(u, n) == 1])

    cases = []
    for parity, table in (("odd", CYCLIC_ODD), ("even", CYCLIC_EVEN)):
        for ell, n in table:
            s = unit(n)
            cases.append(DatumCase(
                f"cyclic-{parity}(ell={ell},n={n},sigma={s})",
                {"parity": parity, "ell": ell, "I_plus": [], "I_minus": [],
                 "gamma": {"kind": "cyclic", "n": n},
                 "sigma": {"exponent": s}},
                True, f"Finite({ell * n})", f"Finite({ell})"))
    for n in CYCLIC_MINUS_ONE:
        i_plus, i_minus = rng.choice(MINUS_ONE_CASES)
        s = unit(n)
        cases.append(DatumCase(
            f"cyclic-minus_one(n={n},I={i_plus}{i_minus},sigma={s})",
            {"parity": "minus_one", "ell": 2, "I_plus": i_plus,
             "I_minus": i_minus, "gamma": {"kind": "cyclic", "n": n},
             "sigma": {"exponent": s}},
            True, f"Finite({2 * n})", "Finite(2)"))
    for m in DIHEDRAL:
        cases.append(DatumCase(
            f"dihedral(m={m})",
            {"parity": "minus_one", "ell": 2, "I_plus": [1], "I_minus": [1],
             "gamma": {"kind": "dihedral", "m": m}},
            True, f"Finite({4 * m})", "Finite(2)"))
    for group, parity, ell, top in CATALOG:
        cases.append(DatumCase(
            f"catalog-{group}({parity},ell={ell})",
            {"parity": parity, "ell": ell,
             "I_plus": [1] if group == "G_a" else [], "I_minus": [],
             "gamma": {"kind": "catalog", "name": group}},
            True, "InfiniteAtLeast", f"Finite({top})"))
    for ell, n in TWIST_ACCEPTED + TWIST_REJECTED:
        rs = [r for r in range(n)
              if twist_accepted(ell, n, r) == ((ell, n) in TWIST_ACCEPTED)]
        r = rng.choice(rs)
        accept = twist_accepted(ell, n, r)
        cases.append(DatumCase(
            f"twist(ell={ell},n={n},p=2,r={r})",
            {"parity": "even", "ell": ell, "I_plus": [], "I_minus": [],
             "N_generator": 2, "delta_exponent": r,
             "gamma": {"kind": "cyclic", "n": n}},
            accept, f"Finite({2 * n})" if accept else None,
            "Finite(2)" if accept else None))
    rng.shuffle(cases)
    return cases


PROBE_BOUND = 10     # the CLI default, passed to construct_quotient


def _construct_doc(datum, results, status, extra):
    """The report document of the ``qsl2 construct`` command."""
    doc = {"schema": "qsl2-report/1", "command": "construct",
           "config": {"max_degree": 8, "probe_bound": PROBE_BOUND,
                      "datum": datum.to_json()},
           "status": status, "results": [r.to_json() for r in results]}
    doc.update(extra)
    return doc


def construct_op(mods, case: DatumCase) -> Op:
    subgroups, errors = mods["subgroups"], mods["errors"]
    text_in = json.dumps(case.datum, sort_keys=True)

    def run():
        datum = subgroups.SubgroupDatum.from_json(json.loads(text_in))
        try:
            cons = subgroups.construct_quotient(datum, probe_bound=PROBE_BOUND)
        except errors.InconsistentDatum as exc:
            text = render_report(lambda: _construct_doc(
                datum, [], "inconsistent-datum", {"detail": str(exc)}))
            out = Outcome(output=text)
            if case.accept:
                out.failures.append(f"rejected: {exc}")
            return out
        results = list(cons.certificates)
        if cons.dim.finite:
            results.extend(subgroups.exact_sequence_shadow(cons))
        status = "pass" if all(r.ok for r in results) else "fail"
        text = render_report(lambda: _construct_doc(datum, results, status, {
            "dimension": repr(cons.dim), "h_dimension": repr(cons.h_dim),
            "transcript": cons.transcript,
            "presentation": cons.algebra.pres.to_json()}))
        # a datum with an infinite ambient carries no certificates
        out = check_rows(json.loads(text)["results"], {},
                         require_rows=cons.dim.finite)
        out.output = text
        if not case.accept:
            out.failures.append("accepted a datum the reference rejects")
            out.unsound = status == "pass"
            return out
        for what, got, want in (("dim", repr(cons.dim), case.dim),
                                ("h_dim", repr(cons.h_dim), case.h_dim)):
            head = got.split("(")[0] if want == "InfiniteAtLeast" else got
            if head != want:
                out.failures.append(f"{what} {got}, expected {want}")
                out.unsound = out.unsound or status == "pass"
        return out

    return Op(case.name, run)


def build_construct(seed: int) -> Workload:
    mods = _modules()
    cases = construct_cases(seed)
    ops = [construct_op(mods, c) for c in cases]
    return Workload("construct", ops, ops, min_passes=4,
                    inputs=[c.datum for c in cases])


# -- verify -------------------------------------------------------------------

VERIFY_MENU = (
    [{"call": "run_battery", "subject": "oq-sl2", "ell": ell}
     for ell in range(3, 10)]
    + [{"call": "run_battery", "subject": "o-minus1-sl2", "ell": 2}]
    + [{"call": "check_normal", "subject": "N", "ell": ell}
       for ell in (4, 6, 8)]
    + [{"call": "check_normal", "subject": "B", "ell": 2}]
    + [{"call": "check_central", "subject": "L", "ell": ell}
       for ell in (3, 5, 7)]
    + [{"call": "verify_psl2_embedding", "subject": "N", "ell": ell}
       for ell in (4, 6, 8)])

BATTERY_DEGREE = 4


class VerifySetup:
    """Algebras completed once; each op works on fresh copies of them."""

    def __init__(self, mods):
        pr = mods["presentations"]
        self.base = {ell: pr.oq_sl2(ell) for ell in range(3, 10)}
        self.minus_one = pr.sl2_algebra("minus_one", 2)
        # the images of L have length 2*ell; complete far enough to reduce them
        self.central = {ell: pr.oq_sl2(ell, complete_to=2 * ell + 2)
                        for ell in (3, 5, 7)}
        self.classical = pr.classical_sl2()
        self.model = pr.psl2_model(8)


def verify_calls(mods, setup: VerifySetup, desc: dict):
    """Resolve an op descriptor to a zero-argument call returning rows."""
    hopf, pr, ncalg = mods["hopf"], mods["presentations"], mods["ncalg"]
    call, subject, ell = desc["call"], desc["subject"], desc["ell"]

    def fresh(alg):
        return fresh_algebra(mods, alg)

    if call == "run_battery":
        alg = setup.minus_one if subject == "o-minus1-sl2" else setup.base[ell]
        return lambda: hopf.run_battery(fresh(alg), BATTERY_DEGREE)
    if call == "check_normal" and subject == "N":
        return lambda: hopf.check_normal(
            fresh(setup.base[ell]), pr.distinguished_subalgebra("N_even", ell))
    if call == "check_normal" and subject == "B":
        return lambda: hopf.check_normal(
            fresh(setup.minus_one), pr.distinguished_subalgebra("B_minus1", 2))
    if call == "check_central":
        def central():
            alg = fresh(setup.central[ell])
            images = {g: ncalg.NCPoly.monomial(pr.ABCD, ell, (g,) * ell)
                      for g in range(4)}
            return (hopf.check_central(
                        alg, pr.distinguished_subalgebra("L_odd", ell))
                    + hopf.verify_hopf_morphism(fresh(setup.classical), alg,
                                                images))
        return central
    if call == "verify_psl2_embedding":
        def embedding():
            model = copy.copy(setup.model)
            model.alg = fresh(setup.model.alg)
            alg = fresh(setup.base[ell])
            return pr.verify_psl2_embedding(model, alg,
                                            pr.phi_even_images(alg), 2)
        return embedding
    raise ValueError(f"unknown verify op {desc}")


def verify_reference(desc: dict) -> dict:
    """Row counts the closed forms predict, keyed by check name."""
    if desc["call"] == "check_normal":
        n_elements = 16 if desc["subject"] == "N" else 9
        return {"normal": 4 * n_elements}
    if desc["call"] == "check_central":
        return {"central": 16}
    return {}


def verify_op(mods, setup: VerifySetup, desc: dict, refs: dict) -> Op:
    call = verify_calls(mods, setup, desc)

    def run():
        rows = call()
        text = render_report(lambda: {"results": [r.to_json() for r in rows]})
        out = check_rows(json.loads(text)["results"], {})
        out.output = text
        for check, count in refs.items():
            got = sum(1 for r in rows if r.check == check)
            if got != count:
                out.failures.append(f"{got} {check} rows, expected {count}")
        return out

    name = f"{desc['call']}({desc['subject']},ell={desc['ell']})"
    return Op(name, run)


def verify_stream(seed: int) -> list[dict]:
    stream = [dict(d) for d in VERIFY_MENU]
    random.Random(seed).shuffle(stream)
    return stream


def build_verify(seed: int) -> Workload:
    mods = _modules()
    setup = VerifySetup(mods)
    stream = verify_stream(seed)
    ops = [verify_op(mods, setup, d, verify_reference(d)) for d in stream]
    return Workload("verify", ops, ops, min_passes=12,
                    inputs=stream)


BUILDERS = {"grid": build_grid, "ladder": build_ladder,
            "construct": build_construct, "verify": build_verify}
