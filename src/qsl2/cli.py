"""Batch command-line front end: construct, verify, inspect, report.

JSON is the single source of truth; the text format is rendered from the
JSON document.  --format and --output go before or after the subcommand;
--probe-bound (default 10) belongs to construct, verify and dim, the
commands that read it, and bounds counting and completion only where
completion cannot finish.  Each report's config lists exactly the settings
that produced it.  An option left out takes its default; an explicit value,
0 included, is range-checked.  Exit codes: 0 all green, 1 internal error,
2 datum, parameter or check failure (a completion that hits its cap
included), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import entry_names, verify_entry, verify_grid
from .errors import (CompletionFailure, InconsistentDatum, ParamOutOfRange,
                     ParityMismatch, QSL2Error, UnknownEntry)
from .hopf import (FiniteModel, all_ok, check_axioms, check_central,
                   check_normal, check_structure_well_defined, grouplikes,
                   is_hopf_ideal)
from .ncalg import render_poly
from .presentations import (classical_sl2, distinguished_subalgebra,
                            o_minus1_sl2, oq_sl2, phi_even_images,
                            phi_minus1_images, psl2_model, quotient_ideal,
                            sl2_algebra, verify_psl2_embedding)
from .rewrite import DEFAULT_PROBE_BOUND, dimension, quotient_presentation
from .subgroups import (GroupSpec, SubgroupDatum, construct_quotient,
                        datum_equiv, exact_sequence_shadow,
                        verify_dihedral_quotient)

SCHEMA = "qsl2-report/1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64

VERIFY_SUBJECTS = {
    "axioms": ("oq-sl2", "o-minus1-sl2"),
    "central": ("L",),
    "normal": ("B", "N"),
    "hopf-ideal": ("widehat", "overline"),
    "sequence": ("cz2n", "cz2mn"),
    "morphism": ("dihedral", "B", "N"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(parser, *, suppress=False):
    # the same options are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber values already
    # parsed at the top level
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--format", choices=("json", "text"),
                        **(kw or {"default": "text"}))
    parser.add_argument("--output", help="write the JSON report here",
                        **(kw or {"default": None}))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsl2", description=__doc__)
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_sub(name, run, *, probe_bound=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        _add_common(p, suppress=True)
        if probe_bound:
            p.add_argument("--probe-bound", type=int,
                           default=DEFAULT_PROBE_BOUND,
                           help="basis probe length and completion bound "
                                "where completion cannot finish (default 10)")
        return p

    p = add_sub("construct", _cmd_construct, probe_bound=True,
                help="run the quotient pipeline on a datum")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--datum", help="path to a datum JSON file")
    g.add_argument("--datum-json", help="inline datum JSON")

    p = add_sub("verify", _cmd_verify, probe_bound=True,
                help="run a named verification")
    p.add_argument("target", choices=tuple(VERIFY_SUBJECTS))
    p.add_argument("subject", help="e.g. oq-sl2, L, B, N, widehat, cz2mn, dihedral")
    p.add_argument("--ell", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)

    p = add_sub("catalog", _cmd_catalog, help="list or verify catalog entries")
    p.add_argument("action", choices=("list", "verify"))
    p.add_argument("entry", nargs="?", help="entry name (omit with --grid)")
    p.add_argument("--grid", choices=("default",))
    p.add_argument("--ell", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--parity", choices=("odd", "even", "minus_one"))

    p = add_sub("dim", _cmd_dim, probe_bound=True,
                help="dimension of a named presentation")
    p.add_argument("name", choices=("oq-sl2", "o-minus1-sl2", "classical-sl2",
                                    "widehat", "overline"))
    p.add_argument("--ell", type=int)

    p = add_sub("grouplikes", _cmd_grouplikes,
                help="grouplikes of a finite catalog algebra")
    p.add_argument("name", choices=("taft", "cz2n", "case-I-full"))
    p.add_argument("--ell", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--parity", choices=("odd", "even", "minus_one"))

    p = add_sub("equiv", _cmd_equiv, help="decide equivalence of two data")
    p.add_argument("--datum1", required=True, help="path or inline JSON")
    p.add_argument("--datum2", required=True, help="path or inline JSON")
    return parser


def _load_datum(text_or_path: str) -> SubgroupDatum:
    text = text_or_path
    if os.path.exists(text_or_path):
        with open(text_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
        return SubgroupDatum.from_json(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"malformed datum JSON: {exc}") from exc


class _UsageError(Exception):
    pass


def _report(command: str, config: dict, results: list, status: str,
            **extra) -> dict:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "status": status,
        "results": [r.to_json() for r in results],
    }
    doc.update(extra)
    return doc


def _status(results: list) -> str:
    return "pass" if all_ok(results) else "fail"


def _render_text(doc: dict) -> str:
    lines = [f"# {doc['command']}  [{doc['status']}]  schema={doc['schema']}"]
    cfg = ", ".join(f"{k}={v}" for k, v in sorted(doc["config"].items()))
    lines.append(f"config: {cfg}")
    for key, value in doc.items():
        if key in ("schema", "command", "config", "status", "results"):
            continue
        lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    for row in doc["results"]:
        mark = "PASS" if row.get("status") == "pass" else "FAIL"
        witness = f"  ({row['witness']})" if row.get("witness") else ""
        lines.append(f"{mark} {row['check']} :: {row['subject']}{witness}")
    return "\n".join(lines)


def _emit(doc: dict, args) -> int:
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if args.format == "json":
        print(payload)
    else:
        print(_render_text(doc))
    return EXIT_OK if doc["status"] == "pass" else EXIT_CHECK_FAILED


def _cmd_construct(args) -> dict:
    datum = _load_datum(args.datum or args.datum_json)
    config = {"probe_bound": args.probe_bound, "datum": datum.to_json()}
    try:
        cons = construct_quotient(datum, probe_bound=args.probe_bound)
    except InconsistentDatum as exc:
        return _report("construct", config, [], "inconsistent-datum",
                       detail=str(exc))
    results = list(cons.certificates)
    if cons.dim.finite:
        results.extend(exact_sequence_shadow(cons))
    return _report("construct", config, results, _status(results),
                   dimension=repr(cons.dim), h_dimension=repr(cons.h_dim),
                   transcript=cons.transcript,
                   presentation=cons.algebra.pres.to_json())


def _given(value, default):
    # an explicit 0 is a value, to be range-checked where it is used
    return default if value is None else value


def _verify_dispatch(args) -> list:
    target, subject = args.target, args.subject
    if subject not in VERIFY_SUBJECTS[target]:
        raise _UsageError(f"{target} subjects: "
                          f"{', '.join(VERIFY_SUBJECTS[target])}")
    if target == "axioms":
        ell = _given(args.ell, 3)
        alg = (sl2_algebra("minus_one", 2) if subject == "o-minus1-sl2"
               else oq_sl2(ell))
        return (check_structure_well_defined(alg)
                + check_axioms(alg, sample_deg=3))
    if target == "central":
        ell = _given(args.ell, 3)
        alg = oq_sl2(ell, complete_to=2 * ell + 2)
        return check_central(alg, distinguished_subalgebra("L_odd", ell))
    if target == "normal":
        if subject == "B":
            alg = sl2_algebra("minus_one", 2)
            return check_normal(alg, distinguished_subalgebra("B_minus1", 2))
        ell = _given(args.ell, 4)
        alg = oq_sl2(ell)
        return check_normal(alg, distinguished_subalgebra("N_even", ell))
    if target == "hopf-ideal":
        ell = _given(args.ell, 3 if subject == "widehat" else 4)
        alg = oq_sl2(ell)
        ideal = quotient_ideal(subject, ell)
        quot = quotient_presentation(alg.pres, ideal, label=f"{alg.label}/J")
        return is_hopf_ideal(alg, ideal, quot)
    if target == "sequence":
        if subject == "cz2n":
            n = _given(args.n, 2)
            datum = SubgroupDatum(parity="minus_one", ell=2, I_plus=(1,),
                                  I_minus=(1,), gamma=GroupSpec("cyclic", n=n))
        else:
            datum = SubgroupDatum(parity="even", ell=_given(args.ell, 4),
                                  gamma=GroupSpec("cyclic",
                                                  n=_given(args.n, 2)))
        cons = construct_quotient(datum, probe_bound=args.probe_bound)
        return list(cons.certificates) + exact_sequence_shadow(cons)
    # morphism
    if subject == "dihedral":
        return verify_dihedral_quotient(_given(args.m, 3))
    if subject == "B":
        alg = sl2_algebra("minus_one", 2)
        images = phi_minus1_images(alg)
    else:
        alg = oq_sl2(_given(args.ell, 4))
        images = phi_even_images(alg)
    return verify_psl2_embedding(psl2_model(8), alg, images, 2)


def _cmd_verify(args) -> dict:
    config = {"probe_bound": args.probe_bound, "target": args.target,
              "subject": args.subject}
    for key in ("ell", "n", "m"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    try:
        results = _verify_dispatch(args)
    except InconsistentDatum as exc:
        return _report("verify", config, [], "inconsistent-datum",
                       detail=str(exc))
    return _report("verify", config, results, _status(results))


def _cmd_catalog(args) -> dict:
    if args.action == "list":
        return _report("catalog list", {}, [], "pass", entries=entry_names())
    if args.grid:
        entries = verify_grid()
        ok = all(e.ok for e in entries)
        return _report("catalog verify --grid default", {}, [],
                       "pass" if ok else "fail",
                       entries=[e.to_json() for e in entries])
    if not args.entry:
        raise _UsageError("catalog verify needs an entry name or --grid")
    params = {k: getattr(args, k) for k in ("ell", "n", "m", "p", "r", "parity")
              if getattr(args, k) is not None}
    entry = verify_entry(args.entry, **params)
    return _report(f"catalog verify {args.entry}", params, entry.results,
                   "pass" if entry.ok else "fail", expected=entry.expected)


def _cmd_dim(args) -> dict:
    name = args.name
    config = {"name": name, "probe_bound": args.probe_bound}
    if name in ("classical-sl2", "o-minus1-sl2"):
        if args.ell is not None:
            raise _UsageError(f"--ell does not apply to {name}")
        pres = (classical_sl2() if name == "classical-sl2" else
                o_minus1_sl2(complete_to=args.probe_bound)).pres
    else:
        ell = config["ell"] = _given(args.ell, 4 if name == "overline" else 3)
        if name == "oq-sl2":
            pres = oq_sl2(ell, complete_to=args.probe_bound).pres
        else:
            pres = quotient_presentation(oq_sl2(ell).pres,
                                         quotient_ideal(name, ell),
                                         label=f"{name}-{ell}")
    res = dimension(pres, args.probe_bound)
    return _report("dim", config, [], "pass", dimension=repr(res),
                   counts=res.counts, confluence=pres.confluence)


def _cmd_grouplikes(args) -> dict:
    name = args.name
    config = {"name": name}
    if name == "taft":
        ell = _given(args.ell, 3)
        config["ell"] = ell
        datum = SubgroupDatum(parity="odd", ell=ell, I_plus=(1,), I_minus=(),
                              gamma=GroupSpec("catalog", name="G_a"))
        alg = construct_quotient(datum).h
    elif name == "cz2n":
        n = _given(args.n, 2)
        config["n"] = n
        datum = SubgroupDatum(parity="minus_one", ell=2, I_plus=(1,),
                              I_minus=(1,), gamma=GroupSpec("cyclic", n=n))
        alg = construct_quotient(datum).algebra
    else:
        parity = args.parity or "odd"
        ell = _given(args.ell, {"odd": 3, "even": 4, "minus_one": 2}[parity])
        config.update({"parity": parity, "ell": ell})
        datum = SubgroupDatum(parity=parity, ell=ell,
                              gamma=GroupSpec("catalog", name="torus"))
        alg = construct_quotient(datum).h
    rep = grouplikes(FiniteModel(alg))
    return _report("grouplikes", config, [], "pass", count=rep.count(),
                   complete=rep.complete, method=rep.method,
                   elements=sorted(render_poly(g) for g in rep.elements))


def _cmd_equiv(args) -> dict:
    d1 = _load_datum(args.datum1)
    d2 = _load_datum(args.datum2)
    res = datum_equiv(d1, d2)
    return _report("equiv", {"datum1": d1.to_json(), "datum2": d2.to_json()},
                   [], "pass", equivalent=res.equivalent, witness=res.witness,
                   reason=res.reason)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if getattr(args, "probe_bound", 0) < 0:
            raise ParamOutOfRange(
                f"--probe-bound needs a length >= 0, got {args.probe_bound}")
        return _emit(args.run(args), args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParamOutOfRange, ParityMismatch, InconsistentDatum,
            UnknownEntry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except CompletionFailure as exc:
        context = ", ".join(f"{k}={v!r}" for k, v in sorted(exc.context.items()))
        print(f"error: completion failed: {exc}"
              + (f" [{context}]" if context else ""), file=sys.stderr)
        return EXIT_CHECK_FAILED
    except QSL2Error as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
