"""Batch command-line front end: construct, verify, inspect, report.

JSON is the single source of truth; the text format is rendered from the
JSON document.  --format and --output go before or after the subcommand;
--probe-bound (default 10) belongs to construct and dim.  construct
completes every quotient to the end and reads it only as the length to
which an infinite ambient's basis words are counted; dim oq-sl2 and
o-minus1-sl2 also complete to it, dim classical-sl2 counts to it, and dim
widehat and overline, whose answers are finite, do not read it.  An
option the chosen subject does not read is a usage error, and each
report's config lists exactly the settings that produced it.  An option
left out takes its default; an explicit value, 0 included, is
range-checked.  Exit codes: 0 all green, 1 internal error,
2 datum, parameter or check failure (a completion that hits its cap
included), 64 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .catalog import (cz2mn_datum, cz2n_datum, entry_names, entry_parameters,
                      taft_datum, torus_datum, verify_entry, verify_grid)
from .errors import (CompletionFailure, InconsistentDatum, ParamOutOfRange,
                     QSL2Error, UnknownEntry)
from .hopf import (FiniteModel, all_ok, check_axioms, check_central,
                   check_normal, check_structure_well_defined, grouplikes,
                   hopf_quotient)
from .ncalg import render_poly
from .presentations import (classical_sl2, distinguished_subalgebra,
                            o_minus1_sl2, oq_sl2, phi_even_images, phi_images,
                            psl2_model, quotient_ideal, require_generic,
                            sl2_algebra, sl2_parity, verify_psl2_embedding)
from .rewrite import DEFAULT_PROBE_BOUND, dimension, quotient_presentation
from .subgroups import (SubgroupDatum, construct_quotient, datum_equiv,
                        exact_sequence_shadow, verify_dihedral_quotient)

SCHEMA = "qsl2-report/1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64

# the settings each verify subject reads, with their defaults
VERIFY_SUBJECTS = {
    "axioms": {"oq-sl2": {"ell": 3}, "o-minus1-sl2": {}},
    "central": {"L": {"ell": 3}},
    "normal": {"B": {}, "N": {"ell": 4}},
    "hopf-ideal": {"widehat": {"ell": 3}, "overline": {"ell": 4}},
    "sequence": {"cz2n": {"n": 2}, "cz2mn": {"ell": 4, "n": 2}},
    "morphism": {"dihedral": {"m": 3}, "B": {}, "N": {"ell": 4}},
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

    def add_sub(name, run, *, probe_help=None, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        _add_common(p, suppress=True)
        if probe_help:
            p.add_argument("--probe-bound", type=int,
                           help=f"{probe_help} (default 10)")
        return p

    p = add_sub("construct", _cmd_construct,
                probe_help="length to which the basis words of an infinite "
                            "ambient are counted; every quotient is completed "
                            "to the end",
                help="run the quotient pipeline on a datum")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--datum", help="path to a datum JSON file")
    g.add_argument("--datum-json", help="inline datum JSON")

    p = add_sub("verify", _cmd_verify, help="run a named verification")
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

    p = add_sub("dim", _cmd_dim,
                probe_help="completion bound of oq-sl2 and o-minus1-sl2, "
                            "and the length to which basis words are counted; "
                            "widehat and overline do not read it",
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


def _read_datum_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read datum file: {exc}") from exc


def _load_datum(text_or_path: str) -> SubgroupDatum:
    """A datum from inline JSON, or from the file of that path if one
    exists."""
    text = text_or_path
    if os.path.exists(text_or_path):
        text = _read_datum_file(text_or_path)
    return _parse_datum(text)


def _parse_datum(text: str) -> SubgroupDatum:
    try:
        return SubgroupDatum.from_json(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError, QSL2Error) as exc:
        # 1e400 parses as inf, which int() refuses with OverflowError
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
    try:
        print(payload if args.format == "json" else _render_text(doc))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is left, and the flush at exit, to
        # the null device so that neither fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if doc["status"] == "pass" else EXIT_CHECK_FAILED


def _cmd_construct(args) -> dict:
    datum = _parse_datum(_read_datum_file(args.datum)
                         if args.datum is not None else args.datum_json)
    config = _settings(args, "construct", {"probe_bound": DEFAULT_PROBE_BOUND})
    config["datum"] = datum.to_json()
    try:
        cons = construct_quotient(datum, probe_bound=config["probe_bound"])
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


def _settings(args, subject, reads: dict, options=()) -> dict:
    """The settings subject reads, each given or else at its default (left
    out when it has none); any other of options that was given is a usage
    error."""
    for key in options:
        if key not in reads and getattr(args, key) is not None:
            raise _UsageError(f"--{key.replace('_', '-')} does not apply "
                              f"to {subject}")
    config = {key: _given(getattr(args, key), default)
              for key, default in reads.items()}
    config = {key: value for key, value in config.items() if value is not None}
    if config.get("probe_bound", 0) < 0:
        raise ParamOutOfRange(f"--probe-bound needs a length >= 0, "
                              f"got {config['probe_bound']}")
    return config


def _verify_dispatch(target, subject, cfg) -> list:
    # each base is in the regime ell fixes, and a subject's own constructor
    # refuses a wrong parity; oq-sl2 asks for a generic one, refusing ell = 2
    ell = cfg.get("ell")
    if target == "axioms":
        if subject == "o-minus1-sl2":
            alg = sl2_algebra("minus_one", 2)
        else:
            require_generic(ell)
            alg = sl2_algebra(sl2_parity(ell), ell)
        return (check_structure_well_defined(alg)
                + check_axioms(alg, sample_deg=3))
    if target == "central":
        alg = sl2_algebra(sl2_parity(ell), ell)
        return check_central(alg, distinguished_subalgebra("L_odd", ell))
    if target == "normal":
        if subject == "B":
            alg = sl2_algebra("minus_one", 2)
            return check_normal(alg, distinguished_subalgebra("B_minus1", 2))
        alg = sl2_algebra(sl2_parity(ell), ell)
        return check_normal(alg, distinguished_subalgebra("N_even", ell))
    if target == "hopf-ideal":
        alg = sl2_algebra(sl2_parity(ell), ell)
        return hopf_quotient(alg, quotient_ideal(subject, ell),
                             label=f"{alg.label}/J")[1]
    if target == "sequence":
        # both quotients are finite, so no probe bound can change them
        cons = construct_quotient(cz2n_datum(cfg["n"]) if subject == "cz2n"
                                  else cz2mn_datum(ell, cfg["n"]))
        return list(cons.certificates) + exact_sequence_shadow(cons)
    # morphism
    if subject == "dihedral":
        return verify_dihedral_quotient(cfg["m"])
    if subject == "B":
        alg = sl2_algebra("minus_one", 2)
        images = phi_images(alg)
    else:
        alg = sl2_algebra(sl2_parity(ell), ell)
        images = phi_even_images(alg)
    return verify_psl2_embedding(psl2_model(8), alg, images, 2)


def _cmd_verify(args) -> dict:
    target, subject = args.target, args.subject
    if subject not in VERIFY_SUBJECTS[target]:
        raise _UsageError(f"{target} subjects: "
                          f"{', '.join(VERIFY_SUBJECTS[target])}")
    cfg = _settings(args, subject, VERIFY_SUBJECTS[target][subject],
                    ("ell", "n", "m"))
    config = {"target": target, "subject": subject, **cfg}
    try:
        results = _verify_dispatch(target, subject, cfg)
    except InconsistentDatum as exc:
        return _report("verify", config, [], "inconsistent-datum",
                       detail=str(exc))
    return _report("verify", config, results, _status(results))


CATALOG_OPTIONS = ("ell", "n", "m", "p", "r", "parity")


def _cmd_catalog(args) -> dict:
    if args.action == "list":
        _settings(args, "catalog list", {}, CATALOG_OPTIONS)
        return _report("catalog list", {}, [], "pass", entries=entry_names())
    if args.grid:
        _settings(args, "the grid", {}, CATALOG_OPTIONS)
        entries = verify_grid()
        ok = all(e.ok for e in entries)
        return _report("catalog verify --grid default", {}, [],
                       "pass" if ok else "fail",
                       entries=[e.to_json() for e in entries])
    if not args.entry:
        raise _UsageError("catalog verify needs an entry name or --grid")
    keys = entry_parameters(args.entry)
    params = _settings(args, args.entry, dict.fromkeys(keys), CATALOG_OPTIONS)
    missing = [f"--{key}" for key in keys if key not in params]
    if missing:
        raise _UsageError(f"{args.entry} needs {', '.join(missing)}")
    entry = verify_entry(args.entry, **params)
    return _report(f"catalog verify {args.entry}", params, entry.results,
                   "pass" if entry.ok else "fail", expected=entry.expected)


def _cmd_dim(args) -> dict:
    name = args.name
    # widehat and overline are finite: no probe bound changes their answer
    reads = ({} if name in ("widehat", "overline")
             else {"probe_bound": DEFAULT_PROBE_BOUND})
    if name not in ("classical-sl2", "o-minus1-sl2"):
        reads["ell"] = 4 if name == "overline" else 3
    config = {"name": name,
              **_settings(args, name, reads, ("ell", "probe_bound"))}
    bound = config.get("probe_bound", DEFAULT_PROBE_BOUND)
    ell = config.get("ell")
    if name == "classical-sl2":
        pres = classical_sl2().pres
    elif name == "o-minus1-sl2":
        pres = o_minus1_sl2(complete_to=bound).pres
    elif name == "oq-sl2":
        pres = oq_sl2(ell, complete_to=bound).pres
    else:
        base = sl2_algebra(sl2_parity(ell), ell)
        pres = quotient_presentation(base.pres, quotient_ideal(name, ell),
                                     label=f"{name}-{ell}")
    res = dimension(pres, bound)
    return _report("dim", config, [], "pass", dimension=repr(res),
                   counts=res.counts, confluence=pres.confluence)


GROUPLIKES_SETTINGS = {"taft": {"ell": 3}, "cz2n": {"n": 2},
                       "case-I-full": {"parity": "odd", "ell": None}}


def _cmd_grouplikes(args) -> dict:
    name = args.name
    config = {"name": name, **_settings(args, name, GROUPLIKES_SETTINGS[name],
                                        ("ell", "n", "parity"))}
    if name == "taft":
        alg = construct_quotient(taft_datum(config["ell"])).h
    elif name == "cz2n":
        alg = construct_quotient(cz2n_datum(config["n"])).algebra
    else:
        parity = config["parity"]
        # the default ell is the first ell >= 2 in the parity's regime, a
        # key of REGIMES (argparse admits no other)
        ell = config.setdefault("ell", next(
            ell for ell in itertools.count(2) if sl2_parity(ell) == parity))
        alg = construct_quotient(torus_datum(parity, ell)).h
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
        return _emit(args.run(args), args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParamOutOfRange, InconsistentDatum, UnknownEntry) as exc:
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
