import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qsl2.cli
import qsl2.rewrite
from qsl2.cli import main
from qsl2.errors import CompletionFailure, InconsistentDatum
from qsl2.subgroups import SubgroupDatum

TAFT_L5 = json.dumps({
    "parity": "odd", "ell": 5, "I_plus": [1], "I_minus": [],
    "gamma": {"kind": "catalog", "name": "G_a"}, "sigma": {"exponent": 1},
})

BAD_S0 = json.dumps({
    "parity": "even", "ell": 6, "I_plus": [1], "I_minus": [1],
    "N_generator": 2, "gamma": {"kind": "cyclic", "n": 2},
    "sigma": {"exponent": 1}, "delta_exponent": 1,
})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_taft_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, "--format", "json", "--output", str(out_path),
                  "construct", "--datum-json", TAFT_L5)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == "qsl2-report/1"
    assert doc["h_dimension"] == "Finite(25)"
    assert doc["status"] == "pass"
    # the G_a ambient is infinite, yet completes on the finite-order base
    assert doc["presentation"]["confluence"] == "complete"


# the twist datum of the README: p = 2 at ell = 2m = 6, accepted as r*m = 1 mod n
README_TWIST = json.dumps({
    "parity": "even", "ell": 6, "I_plus": [], "I_minus": [], "N_generator": 2,
    "gamma": {"kind": "cyclic", "n": 2}, "sigma": {"exponent": 1},
    "delta_exponent": 1,
})


def _construct_presentation(capsys, datum):
    code, out = run(capsys, "--format", "json", "construct",
                    "--datum-json", datum)
    assert code == 0
    return json.loads(out)["presentation"]


def _quotient_presentation(kind, ell):
    from qsl2.presentations import quotient_ideal, sl2_algebra, sl2_parity
    base = sl2_algebra(sl2_parity(ell), ell)
    return qsl2.rewrite.quotient_presentation(
        base.pres, quotient_ideal(kind, ell)).to_json()


@pytest.mark.parametrize("make_doc", [
    lambda capsys: _construct_presentation(capsys, README_TWIST),
    lambda capsys: _construct_presentation(capsys, TAFT_L5),
    lambda capsys: _quotient_presentation("widehat", 5),
    lambda capsys: _quotient_presentation("overline", 6),
], ids=["readme-twist", "taft-5", "widehat-5", "overline-6"])
def test_certificate_presentation_reloads_identically(capsys, make_doc):
    doc = make_doc(capsys)
    # finite-order documents carry composite coefficients such as (1 - q)*a*b
    assert any("(" in text for text in doc["defining"]
               + [rule["rhs"] for rule in doc["rules"]])
    assert qsl2.rewrite.presentation_from_json(doc).to_json() == doc


def test_construct_inconsistent_exit_2(capsys):
    code, out = run(capsys, "--format", "json", "construct",
                    "--datum-json", BAD_S0)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "inconsistent-datum"
    assert "N must be trivial" in doc["detail"]


def test_construct_malformed_json_usage_error(capsys):
    code = main(["construct", "--datum-json", "{not json"])
    assert code == 64


@pytest.mark.parametrize("datum", [
    '{"parity": "odd", "ell": 3, "sigma": 5}',
    '{"parity": "odd", "ell": 3, "gamma": {"kind": "cyclic", "n": 1e400}}',
    '{"parity": "odd", "ell": 1e400}',
    '{"parity": "odd", "ell": 3, "gamma": {"kind": "torus"}}',
], ids=["sigma-not-an-object", "n-1e400", "ell-1e400", "unknown-group-kind"])
def test_construct_malformed_datum_usage_error(capsys, datum):
    assert main(["construct", "--datum-json", datum]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed datum JSON: ")


def test_datum_path_that_cannot_be_read_is_usage_error(capsys, tmp_path):
    assert main(["equiv", "--datum1", str(tmp_path),
                 "--datum2", TRIVIAL_ODD]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read datum file: ")


def test_construct_datum_is_read_as_a_path(capsys, tmp_path):
    missing = tmp_path / "nonexistent.json"
    assert main(["construct", "--datum", str(missing)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read datum file: ")
    assert str(missing) in captured.err
    # inline JSON is not a path
    assert main(["construct", "--datum", TRIVIAL_ODD]) == 64
    assert capsys.readouterr().err.startswith("error: cannot read datum file: ")
    path = tmp_path / "datum.json"
    path.write_text(TRIVIAL_ODD, encoding="utf-8")
    code, from_file = run(capsys, "construct", "--datum", str(path))
    assert code == 0
    assert (0, from_file) == run(capsys, "construct", "--datum-json",
                                 TRIVIAL_ODD)


SMALL_DATUM = {"parity": "odd", "ell": 3, "I_plus": [1], "I_minus": [],
               "gamma": {"kind": "cyclic", "n": 3}, "sigma": {"exponent": 1}}
DATUM_PATHS = [(), ("parity",), ("ell",), ("I_plus",), ("I_minus",),
               ("N_generator",), ("delta_exponent",), ("gamma",),
               ("gamma", "kind"), ("gamma", "n"), ("gamma", "m"),
               ("gamma", "name"), ("sigma",), ("sigma", "exponent")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.just(1e400)
    | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DATUM_PATHS), JSON_VALUES),
                min_size=1, max_size=3))
def test_load_datum_returns_a_datum_or_a_usage_error(mutations):
    doc = json.loads(json.dumps(SMALL_DATUM))
    for path, value in mutations:
        if not path:
            doc = value
            continue
        node = doc
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = value
    try:
        datum = qsl2.cli._load_datum(json.dumps(doc))
    except qsl2.cli._UsageError as exc:
        assert str(exc).startswith("malformed datum JSON: ")
    else:
        assert isinstance(datum, SubgroupDatum)


def test_verify_axioms(capsys):
    code, out = run(capsys, "--format", "json", "verify", "axioms", "oq-sl2",
                    "--ell", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert any(r["check"] == "coassociativity" for r in doc["results"])


def test_verify_sequence(capsys):
    code, out = run(capsys, "--format", "json", "verify", "sequence", "cz2mn",
                    "--ell", "6", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    rows = {r["check"]: r for r in doc["results"]}
    assert rows["sequence-dimension"]["witness"] == "12 = 2 x 6"
    assert rows["coinvariant-product"]["witness"] == "12 = 2 x 6"


def test_catalog_list(capsys):
    code, out = run(capsys, "--format", "json", "catalog", "list")
    assert code == 0
    doc = json.loads(out)
    assert "taft" in doc["entries"]


def test_catalog_verify_entry(capsys):
    code, out = run(capsys, "--format", "json", "catalog", "verify", "cz2n",
                    "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"


@pytest.mark.parametrize("argv, message", [
    (["catalog", "verify", "taft"], "taft needs --ell"),
    (["catalog", "verify", "jdelta", "--ell", "6"], "jdelta needs --n, --p, --r"),
])
def test_catalog_missing_parameter_is_usage_error(capsys, argv, message):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_catalog_param_out_of_range_exit_2(capsys):
    code = main(["catalog", "verify", "taft", "--ell", "4"])
    assert code == 2


def test_dim_command(capsys):
    code, out = run(capsys, "--format", "json", "dim", "widehat", "--ell", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == "Finite(27)"
    assert doc["confluence"] == "complete"


@pytest.mark.parametrize("name, confluence", [
    ("classical-sl2", "complete"), ("oq-sl2", "bounded(10)")])
def test_dim_of_an_infinite_algebra_counts_to_the_probe(capsys, name,
                                                       confluence):
    code, out = run(capsys, "--format", "json", "dim", name)
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == "InfiniteAtLeast(506)"
    assert doc["counts"] == [(n + 1) ** 2 for n in range(11)]
    assert doc["confluence"] == confluence


@pytest.mark.parametrize("name", ["classical-sl2", "o-minus1-sl2"])
def test_dim_ell_on_an_algebra_with_fixed_root_is_usage_error(capsys, name):
    # ell is 1 and 2 there; an --ell nothing reads is refused, not echoed
    assert main(["dim", name, "--ell", "0"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --ell does not apply to {name}\n"


def test_verify_normal_n_past_the_base_completion_bound(capsys):
    # N at ell = 8 has elements of degree 8, so its adjoint actions reach
    # degree 10, past the bound 8 the base algebra was completed to
    code, out = run(capsys, "--format", "json", "verify", "normal", "N",
                    "--ell", "8")
    doc = json.loads(out)
    assert [r["status"] for r in doc["results"]] == ["pass"] * 64
    assert code == 0


def test_grouplikes_command(capsys):
    code, out = run(capsys, "--format", "json", "grouplikes", "taft",
                    "--ell", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["complete"] is True


def test_equiv_command(capsys, tmp_path):
    d1 = tmp_path / "d1.json"
    d2 = tmp_path / "d2.json"
    d1.write_text(json.dumps({"parity": "even", "ell": 6,
                              "gamma": {"kind": "cyclic", "n": 5},
                              "sigma": {"exponent": 1}}))
    d2.write_text(json.dumps({"parity": "even", "ell": 6,
                              "gamma": {"kind": "cyclic", "n": 5},
                              "sigma": {"exponent": 4}}))
    code, out = run(capsys, "--format", "json", "equiv",
                    "--datum1", str(d1), "--datum2", str(d2))
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["witness"] == 4


GRID_SHA256 = "db9ff73cfb5a081f630493e10da51366812502dcf48c692d5fbb10bd46e25f89"


def test_catalog_grid_all_green(capsys):
    code, out = run(capsys, "--format", "json", "catalog", "verify",
                    "--grid", "default")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["config"] == {}
    assert all(e["status"] == "pass" for e in doc["entries"])
    assert len(doc["entries"]) >= 25
    # byte-identical across refactors; a change that alters the grid
    # updates this digest and says why
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_SHA256


# the grid with each ambient-infinite witness masked: InfiniteAtLeast(n)
# counts normal words by length, which depends on the monomial order, while
# every status, finite dimension and other witness does not
GRID_ORDER_INVARIANT_SHA256 = (
    "edb7d1d8e6ecd10ca14816a0978e8b43975c170f2d8fd50aa2d052651e9d470f")


def test_catalog_grid_order_invariant(capsys):
    code, out = run(capsys, "--format", "json", "catalog", "verify",
                    "--grid", "default")
    assert code == 0
    doc = json.loads(out)
    masked = 0
    for entry in doc["entries"]:
        for row in entry["results"]:
            if row["check"] == "ambient-infinite":
                assert row["witness"].startswith("InfiniteAtLeast(")
                row["witness"] = "InfiniteAtLeast(*)"
                masked += 1
    assert masked == 5
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GRID_ORDER_INVARIANT_SHA256


# the same pin for reports outside the grid, each at its defaults
@pytest.mark.parametrize("argv, digest", [
    (["grouplikes", "taft"],
     "26f1f11cfd52754509b65f9e301f2bd80c4369bc62b99e8a8a4cc45c3e65ca6a"),
    (["grouplikes", "cz2n"],
     "cde054a68b82f7d0c2510778a54159107e8b27b506eb3d770a34bd31ee9b9652"),
    (["grouplikes", "case-I-full"],
     "b4e68a0040aa0501de471f13f299d25d4b60972c4407ec929a873f694f9ec97d"),
    (["grouplikes", "case-I-full", "--parity", "even"],
     "ce11dc2ccf4382b2685b951ec47ce2dc72a2935e87d35e17480d9aeeebe2ac0d"),
    (["grouplikes", "case-I-full", "--parity", "minus_one"],
     "4857835cc5f14de4c957a049a91e6f04a8b0ccc1ea03342e070802d4cd0e364c"),
    (["verify", "morphism", "dihedral", "--m", "5"],
     "f8546c37413304c39ab33754260f9a8f4b21e3ed7eed7c4d54f39719e96fcb8c"),
    (["construct", "--datum-json", json.dumps({
        "parity": "odd", "ell": 5, "gamma": {"kind": "cyclic", "n": 3},
        "sigma": {"exponent": 2}})],
     "73ca9071b8702e08f9ac96221b04439eabf728a040af7c55c4e4dee0e918bccd"),
    (["construct", "--datum-json", json.dumps({
        "parity": "even", "ell": 6, "gamma": {"kind": "cyclic", "n": 5},
        "sigma": {"exponent": 2}})],
     "693cde1a332719765eb2527fb3fa7b68d77c0ef5678c20de5183513219f20e26"),
    (["verify", "morphism", "N", "--ell", "8"],
     "30bfd5be148d51ddd3f60f168bade9964b69c909721cdbc67e3a0ffbb7a4d772"),
    (["verify", "central", "L", "--ell", "7"],
     "ed05271bc6c762044b3c0a235c8ab6644a452031c431ef599885b54e85041d53"),
    (["verify", "hopf-ideal", "widehat", "--ell", "3"],
     "b98e50642a90b0757213e7eae947dbc7722eece96701eba21e516d7d5c2de637"),
    (["verify", "hopf-ideal", "overline", "--ell", "6"],
     "ff5bb395209ee8d2428896ba82ec40b5c84278a0fa4e4481401a28c0b3047e10"),
], ids=["taft", "cz2n", "case-I-full", "case-I-full-even",
        "case-I-full-minus_one", "dihedral-m5", "construct-odd-cyclic",
        "construct-even-cyclic", "morphism-N-8", "central-L-7",
        "hopf-ideal-widehat-3", "hopf-ideal-overline-6"])
def test_reports_outside_the_grid_byte_identical(capsys, argv, digest):
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reports_byte_stable(capsys):
    _, out1 = run(capsys, "--format", "json", "verify", "central", "L",
                  "--ell", "3")
    _, out2 = run(capsys, "--format", "json", "verify", "central", "L",
                  "--ell", "3")
    assert out1 == out2


TRIVIAL_ODD = json.dumps({"parity": "odd", "ell": 3,
                          "gamma": {"kind": "trivial"}})


@pytest.mark.parametrize("argv", [
    ["--max-degree", "8", "catalog", "list"],
    ["catalog", "list", "--max-degree", "8"],
    ["--probe-bound", "40", "catalog", "verify", "--grid", "default"],
    ["catalog", "verify", "--grid", "default", "--probe-bound", "40"],
    ["grouplikes", "taft", "--probe-bound", "40"],
    ["equiv", "--datum1", TRIVIAL_ODD, "--datum2", TRIVIAL_ODD,
     "--probe-bound", "40"],
])
def test_options_nothing_reads_are_usage_errors(capsys, argv):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qsl2")


@pytest.mark.parametrize("argv, keys", [
    (["catalog", "list"], set()),
    (["catalog", "verify", "cz2n", "--n", "2"], {"n"}),
    (["dim", "widehat", "--ell", "3"], {"name", "ell"}),
    (["verify", "axioms", "oq-sl2"], {"target", "subject", "ell"}),
    (["verify", "central", "L", "--ell", "3"], {"target", "subject", "ell"}),
    (["verify", "normal", "B"], {"target", "subject"}),
    (["verify", "sequence", "cz2n"], {"target", "subject", "n"}),
    (["grouplikes", "taft", "--ell", "3"], {"name", "ell"}),
    (["grouplikes", "cz2n"], {"name", "n"}),
    (["construct", "--datum-json", TRIVIAL_ODD], {"datum", "probe_bound"}),
    (["equiv", "--datum1", TRIVIAL_ODD, "--datum2", TRIVIAL_ODD],
     {"datum1", "datum2"}),
    (["dim", "classical-sl2"], {"name", "probe_bound"}),
])
def test_config_lists_only_settings_read(capsys, monkeypatch, argv, keys):
    monkeypatch.setenv("QSL2_MAX_DEGREE", "11")
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert set(json.loads(out)["config"]) == keys


@pytest.mark.parametrize("argv, option, subject", [
    (["verify", "normal", "B", "--ell", "9", "--n", "4"], "ell", "B"),
    (["verify", "axioms", "o-minus1-sl2", "--ell", "7"], "ell", "o-minus1-sl2"),
    (["verify", "axioms", "oq-sl2", "--probe-bound", "12"], "probe-bound",
     "oq-sl2"),
    (["verify", "morphism", "dihedral", "--ell", "4"], "ell", "dihedral"),
    (["verify", "sequence", "cz2n", "--ell", "4"], "ell", "cz2n"),
    (["catalog", "verify", "cz2n", "--n", "2", "--ell", "5", "--parity", "odd"],
     "ell", "cz2n"),
    (["catalog", "verify", "normal-B", "--ell", "4"], "ell", "normal-B"),
    (["catalog", "verify", "--grid", "default", "--m", "3"], "m", "the grid"),
    (["grouplikes", "taft", "--n", "4", "--parity", "even"], "n", "taft"),
    (["grouplikes", "cz2n", "--ell", "3"], "ell", "cz2n"),
    (["verify", "sequence", "cz2n", "--probe-bound", "12"], "probe-bound",
     "cz2n"),
    (["dim", "widehat", "--probe-bound", "12"], "probe-bound", "widehat"),
])
def test_options_a_subject_does_not_read_are_usage_errors(capsys, argv,
                                                          option, subject):
    # refused like dim refuses them, not echoed into the config; no verify
    # subject reads a probe bound, so verify does not declare the option
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    if argv[0] == "verify" and option == "probe-bound":
        assert "unrecognized arguments: --probe-bound" in captured.err
    else:
        assert captured.err == f"error: --{option} does not apply to {subject}\n"


def test_closed_stdout_is_not_an_internal_error():
    # the reader has gone before the report is written, as when piping
    # into head: the report's own exit code, and nothing on stderr
    src = os.path.dirname(os.path.dirname(qsl2.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from qsl2.cli import main; "
         "sys.exit(main())", "verify", "normal", "B"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["construct", "--datum-json", TAFT_L5],
])
@pytest.mark.parametrize("flag, bound", [([], 10), (["--probe-bound", "12"], 12)])
def test_probe_bound_reaches_construct_quotient(capsys, monkeypatch, argv,
                                                flag, bound):
    seen = []

    def recording(datum, probe_bound=None):
        seen.append(probe_bound)
        raise InconsistentDatum("recorded")

    monkeypatch.setattr(qsl2.cli, "construct_quotient", recording)
    code, out = run(capsys, "--format", "json", *argv, *flag)
    assert code == 2
    assert seen == [bound]
    doc = json.loads(out)
    assert doc["status"] == "inconsistent-datum"
    assert doc["config"]["probe_bound"] == bound


@pytest.mark.parametrize("command, says", [
    ("construct", "--probe-bound PROBE_BOUND length to which the basis words "
                  "of an infinite ambient are counted; every quotient is "
                  "completed to the end (default 10)"),
    ("dim", "--probe-bound PROBE_BOUND completion bound of oq-sl2 and "
            "o-minus1-sl2, and the length to which basis words are counted; "
            "widehat and overline do not read it (default 10)"),
])
def test_probe_bound_help_says_what_each_command_reads(capsys, command, says):
    # construct completes every quotient to the end: on construct the
    # option is no completion bound
    code, out = run(capsys, command, "--help")
    assert code == 0
    out = " ".join(out.split())
    assert says in out
    assert ("completion bound" in out) == (command == "dim")


def test_completion_failure_exit_2_with_context(capsys, monkeypatch):
    def capped(*args, **kwargs):
        raise CompletionFailure(
            "rule cap 3 reached at completion bound 8", bound=8, rules=3,
            agenda=5, last_overlap=((0, 0, 1), (0, 0), (0, 1)))

    monkeypatch.setattr(qsl2.cli, "construct_quotient", capped)
    code = main(["construct", "--datum-json", TAFT_L5])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "internal error" not in captured.err
    assert "rule cap 3 reached at completion bound 8" in captured.err
    for item in ("bound=8", "rules=3", "agenda=5",
                 "last_overlap=((0, 0, 1), (0, 0), (0, 1))"):
        assert item in captured.err


class NotInterreduced(qsl2.rewrite._Completer):
    """Completes as usual, then adds a rule whose lhs contains another lhs."""

    def run(self, relations):
        super().run(relations)
        self.doubled = min(self.rules, key=len) * 2
        self.rules[self.doubled] = {}


def test_interreduction_failure_exit_2_with_context(capsys, monkeypatch):
    made = []

    def completer(*args):
        made.append(NotInterreduced(*args))
        return made[-1]

    monkeypatch.setattr(qsl2.rewrite, "_Completer", completer)
    code = main(["dim", "widehat", "--ell", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "internal error" not in captured.err
    assert "interreduction invariant broken at completion bound" in captured.err
    comp = made[-1]
    for item in (f"bound={comp.bound}", f"rules={len(comp.rules)}",
                 f"occurs_in={comp.doubled!r}", "lhs=("):
        assert item in captured.err


@pytest.mark.parametrize("argv, message", [
    (["dim", "widehat", "--ell", "0"], "needs ell >= 3"),
    (["dim", "widehat", "--ell", "4"], "widehat needs odd ell"),
    (["dim", "oq-sl2", "--ell", "0"], "needs ell >= 3"),
    (["verify", "axioms", "oq-sl2", "--ell", "0"], "needs ell >= 3"),
    (["verify", "normal", "N", "--ell", "3"], "N needs even ell"),
    (["verify", "morphism", "dihedral", "--m", "0"], "needs m >= 1, got 0"),
    (["grouplikes", "taft", "--ell", "0"], "needs odd ell >= 3, got 0"),
    (["grouplikes", "cz2n", "--n", "0"], "needs n >= 1"),
    (["dim", "oq-sl2", "--probe-bound", "-1"], "needs a length >= 0, got -1"),
    (["verify", "morphism", "N", "--ell", "5"], "N needs even ell"),
])
def test_parameter_out_of_range_exit_2(capsys, argv, message):
    # an explicit 0 is range-checked, not replaced by the default
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize("target, subject, subjects", [
    ("axioms", "banana", "oq-sl2, o-minus1-sl2"),
    ("axioms", "widehat", "oq-sl2, o-minus1-sl2"),
    ("hopf-ideal", "foo", "widehat, overline"),
    ("hopf-ideal", "oq-sl2", "widehat, overline"),
    ("central", "N", "L"),
])
def test_verify_refuses_a_subject_of_another_target(capsys, target, subject,
                                                    subjects):
    assert main(["verify", target, subject]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {target} subjects: {subjects}\n"


def test_usage_error_exit_64():
    assert main(["frobnicate"]) == 64
    assert main([]) == 64


def test_common_flags_accepted_after_subcommand(capsys):
    # both positions work: qsl2 --format json dim ... and qsl2 dim ... --format json
    code, out1 = run(capsys, "--format", "json", "dim", "widehat", "--ell", "3")
    assert code == 0
    code, out2 = run(capsys, "dim", "widehat", "--ell", "3", "--format", "json")
    assert code == 0
    assert out1 == out2
