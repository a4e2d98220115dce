import importlib

import pytest

from qsl2.catalog import entry_names, verify_entry
from qsl2.errors import ParamOutOfRange, UnknownEntry


def test_entry_names():
    names = entry_names()
    for expected in ("widehat-dual", "overline-dual", "taft", "cz2n", "cz2mn",
                     "dihedral", "case-I-full", "central-L", "normal-B",
                     "normal-N"):
        assert expected in names


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        verify_entry("nope")


def test_param_out_of_range():
    with pytest.raises(ParamOutOfRange):
        verify_entry("taft", ell=4)
    with pytest.raises(ParamOutOfRange):
        verify_entry("widehat-dual", ell=6)
    with pytest.raises(ParamOutOfRange):
        verify_entry("overline-dual", ell=5)
    with pytest.raises(ParamOutOfRange):
        verify_entry("taft")


def test_taft_entry():
    entry = verify_entry("taft", ell=3)
    assert entry.ok
    assert entry.expected["dimension"] == 9
    assert entry.expected["grouplikes"] == 3


def test_overline_entry():
    entry = verify_entry("overline-dual", ell=4)
    assert entry.ok
    assert entry.expected["dimension"] == 16


def test_cz2n_entry():
    entry = verify_entry("cz2n", n=2)
    assert entry.ok
    assert entry.expected["dimension"] == 4


def test_cz2n_entry_computes_its_kernel_once(monkeypatch):
    # the kernel-generators row reads the kernel that construction used
    modules = [importlib.import_module(f"qsl2.{name}")
               for name in ("catalog", "subgroups")]
    real = modules[1].kernel_sigma_t
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "kernel_sigma_t", counting, raising=False)
    assert verify_entry("cz2n", n=2).ok
    assert len(calls) == 1


def test_json_shape():
    entry = verify_entry("dihedral", m=2)
    doc = entry.to_json()
    assert doc["status"] == "pass"
    assert doc["entry"] == "dihedral"
    assert all({"check", "subject", "status"} <= set(row)
               for row in doc["results"])


def test_dual_entry_completes_one_quotient(monkeypatch):
    # the Hopf-ideal rows read the quotient the dimension row completed
    modules = [importlib.import_module(f"qsl2.{name}")
               for name in ("catalog", "cli", "hopf", "rewrite", "subgroups")]
    real = modules[3].quotient_presentation
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "quotient_presentation", counting)
    assert verify_entry("widehat-dual", ell=3).ok
    assert len(calls) == 1
