import importlib
from collections import Counter

import pytest

from qsl2 import presentations
from qsl2.catalog import DEFAULT_GRID, cz2mn_datum, entry_names, verify_entry
from qsl2.errors import ParamOutOfRange, UnknownEntry
from qsl2.hopf import NamedAlgebra
from qsl2.subgroups import construct_quotient, exact_sequence_shadow


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
               for name in ("cli", "hopf", "rewrite", "subgroups")]
    real = modules[2].quotient_presentation
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "quotient_presentation", counting)
    assert verify_entry("widehat-dual", ell=3).ok
    assert len(calls) == 1


def test_no_word_misses_the_cache_on_two_instances(monkeypatch):
    # a quotient is one instance, the one its Hopf-ideal rows were checked
    # on: neither the construction, the catalog nor the shadow recomputes a
    # coproduct or antipode on another instance over the same presentation
    misses, alive = {}, []
    for name, cache in (("delta_word", "_delta_cache"),
                        ("antipode_word", "_antipode_cache")):
        real = vars(NamedAlgebra)[name]

        def wrapped(self, word, real=real, name=name, cache=cache):
            if word not in getattr(self, cache):
                alive.append(self)          # keeps the ids below unique
                misses.setdefault((name, id(self.pres), word),
                                  set()).add(id(self))
            return real(self, word)

        monkeypatch.setattr(NamedAlgebra, name, wrapped)
    cons = construct_quotient(cz2mn_datum(4, 3))
    assert all(r.ok for r in exact_sequence_shadow(cons))
    assert verify_entry("taft", ell=3).ok
    assert verify_entry("case-I-full", parity="odd", ell=3).ok
    assert len(misses) > 100
    assert [key for key, owners in misses.items() if len(owners) > 1] == []


def test_one_grid_pass_builds_each_base_once(monkeypatch):
    # every grid entry asks for its base anew, yet each distinct base is
    # completed and checked once in the process
    monkeypatch.setattr(presentations, "_BASES", {})
    calls, builds, checks = Counter(), Counter(), Counter()
    for name in ("sl2_algebra", "classical_sl2",
                 "classical_sl2_presentation"):
        real = getattr(presentations, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in ("catalog", "subgroups", "presentations"):
            monkeypatch.setattr(importlib.import_module(f"qsl2.{module}"),
                                name, counting, raising=False)
    build, check = (presentations.build_presentation,
                    presentations.named_algebra)

    def counting_build(*args, **kwargs):
        builds[kwargs["label"] == "classical-sl2"] += 1
        return build(*args, **kwargs)

    def counting_check(*args):
        checks[args[-1]] += 1
        return check(*args)

    monkeypatch.setattr(presentations, "build_presentation", counting_build)
    monkeypatch.setattr(presentations, "named_algebra", counting_check)
    for name, params in DEFAULT_GRID:
        assert verify_entry(name, **params).ok
    # 7 classical presentations are asked for by the kernel, and 1 by the
    # one build of classical_sl2
    assert calls == {"sl2_algebra": 29, "classical_sl2": 5,
                     "classical_sl2_presentation": 8}
    # 9 distinct O_q(SL2) bases, and the classical ring at 4 conductors
    assert builds == {False: 9, True: 4}
    assert sum(checks.values()) == 10 and checks["classical-sl2"] == 1
