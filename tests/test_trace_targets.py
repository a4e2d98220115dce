"""The attributes perfbench/tracing.py patches must exist where it looks.

The tracer finds a method in its class's own ``__dict__`` and a function
as a module attribute; a refactor that moves either breaks ``--trace 1``.
This checks the targets without running a traced pass, then runs the
benchmark tooling's own self-test, traced passes included.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def resolves(module, attr) -> bool:
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        return cls is not None and meth in vars(cls)
    return callable(getattr(module, attr, None))


def test_every_trace_target_resolves(monkeypatch):
    tracing = load("tracing", monkeypatch)
    modules = {"workloads": load("workloads", monkeypatch)}
    targets = {target for targets in tracing.SPANS.values()
               for target in targets}
    targets.add(("qsl2.rewrite", "Presentation.find_redex"))
    targets.update(("qsl2.cyclo", f"CycRat.{name}")
                   for names in tracing.CYCLO_OPS.values() for name in names)
    missing = []
    for modname, attr in sorted(targets):
        module = modules.get(modname) or importlib.import_module(modname)
        if not resolves(module, attr):
            missing.append(f"{modname}:{attr}")
    assert missing == []


def test_tracer_counts_the_package_units(monkeypatch):
    """cyclo.mul.unit_share counts the operands the fast path treats as units."""
    from qsl2 import cyclo

    tracing = load("tracing", monkeypatch)
    tracer = tracing.Tracer({})
    for ell in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24, 28, 30, 35]:
        words = tracer._unit_words(cyclo.CycRat.one(ell))
        assert words == set(cyclo._context(ell).unit_index)


def test_benchmark_selftest_passes():
    """A refactor of a traced class fails here, not in a later traced run;
    the self-test makes and removes its scratch tree under .bench_out/."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
