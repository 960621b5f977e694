"""The benchmark's tracer (perfbench/tracing.py) wraps qrx functions by name
with getattr, so a name it lists must stay on its module, or a traced run
stops with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves():
    tracing = load_tracing()
    for layer, names in tracing.PRIVATE.items():
        module = importlib.import_module(f"qrx.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qrx.{layer}.{name}"
    # the quad shim replaces hadamard.integrate and calls its quad
    hadamard = importlib.import_module("qrx.hadamard")
    assert callable(hadamard.integrate.quad)
