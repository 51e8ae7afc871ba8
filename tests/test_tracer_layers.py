"""The benchmark tracer (perfbench/tracer.py) wraps library functions by
name; every name in its layer map must exist, or a rename silently breaks
the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for span, modname, attr in load_tracer().LAYERS:
        owner = importlib.import_module(modname)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # methods are replaced in their class's own namespace
        found = owner.__dict__.get(name) if classes else getattr(owner, name, None)
        assert found is not None, f"{span}: {modname}.{attr} does not exist"
