"""The benchmark tracer (perfbench/tracer.py) wraps library functions by
name; every name in its layer map must exist, or a rename silently breaks
the traced benchmark run.  And every span the benchmark expects on a
workload (perfbench/workloads.py, EXPECTED_LOADS) must record a call on
that workload's smallest run, or the traced run fails."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# Runs in a fresh interpreter: argv is the src directory, the perfbench
# directory and the workload; prints the exit codes and the missing spans.
SMOKE_RUN = """
import contextlib, io, json, sys
src, bench, workload = sys.argv[1:]
sys.path[:0] = [src, bench]
import kostka_forge.cli as cli
import tracer, workloads

trace = tracer.Trace().install()
codes = []
for invocation in workloads.invocations(workload, 3, smoke=True):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(list(invocation.argv)))
fired = {tracer.SPAN_NAMES[i] for i in trace.name}
print(json.dumps({"codes": codes, "missing": sorted(workloads.EXPECTED_LOADS[workload] - fired)}))
"""


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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_expected_span_fires_on_the_smoke_run(workload):
    argv = [sys.executable, "-c", SMOKE_RUN, str(ROOT / "src"), str(ROOT / "perfbench"), workload]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    assert set(result["codes"]) == {0}
