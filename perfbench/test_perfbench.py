"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _times(spans, names=("a", "b", "c")):
    ids = {n: i for i, n in enumerate(names)}
    return tracer.span_times(
        list(names),
        [ids[s[0]] for s in spans],
        [s[1] for s in spans],
        [s[2] for s in spans],
        [s[3] for s in spans],
    )


def test_self_and_inclusive_time_on_synthetic_spans():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 30, 0),
        ("c", 15, 20, 1),
        ("b", 40, 70, 0),
        ("a", 50, 60, 3),  # a recursing through b: not inclusive time again
        ("a", 200, 210, -1),
    ]
    times = _times(spans)
    assert times["a"] == {"calls": 3, "self_ns": (100 - 20 - 30) + 10 + 10, "incl_ns": 100 + 10}
    assert times["b"] == {"calls": 2, "self_ns": (20 - 5) + (30 - 10), "incl_ns": 20 + 30}
    assert times["c"] == {"calls": 1, "self_ns": 5, "incl_ns": 5}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [("a", 0, 100, -1), ("b", 10, 50, 0), ("c", 40, 60, 0), ("c", 55, 58, 0)]
    assert _times(spans)["a"]["self_ns"] == 100 - 50


def test_trace_round_trip_and_scaling(tmp_path):
    trace = tracer.Trace()
    gcd = tracer.SPAN_NAMES.index("qt.gcd")
    for arr, values in ((trace.name, [gcd, gcd]), (trace.start, [0, 10]), (trace.end, [100, 20]), (trace.parent, [-1, 0])):
        arr.extend(values)
    trace.counters["qt.gcd.nontrivial"] = 1
    trace.write(tmp_path / "t.bin")
    metrics, calls = tracer.layer_metrics([tmp_path / "t.bin"], [2.0], 7)
    assert calls["qt.gcd"] == 2 and metrics["qt.gcd.calls"] == 2
    assert metrics["qt.gcd.self_s"] == pytest.approx(2.0 * 100 / 1e9)
    assert metrics["qt.gcd.nontrivial_ratio"] == 0.5
    assert metrics["cli.output_bytes"] == 7 and metrics["trace.spans"] == 2


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def test_hash_check_catches_a_flipped_byte():
    data = b'{"degree":2,"n":2}\n'
    pinned = hashlib.sha256(data).hexdigest()
    assert checks.check_sha256(data, pinned) == []
    flipped = bytearray(data)
    flipped[5] ^= 0x01
    assert checks.check_sha256(bytes(flipped), pinned)


def _poly(*terms):
    return [[a, b, str(c)] for a, b, c in terms]


def _kostka_doc(entries):
    return {
        "degree": 2,
        "n": 2,
        "labels": [[2, 0], [1, 1]],
        "entries": [[{"num": num, "den": checks.ONE} for num in row] for row in entries],
        "integral": [[True, True], [True, True]],
    }


def test_kostka_checker_accepts_degree_two():
    # K(q,t) = [[1, q], [t, 1]] for degree 2
    doc = _kostka_doc([[_poly((0, 0, 1)), _poly((1, 0, 1))], [_poly((0, 1, 1)), _poly((0, 0, 1))]])
    assert checks.check_kostka(json.dumps(doc).encode(), 2, 2) == []


@pytest.mark.parametrize(
    "entry, message",
    [
        (_poly((1, 0, 2)), "(1,1) = 2"),
        (_poly((1, 0, 1), (0, 1, -1), (0, 2, 1)), "negative"),
        (_poly((0, 0, 1)), "identity"),
    ],
)
def test_kostka_checker_rejects_a_perturbed_entry(entry, message):
    doc = _kostka_doc([[_poly((0, 0, 1)), entry], [_poly((0, 1, 1)), _poly((0, 0, 1))]])
    errors = checks.check_kostka(json.dumps(doc).encode(), 2, 2)
    assert any(message in e for e in errors), errors


def test_kostka_checker_rejects_a_denominator():
    doc = _kostka_doc([[_poly((0, 0, 1)), _poly((1, 0, 1))], [_poly((0, 1, 1)), _poly((0, 0, 1))]])
    doc["entries"][1][0]["den"] = _poly((0, 0, 1), (1, 0, -1))
    assert checks.check_kostka(json.dumps(doc).encode(), 2, 2)


def test_hook_lengths_give_the_degree_four_row():
    assert [checks.standard_tableaux(p) for p in checks.partitions(4, 4)] == [1, 3, 2, 3, 1]
    assert len(checks.compositions(7, 4)) == 330


def test_table_checker_rejects_a_fraction():
    term = {"z": [1], "num": checks.ONE, "den": checks.ONE}
    doc = {"n": 1, "maxdeg": 1, "entries": [
        {"lambda": [0], "calE": {"n": 1, "terms": [dict(term, z=[0])]}},
        {"lambda": [1], "calE": {"n": 1, "terms": [term]}},
    ]}
    assert checks.check_table(json.dumps(doc).encode(), 1, 1) == []
    doc["entries"][1]["calE"]["terms"][0]["den"] = _poly((0, 0, 1), (1, 0, -1))
    assert checks.check_table(json.dumps(doc).encode(), 1, 1)


def test_verify_checker_rejects_an_empty_suite():
    report = {"suite": "jack", "checks": [], "passed": True}
    assert checks.check_verify(json.dumps(report).encode(), "jack")


# ---------------------------------------------------------------------------
# declarations agree with each other and with BENCHMARK.json
# ---------------------------------------------------------------------------


def test_every_traced_span_is_expected_on_some_workload():
    expected = set().union(*workloads.EXPECTED_LOADS.values())
    assert expected == set(tracer.SPAN_NAMES)
    for name in workloads.WORKLOADS:
        assert not workloads.EXPECTED_LOADS[name] & workloads.PREDICTED_BYPASS[name]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


# ---------------------------------------------------------------------------
# smoke runs at the smallest sizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    invocations = workloads.invocations(workload, seed=3, smoke=True)
    outcomes = run.run_iteration(invocations, run.child_env(), deadline=time.monotonic() + 120)
    assert [o.errors for o in outcomes] == [[] for _ in invocations]
    assert all(o.wall_s > 0 and o.setup_s > 0 for o in outcomes)


def test_smoke_traced_run_repeats_its_counts():
    invocations = workloads.invocations("kostka", seed=3, smoke=True)
    outcomes, traced, _ = run.trace_run("kostka", invocations, run.child_env(), time.monotonic() + 120)
    assert not any(o.errors for o in outcomes)
    metrics, problems = traced
    assert problems == []
    assert metrics["hecke.hecke_symmetrize.calls"] > 0 and metrics["macdonald.eigen_oracle_E.incl_s"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
