"""Benchmark driver for the kostka-forge CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI invocation runs in a fresh interpreter (perfbench/child.py), so
memo tables start cold and nothing carries over between invocations.  The
workloads and their output checks are in workloads.py; DESIGN.md says why
each was chosen and which layers it loads.

--trace 0 runs the workload's invocations over and over for about S
seconds and reports the end-to-end metrics (medians over the iterations):
wall_ref_s, cpu_ref_s, peak_rss_mb and setup_s, times rescaled to a
reference speed (see PROBE_ROUNDS).  --trace 1 runs the workload once
untraced and twice traced, checks that the traced counts repeat exactly,
and reports the per-layer metrics from tracer.py.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without a src/kostka_forge package next to
perfbench/ the driver exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORK = BUILD / "perfbench"

SETUP_SPAWNS = 5  # import-only spawns per run, beside one per invocation
RUN_LIMIT_S = 170  # hard stop for one run; no new invocation starts after it

# The speed probe: a short fixed loop the parent runs every PROBE_GAP_S
# while a child runs.  This host's vCPUs share physical cores with other
# tenants and change speed by up to 2x within seconds, each vCPU on its
# own, in CPU time as much as in wall time.  So a run keeps itself and its
# children on one vCPU (the probe then measures the vCPU the child runs
# on), and every timing is rescaled by REF_PROBE_S / (mean CPU time of the
# probes during it): seconds at the speed where one probe takes
# REF_PROBE_S of CPU, about its time on this 2-vCPU Intel Xeon host when
# the host is quiet.  The probe's CPU time, not its wall time, because it
# shares the vCPU with the child.  It takes a tenth to a fifth of that
# vCPU, which the child's wall time includes.
PROBE_ROUNDS = 30_000
PROBE_GAP_S = 0.05
REF_PROBE_S = 0.0065

END_TO_END = [("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


@dataclass
class Outcome:
    """One invocation: its measurements and what went wrong, if anything."""

    label: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    speed: float = 1.0  # REF_PROBE_S / mean probe CPU time while it ran
    errors: list = field(default_factory=list)


def child_env():
    env = dict(os.environ)
    env.pop("KOSTKA_FORGE_THREADS", None)  # the CLI's serial default, as a user gets it
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def build(env):
    """Byte-compile the package and the harness, so set-up times import warm."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def probe():
    """CPU seconds for a fixed pure-Python loop (tuple-keyed dict updates
    and integer arithmetic, as in the library's kernels)."""
    start = time.thread_time()
    acc = {}
    for i in range(PROBE_ROUNDS):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * 3
    return time.thread_time() - start


def _wait(proc, deadline):
    """Reap proc, probing the speed meanwhile; kill it past the deadline.

    Returns (rusage, speed)."""
    samples = []
    try:
        while True:
            samples.append(probe())
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage, REF_PROBE_S / statistics.fmean(samples)
            if time.monotonic() > deadline:
                raise TimeoutError
            time.sleep(PROBE_GAP_S)
    except BaseException:
        proc.kill()
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raise


def spawn(argv, env, deadline, slot=0, trace=False):
    """Run child.py once; argv None only imports (a set-up sample)."""
    WORK.mkdir(parents=True, exist_ok=True)
    out_path = WORK / f"out-{slot}"
    err_path = WORK / f"err-{slot}"
    result_path = WORK / f"result-{slot}.json"
    trace_path = WORK / f"trace-{slot}.bin"
    result_path.unlink(missing_ok=True)
    spec = {
        "src": str(SRC),
        "argv": argv,
        "trace": str(trace_path) if trace else None,
        "result": str(result_path),
    }
    outcome = Outcome(" ".join(argv) if argv else "import")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        try:
            usage, outcome.speed = _wait(proc, deadline)
        except TimeoutError:
            outcome.errors.append("killed at the run's time limit")
            return outcome
    outcome.cpu_s = usage.ru_utime + usage.ru_stime
    outcome.rss_mb = usage.ru_maxrss / 1024
    if proc.returncode != 0 or not result_path.exists():
        tail = err_path.read_bytes()[-500:].decode(errors="replace").strip()
        outcome.errors.append(f"exit code {proc.returncode}: {tail}")
        return outcome
    result = json.loads(result_path.read_text())
    outcome.setup_s = result["imported"] - spawned
    outcome.wall_s = result.get("wall", 0.0)
    outcome.output_bytes = out_path.stat().st_size
    return outcome


def run_iteration(invocations, env, deadline, trace=False):
    """Each invocation once, in order, with its output checked."""
    outcomes = []
    for slot, inv in enumerate(invocations):
        outcome = spawn(list(inv.argv), env, deadline, slot, trace)
        if not outcome.errors:
            outcome.errors = inv.failures((WORK / f"out-{slot}").read_bytes())
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _median_note(name, unit, values, raw):
    return (
        f"{name}: median {statistics.median(values):.4f} {unit} of {len(values)} samples, "
        f"range {min(values):.4f}-{max(values):.4f}; unscaled median {statistics.median(raw):.4f}"
    )


def measure(invocations, seconds, env, deadline):
    """Untraced iterations for about `seconds`; end-to-end metrics."""
    spawns = [spawn(None, env, deadline) for _ in range(SETUP_SPAWNS)]
    iterations = []
    begin = time.monotonic()
    while True:
        iterations.append(run_iteration(invocations, env, deadline))
        now = time.monotonic()
        per_iteration = (now - begin) / len(iterations)
        if now - begin + per_iteration > seconds or now + per_iteration > deadline:
            break
    outcomes = [o for it in iterations for o in it]
    setups = [o for o in spawns + outcomes if not o.errors]
    samples = {  # name: (scaled samples, unscaled samples)
        "wall_ref_s": (
            [sum(o.wall_s * o.speed for o in it) for it in iterations],
            [sum(o.wall_s for o in it) for it in iterations],
        ),
        "cpu_ref_s": (
            [sum(o.cpu_s * o.speed for o in it) for it in iterations],
            [sum(o.cpu_s for o in it) for it in iterations],
        ),
        "peak_rss_mb": ([max(o.rss_mb for o in it) for it in iterations],) * 2,
        "setup_s": ([o.setup_s * o.speed for o in setups] or [0.0], [o.setup_s for o in setups] or [0.0]),
    }
    metrics = {name: statistics.median(samples[name][0]) for name, _ in END_TO_END}
    notes = [
        f"{o.label}: wall {o.wall_s:.3f} s, cpu {o.cpu_s:.3f} s, speed {o.speed:.3f}, "
        f"scaled wall {o.wall_s * o.speed:.3f} s"
        for o in outcomes
    ]
    notes += [_median_note(name, unit, *samples[name]) for name, unit in END_TO_END]
    return outcomes, spawns, metrics, notes


def trace_run(workload, invocations, env, deadline):
    """One untraced and two traced iterations; per-layer metrics."""
    outcomes = run_iteration(invocations, env, deadline)
    untraced_wall = sum(o.wall_s * o.speed for o in outcomes)
    passes = []
    for _ in range(2):
        iteration = run_iteration(invocations, env, deadline, trace=True)
        outcomes += iteration
        if any(o.errors for o in iteration):
            return outcomes, None, ["a traced invocation failed; no layer metrics"]
        layer, calls = tracer.layer_metrics(
            [WORK / f"trace-{slot}.bin" for slot in range(len(invocations))],
            [o.speed for o in iteration],
            sum(o.output_bytes for o in iteration),
        )
        layer["trace.overhead_s"] = sum(o.wall_s * o.speed for o in iteration) - untraced_wall
        passes.append((layer, calls))
    (first, calls), (second, _) = passes
    problems = [
        f"count {name} differs between two traced runs: {first[name]} != {second[name]}"
        for name in tracer.DETERMINISTIC
        if first[name] != second[name]
    ]
    problems += [
        f"{span} recorded no calls on {workload}, where it is expected"
        for span in sorted(workloads.EXPECTED_LOADS[workload])
        if not calls[span]
    ]
    notes = [
        f"prediction missed: {span} recorded {calls[span]} calls on {workload}, predicted 0"
        for span in sorted(workloads.PREDICTED_BYPASS[workload])
        if calls[span]
    ]
    metrics = {
        name: first[name] if name in tracer.DETERMINISTIC else (first[name] + second[name]) / 2
        for name, _, _ in tracer.PER_LAYER
    }
    return outcomes, (metrics, problems), notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kostka_forge" / "cli.py").is_file():
        sys.stderr.write(f"no kostka_forge package under {SRC}; run from a full checkout\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by the children
    env = child_env()
    build(env)
    invocations = workloads.invocations(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, nproc {os.cpu_count()}, "
          f"invocations: {'; '.join(inv.label for inv in invocations)}")
    problems = []
    if args.trace:
        outcomes, traced, notes = trace_run(args.workload, invocations, env, deadline)
        if traced is None:
            metrics = {}
        else:
            metrics, problems = traced
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        outcomes, spawns, metrics, notes = measure(invocations, args.seconds, env, deadline)
        problems = [f"import-only spawn: {e}" for o in spawns for e in o.errors]
        units = dict(END_TO_END)
    failed = [o for o in outcomes if o.errors]
    for o in failed:
        for error in o.errors:
            print(f"FAIL {o.label}: {error}")
    for line in problems:
        print(f"FAIL {line}")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops_failed = {len(failed)} / {len(outcomes)} invocations")
    result = {
        "correct": not failed and not problems and bool(metrics),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
