"""Benchmark of the petersburg CLI on seeded workloads.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run

1. generates the workload's deck of commands and input files from --seed
   (``workloads.py``) in a work directory under ``.perfbench/``;
2. measures set-up: fresh interpreters that import ``petersburg.cli``;
3. runs the deck closed-loop in a fresh worker process (``worker.py``) for
   --seconds of command time, in whole passes, at least 100 commands;
4. checks every command's output against independent references
   (``verifiers.py``), outside the timed region;
5. prints a report, then one JSON line: with --trace 0 the end-to-end
   metrics, with --trace 1 the per-layer metrics of one traced pass
   (``tracing.py``).

It exits 2 without a result when the checkout holds no ``src/petersburg``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS, Span, layer_metrics, self_times
from verifiers import verify
from workloads import WORKLOADS, Inputs, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is sampled before and after the timed passes, so its median sees
# the machine at both ends of the run.
SETUP_SPAWNS = 5
WORKER_TIMEOUT_S = 165
COVERAGE_TOL = 0.05

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(work: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    ``petersburg.cli``, once per spawn."""
    code = "import time, petersburg.cli as m; print(time.monotonic_ns(), m.__file__)"
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=work,
                              capture_output=True, text=True, timeout=60, check=True)
        stamp, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported {path}, not the checkout's sources")
        times.append((int(stamp) - start) / 1e9)
    return times


def run_worker(work: Path, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads((work / "result.json").read_text())


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def check_outputs(inputs: Inputs, result: dict, work: Path) -> tuple[list[bool], list[str], list[str]]:
    """Verify every executed command.  The first run of each deck entry is
    checked against the references; later runs must repeat it byte for byte.
    Returns per-record failure flags, unexpected problems, and the known
    failures seen."""
    first: dict[int, tuple[int, str, bool]] = {}
    failed, problems, known = [], [], []
    for i, rc, _, sha, err in result["records"]:
        if i not in first:
            cmd = inputs.commands[i]
            text = (work / "outputs" / f"{i}.out").read_text(encoding="utf-8")
            bad = verify(cmd.spec, rc, cmd.expect_rc, text, err, inputs.files)
            first[i] = (rc, sha, bool(bad))
            if bad:
                label = f"#{i} petersburg {' '.join(cmd.argv)}: {'; '.join(bad)}"
                kf = cmd.known_failure
                if kf and rc == kf["rc"] and err.startswith(kf["stderr"]):
                    known.append(f"{label} (known: {kf['why']})")
                else:
                    problems.append(label)
        first_rc, first_sha, bad = first[i]
        if (rc, sha) != (first_rc, first_sha):
            problems.append(f"#{i}: output differs from this command's first run")
            bad = True
        failed.append(bad)
    return failed, problems, known


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "petersburg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def end_to_end(setup: list[float], result: dict, failed: list[bool]) -> tuple[dict, list[str]]:
    # A command's latency is the best of its repetitions in the run: a
    # shared machine's speed drifts by +-20% over seconds, and the best of
    # several passes sees its fast state on every run, where a mean or a
    # percentile over all repetitions would follow the drift.  A run that
    # fits one pass (sweep) has one sample per command.
    best: dict[int, float] = {}
    for i, _, seconds, _, _ in result["records"]:
        best[i] = min(seconds, best.get(i, math.inf))
    latencies = sorted(best.values())
    n, passes = len(latencies), len(result["pass_seconds"])
    p50, beyond50 = nearest_rank(latencies, 0.50)
    p90, beyond90 = nearest_rank(latencies, 0.90)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "success_frac": 1.0 - sum(failed) / len(failed),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    per = f"{n} commands, each the best of {passes} pass{'es' * (passes > 1)}"
    notes = {
        "setup_s": f"median of {len(setup)} spawns, range {min(setup):.4f}-{max(setup):.4f} s",
        "ops_per_s": f"{per}; as run: {len(failed)} in "
                     f"{sum(result['pass_seconds']):.3f} s of command time",
        "op_p50_ms": f"{per}, {beyond50} beyond",
        "op_p90_ms": f"{per}, {beyond90} beyond",
        "success_frac": f"{sum(failed)} of {len(failed)} commands run failed",
        "peak_rss_mb": "ru_maxrss of the worker after the timed passes",
    }
    lines = [f"  {k:<16}{v:>14.6g} {END_TO_END[k]:<5} ({notes[k]})" for k, v in values.items()]
    return values, lines


def traced(inputs: Inputs, result: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics of the traced pass, report lines, and problems."""
    trace = result["trace"]
    spans = [Span.from_json(row) for row in trace["spans"]]
    commands = trace["commands"]
    traced_s = sum(c[2] for c in commands)
    untraced_s = statistics.median(result["pass_seconds"])
    values, reasons = layer_metrics(spans, sum(c[4] for c in commands), untraced_s, traced_s)

    problems = []
    first: dict[int, tuple[int, str]] = {}
    for i, rc, _, sha, _ in result["records"]:
        first.setdefault(i, (rc, sha))
    for i, rc, _, sha, _ in commands:
        if (rc, sha) != first[i]:
            problems.append(f"#{i}: traced output differs from the untraced run")
    if not trace["restored"]:
        problems.append("tracing left a petersburg function wrapped")
    own = self_times(spans)
    covered = sum(own) / traced_s
    if abs(covered - 1.0) > COVERAGE_TOL:
        problems.append(f"layer self times cover {covered:.3f} of traced command time")

    share: dict[str, float] = {}
    for span, t in zip(spans, own):
        share[span.layer] = share.get(span.layer, 0.0) + t / traced_s
    lines = [f"  traced pass {traced_s:.3f} s, untraced pass {untraced_s:.3f} s; "
             f"layer self times cover {covered:.4f} of it"]
    lines.append("  self-time share: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(share.items(), key=lambda kv: -kv[1])))
    for name, value in values.items():
        note = f"  (not taken: {reasons[name]})" if name in reasons else ""
        lines.append(f"  {name:<36}{value:>16.6g} {LAYER_METRICS[name]}{note}")
    return values, lines, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "petersburg" / "cli.py").is_file():
        print(f"perfbench: no petersburg sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    inputs = generate(args.workload, args.seed)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs.write_files(work)
        (work / "deck.json").write_text(json.dumps([list(c.argv) for c in inputs.commands]))
        setup = measure_setup(work)
        result = run_worker(work, args.seconds, args.trace)
        setup += measure_setup(work)
        failed, problems, known = check_outputs(inputs, result, work)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_digest": inputs.digest(),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "package_file": result["package_file"],
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "commands_per_pass": len(inputs.commands),
        "passes": len(result["pass_seconds"]),
        "commands_run": len(result["records"]),
    }
    print("context " + json.dumps(context))
    e2e, lines = end_to_end(setup, result, failed)
    print("end to end (tracing off):")
    print("\n".join(lines))
    for line in known:
        print("known failure: " + line)
    for line in problems:
        print("FAILED: " + line)

    if args.trace:
        values, lines, trace_problems = traced(inputs, result)
        print("per layer (one traced pass):")
        print("\n".join(lines))
        for line in trace_problems:
            print("FAILED: " + line)
        problems += trace_problems
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    print(json.dumps({
        "correct": not problems,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
