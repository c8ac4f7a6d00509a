"""Closed-loop runner: one client calling ``petersburg.cli.main`` in-process.

Run by ``run.py`` in a fresh interpreter, inside a work directory that holds
``deck.json`` (the argv of every command of one pass) and the generated input
files.  Each command starts only after the previous one returns.  Whole
passes over the deck repeat until ``--seconds`` of command time have
accumulated and at least ``MIN_COMMANDS`` commands have run.

Only the call to ``main`` is timed.  Outside it the worker hashes the
output and saves the first output of each deck entry for the verifiers.
With ``--trace 1`` it then replays one pass with every layer wrapped (see
``tracing.py``) and saves the spans.  Results go to ``result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

MIN_COMMANDS = 100  # p90 needs at least 10 samples beyond it

# Run before timing so lazy imports and first-call set-up are not billed to
# the first command of the deck.
_WARMUP = (
    ["calibrate", "--format", "json", "--no-timestamp"],
    ["optimal", "--beta", "-1.0"],
    ["distribution", "--beta", "-1.0", "--format", "csv", "--no-timestamp"],
)


def _call(main, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the petersburg package")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import numpy
    import petersburg.cli as cli

    deck = json.loads(Path("deck.json").read_text())
    outputs = Path("outputs")
    outputs.mkdir()
    for argv in _WARMUP:
        _call(cli.main, argv)

    records = []  # [deck index, exit code, seconds, stdout sha256, stderr]
    first_sha: dict[int, str] = {}
    pass_seconds = []
    busy = 0.0
    while busy < args.seconds or len(records) < MIN_COMMANDS:
        this_pass = 0.0
        for i, argv in enumerate(deck):
            rc, out, err, elapsed = _call(cli.main, argv)
            this_pass += elapsed
            sha = _sha(out)
            if i not in first_sha:
                first_sha[i] = sha
                (outputs / f"{i}.out").write_text(out, encoding="utf-8")
            records.append([i, rc, elapsed, sha, err[:2000]])
        pass_seconds.append(this_pass)
        busy += this_pass
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "records": records,
        "pass_seconds": pass_seconds,
        "peak_rss_kb": peak_rss_kb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "package_file": cli.__file__,
    }
    if args.trace:
        from tracing import Tracer, snapshot

        before = snapshot()
        tracer = Tracer()
        traced = []  # [deck index, exit code, seconds, stdout sha256, bytes out]
        with tracer.installed():
            for i, argv in enumerate(deck):
                tracer.command = i
                rc, out, err, elapsed = _call(cli.main, argv)
                traced.append([i, rc, elapsed, _sha(out), len(out.encode())])
        result["trace"] = {
            "commands": traced,
            "spans": [s.to_json() for s in tracer.spans],
            "restored": snapshot() == before,
        }
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
