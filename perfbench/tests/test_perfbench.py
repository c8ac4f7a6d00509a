"""Tests of the benchmark's own parts: input generator, verifiers, tracing.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from verifiers import verify  # noqa: E402

import petersburg.calibration  # noqa: E402
import petersburg.cli  # noqa: E402
import petersburg.posteriors  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = petersburg.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first, again = workloads.generate(workload, 7), workloads.generate(workload, 7)
    assert first.digest() == again.digest()
    assert [c.argv for c in first.commands] == [c.argv for c in again.commands]
    assert first.files == again.files
    assert workloads.generate(workload, 8).digest() != first.digest()
    assert len(first.commands) >= 100


def test_verifier_rejects_a_perturbed_probability():
    spec = {"cmd": "distribution", "format": "csv", "beta": -0.7, "prior": {"kind": "luce"}}
    rc, out, err = _run(list(workloads.build_argv(spec)))
    assert verify(spec, rc, 0, out, err, {}) == []

    lines = out.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("3,"))
    n, u, p = lines[row].split(",")
    lines[row] = f"{n},{u},{float(p) * (1 + 1e-7):.12g}"
    problems = verify(spec, rc, 0, "\n".join(lines) + "\n", err, {})
    assert any("n=3" in problem for problem in problems)


def test_verifier_rejects_a_wrong_exit_code():
    spec = {"cmd": "distribution", "format": "table", "beta": 0.5, "error": "domain"}
    rc, out, err = _run(list(workloads.build_argv(spec)))
    assert rc == 2 and verify(spec, rc, 2, out, err, {}) == []
    assert verify(spec, 0, 2, "n  U_n  prob\n", "", {}) != []
    assert verify(spec, 2, 2, "", "error:config:bad key\n", {}) != []


def test_wrappers_restore_the_original_functions():
    original = petersburg.posteriors.posterior
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        # every module holding the function by name sees the same wrapper
        assert petersburg.calibration.posterior is not original
        assert petersburg.cli.posterior is petersburg.calibration.posterior
        assert petersburg.posteriors.posterior is petersburg.cli.posterior
        rc, _, _ = _run(["optimal", "--beta", "-1.157", "--prior", "log", "--u0", "1"])
    assert rc == 0
    assert tracing.snapshot() == before
    assert petersburg.cli.posterior is original

    layers = [s.layer for s in tracer.spans]
    assert layers[0] == "cli" and {"posteriors", "priors", "rootfind"} <= set(layers)
    own = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root.end - root.start, rel=1e-9)


def test_wrappers_restore_after_an_exception():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert tracing.snapshot() == before
