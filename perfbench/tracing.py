"""Spans around petersburg's public functions, recorded from outside the program.

``Tracer.installed()`` replaces each traced function by a wrapper in every
``petersburg`` module that holds it: ``cli`` and ``calibration`` import
``posterior`` by name, so patching ``petersburg.posteriors`` alone would miss
their calls.  The originals are put back on exit, so untraced runs measure
the unpatched program.

A span records its layer name, start, end, parent span, command id, whether
the call returned, and the counters its layer keeps.  ``layer_metrics`` turns
the spans of one traced pass into the per-layer metrics; a layer's self time
is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "petersburg"


class Span:
    __slots__ = ("layer", "command", "parent", "start", "end", "ok", "counts")

    def __init__(self, layer: str, command: int, parent: int) -> None:
        self.layer = layer
        self.command = command
        self.parent = parent
        self.start = self.end = 0.0
        self.ok = False
        self.counts: dict[str, float] = {}

    def to_json(self) -> list:
        return [self.layer, self.command, self.parent, self.start, self.end, self.ok, self.counts]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2])
        span.start, span.end, span.ok, span.counts = row[3], row[4], row[5], row[6]
        return span


# -- per-layer counters ------------------------------------------------------


def _is_truncation(exc: BaseException | None) -> bool:
    return exc is not None and any(c.__name__ == "TruncationError" for c in type(exc).__mro__)


def _posterior_counts(span, args, kwargs, result, exc) -> None:
    if result is not None:
        span.counts["terms"] = result.n_trunc
    elif _is_truncation(exc):
        # The stream ran to the policy's max_index before giving up.
        policy = args[3] if len(args) > 3 else kwargs.get("policy")
        span.counts["terms"] = policy.max_index if policy is not None else 10 ** 6


def _repeated_posterior_counts(span, args, kwargs, result, exc) -> None:
    if result is not None:
        span.counts["terms"] = result.n_trunc


def _sim_counts(span, config, draws_per_rep: int, result) -> None:
    span.counts["draws"] = draws_per_rep * config.replications
    block = getattr(sys.modules.get(f"{PACKAGE}.simulate"), "_BLOCK", None)
    if block:
        span.counts["blocks"] = math.ceil(config.replications / block)
    if result is not None:
        span.counts["capped_tosses"] = getattr(result, "capped_tosses", 0)


def _simulate_repeated_counts(span, args, kwargs, result, exc) -> None:
    n_games, config = args
    _sim_counts(span, config, n_games, result)


def _simulate_martingale_counts(span, args, kwargs, result, exc) -> None:
    _sim_counts(span, args[3], 1, result)


def _count_root_evals(span, args, kwargs):
    f = args[0]

    def counted(x):
        span.counts["f_evals"] = span.counts.get("f_evals", 0) + 1
        return f(x)

    return (counted, *args[1:]), kwargs


# (module, function, layer, hook run before the call, hook run after it)
TARGETS = (
    ("cli", "main", "cli", None, None),
    ("posteriors", "posterior", "posteriors", None, _posterior_counts),
    ("calibration", "calibrate_bernoulli_disbelief", "calibration", None, None),
    ("calibration", "calibrate_disbelief_general", "calibration", None, None),
    ("rootfind", "bisect_root", "rootfind", _count_root_evals, None),
    ("priors", "continuous_optimum", "priors", None, None),
    ("scenarios", "repeated_game_posterior", "scenarios.repeated_posterior", None,
     _repeated_posterior_counts),
    ("scenarios", "roulette_sequence", "scenarios.roulette", None, None),
    ("simulate", "simulate_repeated", "simulate", None, _simulate_repeated_counts),
    ("simulate", "simulate_martingale", "simulate", None, _simulate_martingale_counts),
)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []

    def _wrap(self, layer, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, self.command, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            result = exc = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if after is not None:
                    after(span, args, kwargs, result, exc)

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function wherever ``petersburg`` holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        patches = []
        try:
            for module, name, layer, before, after in TARGETS:
                original = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
                wrapper = self._wrap(layer, original, before, after)
                holders = [(m, key) for m in modules
                           for key, value in vars(m).items() if value is original]
                for m, key in holders:
                    setattr(m, key, wrapper)
                    patches.append((m, key, original))
            yield self
        finally:
            for m, key, original in reversed(patches):
                setattr(m, key, original)


def snapshot() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every loaded petersburg module, to
    show that ``installed()`` left nothing patched."""
    return {(name, key): id(value)
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
            for key, value in vars(module).items()}


# -- metrics -----------------------------------------------------------------

# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "cli.self_ms": "ms",
    "cli.bytes_out": "bytes",
    "posteriors.calls": "count",
    "posteriors.self_ms": "ms",
    "posteriors.terms": "count",
    "posteriors.ns_per_term": "ns",
    "posteriors.success_ratio": "ratio",
    "calibration.calls": "count",
    "calibration.self_ms": "ms",
    "calibration.posterior_evals": "count",
    "calibration.success_ratio": "ratio",
    "rootfind.calls": "count",
    "rootfind.f_evals": "count",
    "rootfind.self_ms": "ms",
    "priors.optimum_calls": "count",
    "priors.optimum_ms": "ms",
    "scenarios.repeated_posterior_calls": "count",
    "scenarios.repeated_posterior_ms": "ms",
    "scenarios.repeated_posterior_terms": "count",
    "scenarios.roulette_ms": "ms",
    "simulate.calls": "count",
    "simulate.self_ms": "ms",
    "simulate.draws": "count",
    "simulate.ns_per_draw": "ns",
    "simulate.blocks": "count",
    "simulate.capped_tosses": "count",
    "trace.overhead_frac": "frac",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children,
    in seconds."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], bytes_out: int, untraced_s: float,
                  traced_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced pass, and the reason for every metric
    that could not be taken (reported as 0)."""
    own = self_times(spans)
    by_layer: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_layer.setdefault(s.layer, []).append(i)

    def calls(layer):
        return len(by_layer.get(layer, ()))

    def self_ms(layer):
        return 1e3 * sum(own[i] for i in by_layer.get(layer, ()))

    def total(layer, key):
        return sum(spans[i].counts.get(key, 0) for i in by_layer.get(layer, ()))

    def ok_ratio(layer):
        n = calls(layer)
        return sum(spans[i].ok for i in by_layer.get(layer, ())) / n if n else None

    def under_calibration(i):
        parent = spans[i].parent
        while parent >= 0:
            if spans[parent].layer == "calibration":
                return True
            parent = spans[parent].parent
        return False

    terms, draws = total("posteriors", "terms"), total("simulate", "draws")
    has_blocks = all("blocks" in spans[i].counts for i in by_layer.get("simulate", ()))
    values = {
        "cli.self_ms": self_ms("cli"),
        "cli.bytes_out": bytes_out,
        "posteriors.calls": calls("posteriors"),
        "posteriors.self_ms": self_ms("posteriors"),
        "posteriors.terms": terms,
        "posteriors.ns_per_term": 1e6 * self_ms("posteriors") / terms if terms else None,
        "posteriors.success_ratio": ok_ratio("posteriors"),
        "calibration.calls": calls("calibration"),
        "calibration.self_ms": self_ms("calibration"),
        "calibration.posterior_evals": sum(under_calibration(i) for i in by_layer.get("posteriors", ())),
        "calibration.success_ratio": ok_ratio("calibration"),
        "rootfind.calls": calls("rootfind"),
        "rootfind.f_evals": total("rootfind", "f_evals"),
        "rootfind.self_ms": self_ms("rootfind"),
        "priors.optimum_calls": calls("priors"),
        "priors.optimum_ms": self_ms("priors"),
        "scenarios.repeated_posterior_calls": calls("scenarios.repeated_posterior"),
        "scenarios.repeated_posterior_ms": self_ms("scenarios.repeated_posterior"),
        "scenarios.repeated_posterior_terms": total("scenarios.repeated_posterior", "terms"),
        "scenarios.roulette_ms": self_ms("scenarios.roulette"),
        "simulate.calls": calls("simulate"),
        "simulate.self_ms": self_ms("simulate"),
        "simulate.draws": draws,
        "simulate.ns_per_draw": 1e6 * self_ms("simulate") / draws if draws else None,
        "simulate.blocks": total("simulate", "blocks") if has_blocks else None,
        "simulate.capped_tosses": total("simulate", "capped_tosses"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    why = {
        "posteriors.ns_per_term": "no posterior terms in this workload",
        "posteriors.success_ratio": "no posterior calls in this workload",
        "calibration.success_ratio": "no calibration calls in this workload",
        "simulate.ns_per_draw": "no simulator draws in this workload",
        "simulate.blocks": "the simulator no longer exposes its block size",
    }
    reasons = {name: why[name] for name, value in values.items() if value is None}
    return {name: 0.0 if value is None else value for name, value in values.items()}, reasons
