"""Output checks for benchmark commands, against independent references.

Each reference is computed here from the command's spec with vectorized
numpy (or mpmath for the transcendental roots), never by calling the
program:

* coin-toss luce probabilities against the closed partition
  1 / (4 sinh^2(|beta|/2));
* other priors against a log-sum-exp over the whole support;
* the closed-form prior optima and integer brackets;
* the closed calibration root 1.1568601072 to 1e-10, and
  |b - sigma(-b)| <= 1e-6 for general-route roots with sigma recomputed;
* repeated games: u_opt = 1/|beta|, n_opt a neighbour of 2^(1/|beta|-1);
* martingale stage means within 6 standard errors of [1-(2(1-p))^n] x0;
* exit codes and ``error:<category>:`` lines on the documented error paths.

``verify`` returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

CLOSED_ROOT = 1.1568601072
DOUBLE_ZERO_WIN_PROB = 18.0 / 38.0

_RTOL = 1e-9  # csv/json print 12 significant digits
_TABLE_RTOL = 6e-4  # tables print 4 significant digits
_SIGMA_TOL = 1e-6
_TAIL_TOL = 1e-10


def verify(spec: dict, rc: int, expect_rc: int, stdout: str, stderr: str,
           files: dict[str, str]) -> list[str]:
    if rc != expect_rc:
        line = stderr.strip().splitlines()[:1]
        return [f"exit code {rc}, expected {expect_rc} {line}"]
    if "error" in spec:
        if not stderr.startswith(f"error:{spec['error']}:"):
            return [f"stderr {stderr[:80]!r} lacks error:{spec['error']}:"]
        return ["error path wrote to stdout"] if stdout else []
    try:
        return _CHECKS[spec["cmd"]](spec, stdout, files)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {exc!r}"]


# -- parsing -----------------------------------------------------------------


def _csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            body.append(line)
    header = body[0].split(",")
    return meta, header, [row.split(",") for row in body[1:]]


def _csv_floats(rows: list) -> np.ndarray:
    return np.loadtxt(io.StringIO("\n".join(",".join(r) for r in rows)),
                      delimiter=",", ndmin=2)


def _close(got, ref, rtol: float) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= rtol * np.abs(ref) + 1e-300))


# -- references --------------------------------------------------------------


def prior_log_weight(prior: dict, u: np.ndarray) -> np.ndarray:
    """ln of the unnormalized prior weight at expected utilities ``u``."""
    kind = prior["kind"]
    with np.errstate(divide="ignore"):
        if kind == "luce":
            return np.where(u < 0, -np.log(np.abs(u)), np.log(np.abs(u)))
        if kind == "power":
            return prior["alpha"] * np.log(u)
        if kind == "log":
            return np.log(np.log1p(u / prior["u0"]))
    return prior["b"] * u ** prior["gamma"] + prior.get("c", 0.0)


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.sum(np.exp(x - m))))


def _coin_log_weights(prior: dict, beta: float, at_least: int = 1) -> np.ndarray:
    """Log weights over n = 1..N for the coin-toss family (U_n = n), with N
    past ``at_least`` and far enough that later terms are below e^-60 of the
    largest."""
    size = max(1024, at_least)
    while True:
        n = np.arange(1, size + 1, dtype=float)
        lw = prior_log_weight(prior, n) + beta * n
        if size >= at_least and lw[-1] < lw.max() - 60.0 and np.argmax(lw) < size // 2:
            return lw
        size *= 2


def coin_probs(prior: dict, beta: float, size: int) -> tuple[np.ndarray, float]:
    """Probabilities of n = 1..size, normalized over the whole support, and
    the mass beyond ``size`` relative to the mass up to it."""
    if prior["kind"] == "luce":
        n = np.arange(1, size + 1, dtype=float)
        s = math.sinh(abs(beta) / 2.0)
        log_z = -math.log(4.0 * s * s)
        probs = np.exp(np.log(n) + beta * n - log_z)
        return probs, max(0.0, 1.0 / float(probs.sum()) - 1.0)
    lw = _coin_log_weights(prior, beta, size + 1)
    log_total = _logsumexp(lw)
    log_kept = _logsumexp(lw[:size])
    return np.exp(lw[:size] - log_total), math.expm1(log_total - log_kept)


def family_utilities(doc: dict, utility: dict) -> np.ndarray:
    """Expected utility of each lottery of a custom family document."""
    values = []
    for lottery in doc["lotteries"]:
        x = np.array([o["payoff"] for o in lottery["outcomes"]], dtype=float)
        p = np.array([o["prob"] for o in lottery["outcomes"]], dtype=float)
        kind = utility["kind"]
        if kind == "linear":
            u = x
        elif kind == "logarithmic":
            u = np.log(x)
        elif kind == "power":
            u = x ** utility["exponent"]
        else:
            u = utility["base"] ** np.arange(1, len(x) + 1, dtype=float)
        values.append(float(np.dot(u, p)))
    return np.array(values)


def _family_probs(spec: dict, files: dict, beta: float) -> tuple[np.ndarray, np.ndarray]:
    u = family_utilities(json.loads(files[spec["game"]]), spec["utility"])
    lw = prior_log_weight({"kind": "luce"}, u) + beta * u
    return u, np.exp(lw - _logsumexp(lw))


def _sigma(u: np.ndarray, lw: np.ndarray) -> float:
    p = np.exp(lw - _logsumexp(lw))
    mean = float(np.dot(p, u))
    return math.sqrt(float(np.dot(p, (u - mean) ** 2)))


def _sigma_at(spec: dict, files: dict, b: float) -> float:
    if "game" in spec:
        u = family_utilities(json.loads(files[spec["game"]]), spec["utility"])
        return _sigma(u, prior_log_weight({"kind": "luce"}, u) - b * u)
    lw = _coin_log_weights(spec.get("prior", {"kind": "luce"}), -b)
    return _sigma(np.arange(1, len(lw) + 1, dtype=float), lw)


def closed_root() -> float:
    import mpmath

    with mpmath.workdps(30):
        root = mpmath.findroot(lambda b: mpmath.sqrt(2) * b * mpmath.sinh(b / 2) - 1, 1.15)
    return float(root)


def continuous_optimum(prior: dict, beta: float) -> float:
    abs_beta = abs(beta)
    kind = prior["kind"]
    if kind == "luce":
        return 1.0 / abs_beta
    if kind == "power":
        return prior["alpha"] / abs_beta
    if kind == "logit":
        return (prior["b"] * prior["gamma"] / abs_beta) ** (1.0 / (1.0 - prior["gamma"]))
    import mpmath

    target = 1.0 / (abs_beta * prior["u0"])
    with mpmath.workdps(30):
        x = mpmath.findroot(lambda x: (1 + x) * mpmath.log1p(x) - target,
                            (mpmath.mpf(0), mpmath.mpf(max(10.0, math.exp(target)))),
                            solver="anderson")
    return prior["u0"] * float(x)


def _binomial_two_sided(k: int, n: int, p: float) -> float:
    """Two-sided tail probability of k successes in Binomial(n, p)."""
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(j: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)

    # Sum the tail on k's side of the mean, where terms shrink away from k.
    step = -1 if k <= n * p else 1
    total, j = 0.0, k
    while 0 <= j <= n:
        term = pmf(j)
        total += term
        if term < 1e-20 * total and abs(j - k) > 10:
            break
        j += step
    return min(1.0, 2.0 * total)


# -- per-command checks ------------------------------------------------------


def _check_rows(spec, files, n, u, probs, n_trunc, rtol) -> list[str]:
    problems = []
    if "game" in spec:
        u_ref, p_ref = _family_probs(spec, files, spec["beta"])
        if n_trunc != len(u_ref):
            problems.append(f"n_trunc {n_trunc}, family has {len(u_ref)} lotteries")
        k = len(n)
        u_ref, p_ref = u_ref[:k], p_ref[:k]
    else:
        p_ref, tail = coin_probs(spec["prior"], spec["beta"], n_trunc)
        u_ref = np.arange(1, n_trunc + 1, dtype=float)
        u_ref, p_ref = u_ref[: len(n)], p_ref[: len(n)]
        if tail > _TAIL_TOL:
            problems.append(f"support stops at {n_trunc} with {tail:.3g} of the mass beyond it")
    if not np.array_equal(np.asarray(n), np.arange(1, len(n) + 1)):
        problems.append("indices are not 1..k")
    if not _close(u, u_ref, rtol):
        problems.append("expected utilities differ from the reference")
    if not _close(probs, p_ref, rtol):
        worst = int(np.argmax(np.abs(np.asarray(probs) - p_ref) / p_ref))
        problems.append(f"probability of n={worst + 1} is {float(probs[worst])!r}, "
                        f"reference {float(p_ref[worst])!r}")
    return problems


def _distribution(spec, text, files) -> list[str]:
    fmt = spec["format"]
    if fmt == "json":
        doc = json.loads(text)
        rows = doc["rows"]
        n = [r["n"] for r in rows]
        u = [float(r["u"]) for r in rows]
        p = [float(r["prob"]) for r in rows]
        return _check_rows(spec, files, n, u, p, doc["meta"]["n_trunc"], _RTOL)
    if fmt == "csv":
        meta, header, rows = _csv(text)
        if header != ["n", "U_n", "prob"]:
            return [f"csv header {header}"]
        data = _csv_floats(rows)
        return _check_rows(spec, files, data[:, 0], data[:, 1], data[:, 2],
                           int(meta["n_trunc"]), _RTOL)
    lines = text.splitlines()
    if lines[0].split() != ["n", "U_n", "prob"]:
        return [f"table header {lines[0]!r}"]
    body = [line.split() for line in lines[2:] if not line.startswith("...")]
    more = [line for line in lines[2:] if line.startswith("...")]
    n_trunc = len(body) + (int(more[0].split()[1].lstrip("(")) if more else 0)
    data = np.array(body, dtype=float)
    return _check_rows(spec, files, data[:, 0], data[:, 1], data[:, 2], n_trunc, _TABLE_RTOL)


def _optimal(spec, text, files) -> list[str]:
    doc = json.loads(text)
    beta = spec["beta"]
    problems = []
    if "game" in spec:
        u, probs = _family_probs(spec, files, beta)
        prior = {"kind": "luce"}
    else:
        prior = spec["prior"]
        lw = _coin_log_weights(prior, beta)
        u = np.arange(1, len(lw) + 1, dtype=float)
        probs = np.exp(lw - _logsumexp(lw))
    n_opt = int(np.argmax(probs)) + 1
    if doc["n_opt"] != n_opt:
        problems.append(f"n_opt {doc['n_opt']}, reference {n_opt}")
    elif not (_close(doc["prob_opt"], probs[n_opt - 1], _RTOL)
              and _close(doc["u_opt"], u[n_opt - 1], _RTOL)):
        problems.append("prob_opt or u_opt differ from the reference")
    x_star = continuous_optimum(prior, beta)
    if not _close(doc["continuous_optimum"], x_star, _RTOL):
        problems.append(f"continuous optimum {doc['continuous_optimum']}, reference {x_star!r}")
    if "game" in spec:
        bracket = [None, None]
    else:
        low = max(1, math.floor(x_star))
        bracket = [low, max(low, math.floor(x_star) + 1)]
    if [doc["bracket_low"], doc["bracket_high"]] != bracket:
        problems.append(f"bracket {[doc['bracket_low'], doc['bracket_high']]}, reference {bracket}")
    return problems


def _calibrate(spec, text, files) -> list[str]:
    doc = json.loads(text)
    b = float(doc["abs_beta"])
    if "prior" not in spec and "game" not in spec:
        if doc["route"] != "closed":
            return [f"route {doc['route']!r} for the coin-toss luce family"]
        root = closed_root()
        if abs(root - CLOSED_ROOT) > 1e-10 or abs(b - root) > 1e-10:
            return [f"closed root {b!r}, reference {root!r}"]
        return []
    if doc["route"] != "general":
        return [f"route {doc['route']!r}, expected general"]
    gap = abs(b - _sigma_at(spec, files, b))
    return [] if gap <= _SIGMA_TOL else [f"|b - sigma(-b)| = {gap:.3g} at b = {b!r}"]


def _roulette(spec, text, files) -> list[str]:
    _, header, rows = _csv(text)
    if header != ["stage", "u_stop", "u_continue", "p_stop", "p_continue"]:
        return [f"csv header {header}"]
    data = _csv_floats(rows)
    n = np.arange(1, spec["stages"] + 1, dtype=float)
    u_stop = 1.0 - (2.0 * (1.0 - DOUBLE_ZERO_WIN_PROB)) ** n
    u_cont = 1.0 - (2.0 * (1.0 - DOUBLE_ZERO_WIN_PROB)) ** (n + 1)
    lw_stop = -np.log(-u_stop) + spec["beta"] * u_stop
    lw_cont = -np.log(-u_cont) + spec["beta"] * u_cont
    p_stop = 1.0 / (1.0 + np.exp(lw_cont - lw_stop))
    ref = np.column_stack([n, u_stop, u_cont, p_stop, 1.0 - p_stop])
    return [] if _close(data, ref, _RTOL) else ["stage table differs from the closed forms"]


def _repeated(spec, text, files) -> list[str]:
    doc = json.loads(text)
    result = doc["result"]
    beta = spec.get("beta")
    problems = []
    if beta is None:
        calib = doc.get("calibration", {})
        beta = -float(calib.get("abs_beta", "nan"))
        if not abs(float(calib.get("residual", "nan"))) <= _SIGMA_TOL:
            problems.append(f"calibration residual {calib.get('residual')!r}")
    if not _close(result["beta"], beta, _RTOL):
        problems.append(f"beta {result['beta']}, expected {beta!r}")
    if not _close(result["u_opt"], 1.0 / abs(beta), _RTOL):
        problems.append(f"u_opt {result['u_opt']}, reference {1.0 / abs(beta)!r}")
    n_cont = 2.0 ** (1.0 / abs(beta) - 1.0)
    if not _close(result["n_opt_continuous"], n_cont, _RTOL):
        problems.append(f"n_opt_continuous {result['n_opt_continuous']}, reference {n_cont!r}")
    if result["n_opt"] not in {max(1, math.floor(n_cont)), math.floor(n_cont) + 1}:
        problems.append(f"n_opt {result['n_opt']} is not a neighbour of {n_cont!r}")
    meta = doc["posterior_meta"]
    big_n = np.arange(1, meta["n_trunc"] + 1, dtype=float)
    u = 1.0 + np.log2(big_n)
    lw = np.log(u) + beta * u
    ref = np.exp(lw - _logsumexp(lw))
    rows = doc["rows"]
    k = len(rows)
    if [r["n"] for r in rows] != list(range(1, k + 1)):
        problems.append("run lengths are not 1..k")
    elif not (_close([r["u"] for r in rows], u[:k], _RTOL)
              and _close([r["prob"] for r in rows], ref[:k], _RTOL)):
        problems.append("run-length probabilities differ from the reference")
    if beta >= -math.log(2.0) and meta["tail_bound"] != "inf":
        problems.append(f"tail bound {meta['tail_bound']!r} where the series diverges")
    return problems


def _simulate(spec, text, files) -> list[str]:
    if spec["target"] == "martingale":
        return _martingale(spec, json.loads(text))
    _, header, rows = _csv(text)
    col = {name: i for i, name in enumerate(header)}
    problems = []
    if [int(r[col["n_games"]]) for r in rows] != spec["n_games"]:
        return [f"n_games column differs from {spec['n_games']}"]
    for r in rows:
        n = int(r[col["n_games"]])
        mean, median = float(r[col["per_game_mean"]]), float(r[col["per_game_median_of_means"]])
        if int(r[col["replications"]]) != spec["replications"] or int(r[col["seed"]]) != spec["sim_seed"]:
            problems.append(f"n_games={n}: replications or seed not echoed")
        if int(r[col["capped_tosses"]]) < 0 or float(r[col["stderr_proxy"]]) < 0.0:
            problems.append(f"n_games={n}: negative count or stderr")
        # Every game pays at least 2; the median per-game mean grows as
        # log2(n) plus a constant near 2.5 (measured 2.4-2.6 for n = 8..8192).
        if not (mean >= 2.0 and math.log2(n) + 1.5 <= median <= math.log2(n) + 3.5):
            problems.append(f"n_games={n}: mean {mean}, median {median} off the growth law")
    return problems


def _martingale(spec, doc) -> list[str]:
    reps, stages = spec["replications"], spec["stages"]
    means, stderrs = doc["stage_means"], doc["stage_stderrs"]
    if len(means) != stages or doc["replications"] != reps or doc["seed"] != spec["sim_seed"]:
        return ["stage count, replications or seed not echoed"]
    p, x0 = DOUBLE_ZERO_WIN_PROB, 1.0
    problems = []
    for k, (mean, stderr) in enumerate(zip(means, stderrs), 1):
        scale = 2.0 ** k
        expected = (1.0 - (2.0 * (1.0 - p)) ** k) * x0
        lose_all = (1.0 - p) ** k
        sigma = x0 * scale * math.sqrt(lose_all * (1.0 - lose_all) / reps)
        q_obs = (mean / x0 + scale - 1.0) / scale
        if not _close(stderr, x0 * scale * math.sqrt(max(q_obs * (1.0 - q_obs), 0.0) / reps), 1e-6):
            problems.append(f"stage {k}: stderr {stderr} inconsistent with its mean")
        if abs(mean - expected) <= 6.0 * sigma:
            continue
        # Few all-loss runs are expected at deep stages, where the normal
        # approximation fails; test the observed count exactly instead, at
        # the two-sided level of 6 standard errors.
        losers = round(reps * (1.0 - q_obs))
        if _binomial_two_sided(losers, reps, lose_all) < 2e-9:
            problems.append(f"stage {k}: mean {mean}, reference {expected:.6g} +- {sigma:.3g}")
    return problems


_CHECKS = {
    "distribution": _distribution,
    "optimal": _optimal,
    "calibrate": _calibrate,
    "roulette": _roulette,
    "repeated": _repeated,
    "simulate": _simulate,
}
