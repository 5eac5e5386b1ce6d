"""Checks of each operation's output against the references in refs.py.

A check takes the phaselab module, an operation's inputs and its output, and
returns a list of failure messages (empty when the output is right).  Checks
run after the timed phase, so they add nothing to any metric.  Where an output
is a Monte Carlo estimate, the check allows a stated number of standard
deviations; README.md lists every tolerance and why it is what it is.
"""

from __future__ import annotations

import numpy as np

import refs

EXACT_TOL = 1e-9  # absolute, on advantages of order 1e-2 .. 1
# Relative, on operator norms: a dense solve (dimension up to POWER_DIM) agrees
# to rounding; power iteration above it reads up to 4e-9 low (see README.md).
POWER_DIM = 512
NORM_RTOL = {"dense": 1e-12, "power": 1e-7}
TRUNCATED_RTOL = 0.3  # relative, between two Monte Carlo truncated relaxations
SIGMAS = 5.0  # Monte Carlo allowance for one estimate
SUITE = {
    "matrix-rademacher",
    "matrix-hoeffding",
    "complex-hoeffding",
    "width-tail",
    "advantage-tail-fixed-f",
    "advantage-tail-max-f",
}


def _close(errors, what, got, want, rtol=0.0, atol=EXACT_TOL):
    if not abs(got - want) <= atol + rtol * abs(want):
        errors.append(f"{what}: got {got!r}, reference {want!r}")


def _signs(f, m):
    f = np.asarray(f, dtype=np.float64)
    return f.shape == (m,) and bool(np.all(np.abs(f) == 1.0))


def _climb_starts(x, m):
    g = np.random.default_rng([x["stream"], 7])
    return [np.ones(m)] + [1.0 - 2.0 * g.integers(0, 2, m) for _ in range(3)]


def _maximizer(errors, x, out, Q, exact):
    """The returned f attains the value, no flip improves it, and no reference climb beats it."""
    value, f = out["value"], np.asarray(out["f"], dtype=np.float64)
    flips = refs.flip_values(Q, f)
    if flips.max() > value + EXACT_TOL:
        errors.append(f"flipping sign {int(np.argmax(flips))} improves {value!r} to {flips.max()!r}")
    if exact:
        for start in _climb_starts(x, f.size):
            climbed, _ = refs.hill_climb(Q, start)
            if climbed > value + EXACT_TOL:
                errors.append(f"a reference hill climb reaches {climbed!r} above the exact {value!r}")
                break


def check_game(pl, x, out):
    V, Pi, R = x["V"], x["Pi"], x["R"]
    if not _signs(out["f"], V.shape[0]):
        return ["f is not a +-1 vector of length M"]
    errors = []
    gap = refs.signed_gap(V, Pi, R, np.asarray(out["f"], dtype=np.float64))
    _close(errors, "advantage at the returned f", out["value"], abs(gap))
    _maximizer(errors, x, out, refs.gap_kernel(V, Pi, R), exact=x["restarts"] is None)
    relax = refs.herm_norm(refs.relaxation_matrix(V, Pi, R))
    if out["value"] > relax + EXACT_TOL:
        errors.append(f"advantage {out['value']!r} exceeds the spectral relaxation {relax!r}")
    # A trial is won with probability (1 + gap) / 2.
    w = min(max((1.0 + gap) / 2.0, 1e-12), 1.0 - 1e-12)
    sigma = 2.0 * np.sqrt(w * (1.0 - w) / x["trials"])
    if abs(2.0 * out["win"] - 1.0 - gap) > SIGMAS * sigma:
        errors.append(f"2 win - 1 = {2 * out['win'] - 1!r} is not within {SIGMAS} sigma of the gap {gap!r}")
    return errors


def check_decoupled(pl, x, out):
    V, Pi, R, Rp = x["V"], x["Pi"], x["R"], x["Rp"]
    if not _signs(out["f"], V.shape[0]):
        return ["f is not a +-1 vector of length M"]
    errors = []
    f = np.asarray(out["f"], dtype=np.float64)
    _close(errors, "decoupled advantage at the returned f", out["value"], refs.decoupled_value(V, Pi, R, Rp, f))
    _maximizer(errors, x, out, refs.decoupled_kernel(V, Pi, R, Rp), exact=True)
    relax = refs.op_norm(refs.decoupled_matrix(V, Pi, R, Rp))
    if out["value"] > relax + EXACT_TOL:
        errors.append(f"decoupled advantage {out['value']!r} exceeds its relaxation {relax!r}")
    return errors


def check_conjecture(pl, x, out):
    terms = refs.subset_terms(x["projectors"], x["states"])
    masks, norms = refs.all_subset_norms(terms)
    errors = []
    _close(errors, "best subset norm", out["value"], float(norms.max()), rtol=1e-9)
    witness = tuple(out["witness"])
    L = len(x["projectors"])
    if not witness or list(witness) != sorted(set(witness)) or not all(0 <= i < L for i in witness):
        return errors + [f"witness {witness!r} is not a sorted nonempty subset of range({L})"]
    mask = sum(1 << i for i in witness)
    _close(errors, "norm of the witness subset", out["value"], float(norms[mask - 1]), rtol=1e-9)
    return errors


def check_relax(pl, x, out):
    V, Pi, R, Rp = x["V"], x["Pi"], x["R"], x["Rp"]
    errors = []
    rtol = NORM_RTOL["dense" if V.shape[0] <= POWER_DIM else "power"]
    _close(errors, "spectral relaxation", out["spectral"], refs.herm_norm(refs.relaxation_matrix(V, Pi, R)), rtol=rtol, atol=0.0)
    _close(errors, "decoupled relaxation", out["decoupled"], refs.op_norm(refs.decoupled_matrix(V, Pi, R, Rp)), rtol=rtol, atol=0.0)
    if x["B"] is not None:
        value, stderr = out["truncated"]
        g = np.random.default_rng([x["stream"], 2])
        H = 1.0 - 2.0 * g.integers(0, 2, size=(x["samples"], V.shape[1]))
        want = refs.herm_norm(refs.truncated_matrix(V, Pi, R, x["B"], H))
        _close(errors, "truncated relaxation", value, want, rtol=TRUNCATED_RTOL, atol=0.0)
        if not (np.isfinite(stderr) and stderr > 0.0):
            errors.append(f"truncated relaxation standard error {stderr!r} is not positive")
    return errors


def check_attack(pl, x, out):
    rep, n, K, draws, trials = out["report"], x["n"], x["K"], x["draws"], x["trials"]
    N = 1 << n
    errors = []
    if rep.trials != trials:
        errors.append(f"report holds {rep.trials} trials, asked for {trials}")
    # The program's exact advantage and game encoding on families of the benchmark's own.
    g = np.random.default_rng([x["stream"], 1])
    families = [1.0 - 2.0 * g.integers(0, 2, size=(K, N)) for _ in range(draws)]
    tv = np.array([refs.hadamard_tv(R) for R in families])
    for R, want in zip(families[:8], tv):
        _close(errors, "exact advantage of one family", pl.hadamard_attack_exact_advantage(R), want)
    adv, f = pl.hadamard_game_encoding(families[0])
    _close(errors, "signed gap of the game encoding", refs.signed_gap(adv.V, adv.Pi, families[0], f), tv[0])
    # The report's means over its own draws against the reference distribution.
    sd = float(tv.std(ddof=1))
    if abs(rep.exact_advantage - tv.mean()) > 6.0 * sd * np.sqrt(2.0 / draws):
        errors.append(f"mean exact advantage {rep.exact_advantage!r} is off the reference mean {tv.mean()!r}")
    if abs(rep.monte_carlo_advantage - tv.mean()) > 6.0 * sd + SIGMAS / np.sqrt(trials):
        errors.append(f"Monte Carlo advantage {rep.monte_carlo_advantage!r} is off the reference mean {tv.mean()!r}")
    var_x = refs.x_statistic_variance(N, K)
    if abs(rep.x_statistic_mean - 1.0) > 6.0 * np.sqrt(var_x / draws):
        errors.append(f"mean X statistic {rep.x_statistic_mean!r} is off its expectation 1")
    if not 0.4 * var_x <= rep.x_statistic_variance <= 2.5 * var_x:
        errors.append(f"X statistic variance {rep.x_statistic_variance!r} is off its expectation {var_x!r}")
    return errors


def _tail(errors, rep, bounds):
    if not rep.passed:
        errors.append(f"{rep.bound_name} report did not pass")
    for t, p, b in zip(rep.thresholds, rep.empirical, bounds):
        if p > b + refs.binomial_slack(min(b, 1.0), rep.samples) + 1e-12:
            errors.append(f"{rep.bound_name}: frequency {p!r} at {t!r} exceeds the bound {b!r}")


def check_suite(pl, x, out):
    reports, errors = out["reports"], []
    names = {r.bound_name for r in reports}
    if names != SUITE:
        errors.append(f"suite holds {sorted(names)}, expected {sorted(SUITE)}")
    for rep in reports:
        _tail(errors, rep, rep.bounds)
    return errors


def check_width(pl, x, out):
    rep, errors = out["report"], []
    if rep.samples != x["samples"]:
        errors.append(f"report holds {rep.samples} samples, asked for {x['samples']}")
    bounds = refs.width_tail_bounds(x["V"].shape[0], x["K"], rep.thresholds)
    for got, want in zip(rep.bounds, bounds):
        _close(errors, "width tail bound", got, want, rtol=1e-12, atol=0.0)
    _tail(errors, rep, bounds)
    return errors


def check_compress(pl, x, out):
    V, L = x["V"], x["L"]
    S, D = V.shape[0] // L, V.shape[1]
    errors = []
    if not out["deviation"] <= 1e-8:
        errors.append(f"simulation deviation {out['deviation']!r} exceeds 1e-8")
    W = refs.compressed_isometry(V, L)
    _close(errors, "max |W^H W - I|", float(np.abs(W.conj().T @ W - np.eye(D)).max()), 0.0)
    _close(errors, "max |compress_isometry - reference|", float(np.abs(pl.compress_isometry(V, L, S) - W).max()), 0.0, atol=1e-8)
    g = np.random.default_rng([x["stream"], 3])
    for _ in range(2):
        f = 1.0 - 2.0 * g.integers(0, 2, L)
        lhs = W.conj().T @ (np.repeat(f, D)[:, None] * W)
        rhs = V.conj().T @ (np.repeat(f, S)[:, None] * V)
        _close(errors, "max |W^H O_f W - V^H O_f V|", float(np.abs(lhs - rhs).max()), 0.0, atol=1e-8)
    return errors


CHECKS = {
    "game": check_game,
    "decoupled": check_decoupled,
    "conjecture": check_conjecture,
    "relax": check_relax,
    "attack": check_attack,
    "suite": check_suite,
    "width": check_width,
    "compress": check_compress,
}
