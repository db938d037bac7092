"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass. Each test pins its tolerances and seeds; everything is
deterministic. Expected total runtime is a few minutes, dominated by the
Monte-Carlo precision studies.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar
from scipy.special import logsumexp
from scipy.stats import binom, chi2, spearmanr

from citefit.comparison import lrt_test, vuong_test
from citefit.dataset import CountDataset, truncate
from citefit.fitting import fit_hooked, fit_lognormal, fit_power_law, neg_log_likelihood
from citefit.kernels import (
    ALPHA_MAX,
    ALPHA_MIN,
    B_MAX,
    B_MIN,
    NORMALIZATION_TERMS,
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    PowerLawParams,
    normalization_constant,
)
from citefit.simulation import (
    AttachmentParams,
    attachment_count_pmf,
    attachment_to_hooked,
    ci_width_study,
    hooked_to_attachment,
    ll_contour,
    lognormal_ci_study,
    replicate_seed,
    ridge_demo,
    slope_tolerance_threshold,
)

_t0 = {}


def _begin(num):
    _t0[num] = time.time()


def report(num, name, checks: dict):
    elapsed = time.time() - _t0.get(num, time.time())
    verdict = "PASS" if all(checks.values()) else "FAIL"
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    print(f"[criterion {num:2d}] {name}: {verdict} ({detail}) [{elapsed:.1f}s]")
    for key, ok in checks.items():
        assert ok, f"criterion {num} failed: {key}"


def sample_view(params, n, seed, x_min=1):
    dist = DiscreteDistribution(params, x_min)
    values = dist.sample(n, seed)
    return truncate(CountDataset(tuple(int(v) for v in values)), x_min)


def test_criterion_1_zeta_identity():
    _begin(1)
    constant = normalization_constant(PowerLawParams(2.0), 1)
    report(1, "zeta identity", {"|Z - pi^2/6| < 1e-3": abs(constant - math.pi**2 / 6) < 1e-3})


def test_criterion_2_nesting():
    _begin(2)
    generators = [
        PowerLawParams(1.6),
        PowerLawParams(2.0),
        PowerLawParams(2.5),
        PowerLawParams(3.5),
        HookedPowerLawParams(2.0, 10.0),
        HookedPowerLawParams(3.0, 2.0),
        HookedPowerLawParams(3.9, 42.7),
        HookedPowerLawParams(6.0, 30.0),
        DiscreteLognormalParams(2.0, 1.0),
        DiscreteLognormalParams(0.5, 1.3),
    ]
    nesting_ok = True
    lrt_nonnegative = True
    for i in range(50):
        gen = DiscreteDistribution(generators[i % len(generators)], 1)
        values = gen.sample(1000, replicate_seed(42, 200 + i))
        view = truncate(CountDataset(tuple(int(v) for v in values)), 1)
        pl = fit_power_law(view)
        hooked = fit_hooked(view)
        nesting_ok &= hooked.neg_log_likelihood <= pl.neg_log_likelihood + 1e-6
        lrt_nonnegative &= lrt_test(pl, hooked).statistic >= 0.0
    report(
        2,
        "hooked nests the power law on 50 mixed datasets",
        {"hooked -LL <= pl -LL + 1e-6": nesting_ok, "LRT >= 0": lrt_nonnegative},
    )


def test_criterion_3_slope_threshold():
    _begin(3)
    exact = slope_tolerance_threshold(0.1, 55.0) == 495.0
    rng = np.random.default_rng(3301)
    identity = True
    for _ in range(20):
        T = float(rng.uniform(0.02, 0.98))
        B = float(rng.uniform(0.1, 500.0))
        x = slope_tolerance_threshold(T, B)
        # log-log slope of the hooked curve at x is -alpha * x/(B + x)
        identity &= abs(x / (B + x) - (1.0 - T)) < 1e-12
    report(
        3,
        "slope-tolerance threshold",
        {"threshold(0.1, 55) == 495 exactly": exact, "derivative identity to 1e-12": identity},
    )


def test_criterion_4_attachment_mapping():
    _begin(4)
    h = attachment_to_hooked(AttachmentParams(0.5, 1.0))
    direct = (h.alpha, h.B) == (3.0, 2.0)
    rng = np.random.default_rng(4401)
    round_trip = True
    for _ in range(100):
        beta = float(rng.uniform(0.05, 0.95))
        m = float(rng.uniform(0.1, 20.0))
        back = hooked_to_attachment(attachment_to_hooked(AttachmentParams(beta, m)))
        round_trip &= abs(back.beta - beta) < 1e-12 and abs(back.m - m) < 1e-12 * max(1.0, m)
    proportional = True
    for beta, m in [(0.5, 1.0), (0.3, 2.0), (0.8, 5.0)]:
        p = AttachmentParams(beta, m)
        hooked = attachment_to_hooked(p)
        k = np.arange(0, 101, dtype=float)
        ratio = attachment_count_pmf(p, k) / (hooked.B + k) ** (-hooked.alpha)
        proportional &= bool(np.all(np.abs(ratio / ratio[0] - 1.0) < 1e-9))
    report(
        4,
        "attachment-process mapping",
        {
            "(beta=0.5, m=1) -> (alpha=3, B=2)": direct,
            "round trip to 1e-12 on 100 pairs": round_trip,
            "count pmf proportional to hooked weight (1e-9, k in [0,100])": proportional,
        },
    )


@pytest.fixture(scope="module")
def hooked_alpha_grid():
    return ci_width_study(
        "hooked", [2.0, 6.0, 10.0], [500, 4000], replicates=100, seed=20240815, B=10.0
    )


def test_criterion_5_hooked_precision_scale(hooked_alpha_grid):
    _begin(5)
    grid = hooked_alpha_grid
    w = np.asarray(grid.widths)
    in_band = 0.06 <= grid.width(2.0, 4000.0) <= 0.24
    alpha_monotone = bool(np.all(w[2, :] > w[0, :]))
    n_monotone = bool(np.all(w[:, 1] < w[:, 0]))
    report(
        5,
        "hooked alpha precision study (reduced grid, R=100)",
        {
            "width(alpha=2, n=4000) in [0.06, 0.24]": in_band,
            "wider at alpha=10 than alpha=2 for each n": alpha_monotone,
            "narrower at n=4000 than n=500 for each alpha": n_monotone,
        },
    )


def test_criterion_6_lognormal_precision_scale(hooked_alpha_grid):
    _begin(6)
    mus, sigmas = [0.2, 0.6, 1.0], [1.2, 1.45, 1.7]
    mu500, sg500 = lognormal_ci_study(mus, sigmas, n=500, replicates=100, seed=20240816)
    mu4000, sg4000 = lognormal_ci_study(mus, sigmas, n=4000, replicates=100, seed=20240816)
    mid = mu4000.width(0.6, 1.45)
    in_band = 0.1 <= mid <= 0.4
    shrink = bool(
        np.all(np.asarray(mu4000.widths) < np.asarray(mu500.widths))
        and np.all(np.asarray(sg4000.widths) < np.asarray(sg500.widths))
    )
    lognormal_mean = float(np.mean([mu500.widths, sg500.widths]))
    hooked_mean = float(np.mean(np.asarray(hooked_alpha_grid.widths)[:, 0]))
    narrower = lognormal_mean < hooked_mean
    report(
        6,
        "lognormal precision study (3x3 grid, R=100)",
        {
            "mu width at n=4000 mid-grid in [0.1, 0.4]": in_band,
            "every cell shrinks from n=500 to n=4000": shrink,
            "lognormal n=500 widths narrower than hooked on average": narrower,
        },
    )


def _profile_hooked_fit(view):
    """Exact hooked MLE by profile likelihood, independent of ``fit_hooked``.

    For fixed ``B`` the negative log-likelihood is convex in ``alpha`` (a
    linear data term plus a log-sum-exp of linear functions), so the inner
    step is a root-find of its monotone derivative. The outer step searches
    ``log(B + 1)`` over ``[B_MIN, B_MAX]``: a 41-point grid, then bounded
    Brent between the grid neighbours of the best point.
    Returns ``(alpha, neg_log_likelihood)``.
    """
    values, counts = view.values.astype(float), view.multiplicities
    n = float(counts.sum())
    window = np.arange(view.x_min, view.x_min + NORMALIZATION_TERMS, dtype=float)

    def alpha_at(b):
        log_window, data = np.log(b + window), float(counts @ np.log(b + values))

        def score(a):
            w = np.exp(-a * (log_window - log_window[0]))
            return data - n * float(w @ log_window) / float(w.sum())

        lo, hi = ALPHA_MIN + 1e-9, ALPHA_MAX
        if score(lo) >= 0.0:
            a = lo
        elif score(hi) <= 0.0:
            a = hi
        else:
            a = brentq(score, lo, hi, xtol=1e-13)
        return a, a * data + n * float(logsumexp(-a * log_window))

    grid = np.linspace(math.log1p(B_MIN + 1e-9), math.log1p(B_MAX), 41)
    k = int(np.argmin([alpha_at(math.expm1(t))[1] for t in grid]))
    best = minimize_scalar(
        lambda t: alpha_at(math.expm1(t))[1],
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    b = math.expm1(best.x)
    a = alpha_at(b)[0]
    return a, neg_log_likelihood(HookedPowerLawParams(a, b), view)


def _hybrid_worse_rate(alpha, B):
    """Asymptotic P(hybrid worse than truth) and the (alpha-hat, B-hat)
    correlation, from the Fisher information of the kernel's own pmf over
    its window at x_min = 1. No fitter is involved."""
    x = np.arange(1, 1 + NORMALIZATION_TERMS, dtype=float)
    pmf = DiscreteDistribution(HookedPowerLawParams(alpha, B), 1).pmf(x)
    scores = np.vstack([np.log(B + x), alpha / (B + x)])  # -d log pmf, up to a constant
    centred = scores - (scores @ pmf)[:, None]
    info = (centred * pmf) @ centred.T
    rho = -info[0, 1] / math.sqrt(info[0, 0] * info[1, 1])
    return 2.0 / math.pi * math.asin(abs(rho)), rho


def test_criterion_7_ridge_and_focal_point():
    """Ridge coupling, hybrid degradation, and the lognormal focal point.

    The fitted alpha means nothing without its B: the two trade off along
    a ridge of the likelihood surface, so pairing alpha-hat with the true B
    (the hybrid point) usually does worse than the truth.

    Let alpha~ be the best alpha with B held at the true B0. On that slice
    the likelihood is quadratic about alpha~, so the hybrid is worse than
    the truth exactly when |alpha-hat - alpha~| > |alpha0 - alpha~|.
    Asymptotically alpha~ - alpha0 and alpha-hat - alpha~ are independent
    normals whose standard deviations are in the ratio
    |rho| / sqrt(1 - rho^2), rho being the correlation of (alpha-hat, B-hat)
    from the Fisher information; so the event has probability
    (2/pi) arcsin|rho|. For hooked(3, 10) at x_min = 1, rho = 0.943 and
    the rate is 0.784 (reaching 90% would need |rho| >= 0.988); 600 fresh
    replicates (seeds 1000-1599) give 0.790 +- 0.017.

    Each of the 100 fits is first certified against an independent
    profile-likelihood solve (NLL within 1e-8, alpha within 1e-5), so the
    count is that of exact maximum likelihood. It must then lie in the
    two-sided binomial band at 0.001 around the model rate, computed here
    from the kernel. The band fails without a ridge (rho -> 0 gives rate
    0), for a fitter that returns alpha~ (count 0), and for one stuck at
    the power law, B-hat ~ 0 (count ~100).
    """
    _begin(7)
    truth = HookedPowerLawParams(3.0, 10.0)
    alphas, bs = [], []
    hybrid_worse = missed = 0
    for r in range(100):
        rep = ridge_demo(truth.alpha, truth.B, n=500, seed=r)
        alphas.append(rep.fitted_alpha)
        bs.append(rep.fitted_B)
        hybrid_worse += rep.neg_ll_hybrid > rep.neg_ll_true
        # the same sample ridge_demo draws and fits
        alpha, nll = _profile_hooked_fit(sample_view(truth, 500, replicate_seed(r, 0)))
        missed += abs(rep.neg_ll_fitted - nll) > 1e-8 or abs(rep.fitted_alpha - alpha) > 1e-5
    rho = float(spearmanr(alphas, bs).statistic)
    rate, rho_model = _hybrid_worse_rate(truth.alpha, truth.B)
    lo, hi = (int(v) for v in binom.interval(0.999, 100, rate))

    mu_axis = [round(1.85 + 0.15 * i, 10) for i in range(7)]  # truth at index 3
    sigma_axis = [round(0.9 + 0.1 * j, 10) for j in range(7)]  # truth at index 3
    focal = 0
    for r in range(100):
        view = sample_view(DiscreteLognormalParams(2.3, 1.2), 500, replicate_seed(900, r))
        i, j = ll_contour(view, "ln", mu_axis, sigma_axis).argmin()
        focal += abs(i - 3) <= 1 and abs(j - 3) <= 1
    report(
        7,
        "compensation ridge vs lognormal focal point",
        {
            "fitted (alpha, B) rank correlation > 0.8": rho > 0.8,
            f"fits at the profile-likelihood optimum 100/100 (missed {missed})": missed == 0,
            f"hybrid worse than truth in {lo}..{hi}/100, the 0.999 binomial band at "
            f"model rate {rate:.3f} from rho {rho_model:.3f} (got {hybrid_worse})":
                lo <= hybrid_worse <= hi,
            f"contour minimum within one cell of truth >= 90/100 (got {focal})": focal >= 90,
        },
    )


def test_criterion_8_model_selection_consistency():
    _begin(8)
    vuong_hits = 0
    for r in range(100):
        view = sample_view(DiscreteLognormalParams(2.0, 1.0), 4000, replicate_seed(901, r))
        z = vuong_test(fit_power_law(view), fit_lognormal(view), view).statistic
        vuong_hits += (z < 0) and (abs(z) >= 1.96)
    lrt_hits = 0
    for r in range(100):
        view = sample_view(HookedPowerLawParams(3.0, 30.0), 2000, replicate_seed(902, r))
        stat = lrt_test(fit_power_law(view), fit_hooked(view)).statistic
        lrt_hits += stat >= 6.635
    report(
        8,
        "model-selection consistency",
        {
            f"Vuong(pl, ln) negative-significant >= 95/100 on lognormal data (got {vuong_hits})":
                vuong_hits >= 95,
            f"LRT >= 6.635 in >= 95/100 on hooked B=30 data (got {lrt_hits})": lrt_hits >= 95,
        },
    )


def test_criterion_9_sampler_fidelity():
    _begin(9)
    checks = {}
    for label, params in (
        ("pl(3)", PowerLawParams(3.0)),
        ("hooked(3, 10)", HookedPowerLawParams(3.0, 10.0)),
        ("lognormal(2, 0.5)", DiscreteLognormalParams(2.0, 0.5)),
    ):
        dist = DiscreteDistribution(params, 1)
        sample = dist.sample(100_000, seed=9901)
        top = 20
        observed = np.array(
            [np.sum(sample == k) for k in range(1, 1 + top)] + [np.sum(sample >= 1 + top)]
        )
        expected = np.append(
            len(sample) * dist.pmf(np.arange(1, 1 + top)),
            len(sample) * dist.ccdf(1 + top),
        )
        stat = float(((observed - expected) ** 2 / expected).sum())
        checks[f"chi-square ok for {label}"] = stat < chi2.ppf(0.999, len(observed) - 1)
    report(9, "sampler goodness of fit at p=0.001", checks)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "citefit.cli", *args], capture_output=True, text=True
    )


def test_criterion_10_determinism(tmp_path):
    _begin(10)
    counts = DiscreteDistribution(HookedPowerLawParams(3.0, 10.0), 1).sample(400, 101)
    data_file = tmp_path / "counts.txt"
    data_file.write_text("\n".join(str(int(v)) for v in counts) + "\n", encoding="utf-8")

    commands = {
        "sample": ("sample", "--dist", "hooked", "--alpha", "3", "--B", "10",
                   "-n", "50", "--seed", "7"),
        "analyze": ("analyze", "--input", str(data_file), "--x-min", "all"),
        "ci-study": ("ci-study", "--kind", "pl", "--alpha-grid", "2.5,3.5",
                     "--n-grid", "200", "--replicates", "10", "--seed", "7"),
    }
    checks = {}
    for name, args in commands.items():
        first, second = run_cli(*args), run_cli(*args)
        identical = (
            first.returncode == 0
            and second.returncode == 0
            and first.stdout == second.stdout
        )
        json.loads(first.stdout)  # data stream must be valid JSON
        checks[f"{name} byte-identical"] = identical
    report(10, "byte-identical outputs for a fixed seed", checks)
