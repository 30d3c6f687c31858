"""Executable smoothness diagnostics.

Nothing here proves smoothness: the underlying conditions (inverse
moments of the covariance determinant, small-ball decay of jump
functionals, pointwise ellipticity of the jump coefficient) are analytic.
The tools give numerical evidence with explicit stability flags, and the
hypothesis report says honestly which items cannot be machine-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import InfiniteMassError, compensator_integral, total_mass
from .sde import Scenario

SMALL_BALL_MIN_HITS = 10     # sub-epsilon samples a small-ball grid point needs
PROBE_BUDGET = 200           # (s, x, u) probes of the hypothesis report


@dataclass
class InverseMomentResult:
    estimate: float
    stable: bool
    verdict: str              # "finite-looking" | "unstable" | "infinite moment"
    n_zero: int = 0


def inverse_moment(samples, p: float) -> InverseMomentResult:
    """Empirical mean of sample^(-p) with a split-sample stability flag.

    Any exact zero forces the verdict "infinite moment".  Otherwise the
    estimate at n is compared with the estimate at n/2; a ratio outside
    [0.9, 1.1] flags the estimate as dominated by extreme values.
    """
    s = np.asarray(samples, dtype=float)
    n_zero = int(np.sum(s == 0))
    if np.any(s < 0):
        raise ValueError("samples must be nonnegative")
    if n_zero:
        return InverseMomentResult(math.inf, False, "infinite moment", n_zero)
    inv = s ** (-p)
    est = float(np.mean(inv))
    half = float(np.mean(inv[: len(inv) // 2]))
    ratio = half / est if est > 0 else 1.0
    stable = 0.9 <= ratio <= 1.1
    return InverseMomentResult(est, stable, "finite-looking" if stable else "unstable")


@dataclass
class SmallBallFit:
    beta: float
    r2: float
    r_squared: float
    eps_grid: np.ndarray
    log_p: np.ndarray
    regime: str = "tauberian"       # or "non-tauberian"
    warnings: list = field(default_factory=list)


def small_ball_fit(samples, eps_grid) -> SmallBallFit:
    """Fit log P(V <= eps) = a + r2 * eps^(-beta) over a candidate range.

    beta is found by golden-section search maximizing the linear-fit R^2,
    since fitting (beta, r2) jointly is ill-conditioned.  Grid points with
    fewer than SMALL_BALL_MIN_HITS sub-eps samples are dropped (with a
    warning).  A fitted decay that is better explained by log P ~ log eps
    (power-law CDF near 0, as for any law with a positive density at 0) is
    flagged non-tauberian.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))
    warnings = []
    hits = np.searchsorted(s, eps_grid, side="right")
    keep = hits >= SMALL_BALL_MIN_HITS
    if not np.all(keep):
        warnings.append(f"dropped {int(np.sum(~keep))} grid points with fewer "
                        f"than {SMALL_BALL_MIN_HITS} sub-epsilon samples")
    eps = eps_grid[keep]
    if len(eps) < 4:
        raise ValueError("not enough usable grid points for a small-ball fit")
    logp = np.log(hits[keep] / len(s))
    # inverse-variance weights: Var(log P-hat) ~ 1 / hits, so the noisy
    # deep-tail points do not dominate the regression
    w = np.sqrt(hits[keep].astype(float))

    def _wls(design):
        sol, *_ = np.linalg.lstsq(design * w[:, None], logp * w, rcond=None)
        pred = design @ sol
        ss_res = float(np.sum((w * (logp - pred)) ** 2))
        center = float(np.average(logp, weights=w ** 2))
        ss_tot = float(np.sum((w * (logp - center)) ** 2))
        return 1.0 - ss_res / ss_tot, sol

    def fit_r2(beta):
        design = np.column_stack([np.ones_like(eps), eps ** (-beta)])
        r2_score, sol = _wls(design)
        return r2_score, float(sol[1])

    lo, hi = 0.1, 4.0
    gr = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = fit_r2(c)[0], fit_r2(d)[0]
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = fit_r2(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = fit_r2(d)[0]
    beta = 0.5 * (a + b)
    r2_score, slope = fit_r2(beta)

    # competing explanation: CDF ~ eps near 0, i.e. log P linear in log eps
    r2_log, _ = _wls(np.column_stack([np.ones_like(eps), np.log(eps)]))
    regime = "tauberian"
    if beta <= 0.15 or r2_log > r2_score:
        regime = "non-tauberian"
    return SmallBallFit(beta=float(beta), r2=float(slope), r_squared=r2_score,
                        eps_grid=eps, log_p=logp, regime=regime, warnings=warnings)


@dataclass
class EllipticityReport:
    min_ratio: float
    argmin: tuple
    margin: float
    passed: bool


def ellipticity_scan(scenario: Scenario, probes) -> EllipticityReport:
    """Minimum of eig_min(jump matrix) / (psi(u) / (1 + |x|)^delta) over probes.

    psi and delta come from the scenario's metadata; pass means the
    declared lower bound holds (ratio >= 1 up to roundoff) at every probe.
    """
    psi = scenario.meta.get("psi")
    delta = scenario.meta.get("psi_delta", 0.0)
    if psi is None:
        raise ValueError("scenario declares no ellipticity lower bound")
    best = math.inf
    arg = None
    for (s, x, u) in probes:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bound = psi(u) / (1.0 + float(np.linalg.norm(x))) ** delta
        if bound <= 0:
            raise ValueError(f"nonpositive ellipticity bound at probe {(s, tuple(x), u)}")
        lam = float(np.linalg.eigvalsh(scenario.bottom.jump_matrices(s, x, u))[0])
        ratio = lam / bound
        if ratio < best:
            best, arg = ratio, (s, tuple(x), u)
    return EllipticityReport(min_ratio=best, argmin=arg,
                             margin=best - 1.0, passed=best >= 1.0 - 1e-9)


@dataclass
class CheckItem:
    name: str
    status: str               # "pass" | "fail" | "not-checkable (analytic)"
    detail: str = ""


@dataclass
class HypothesisReport:
    items: list

    @property
    def hard_failures(self):
        return [i for i in self.items if i.status == "fail"]

    def passed(self) -> bool:
        return not self.hard_failures

    def to_dict(self):
        return {"items": [vars(i) for i in self.items],
                "passed": self.passed()}


def hypothesis_report(scenario: Scenario) -> HypothesisReport:
    """Sampled checks of the model's standing assumptions.

    PROBE_BUDGET probes (s, x, u) are drawn uniformly, from a generator of
    fixed seed 0, over the horizon, a state box around x0, and the mark
    support.  Items whose true content is an L^p bound over the auxiliary
    space are reported not-checkable.
    """
    items = []
    rng = np.random.default_rng(0)
    spec = scenario.measure
    d = scenario.dim
    ss = rng.uniform(0, scenario.horizon, PROBE_BUDGET)
    xs = scenario.x0 + rng.uniform(-2, 2, (PROBE_BUDGET, d))
    us = rng.uniform(spec.trunc, spec.ymax, PROBE_BUDGET)

    try:
        items.append(CheckItem("truncated measure has finite mass", "pass",
                               f"mass = {total_mass(spec):.6g}"))
    except (InfiniteMassError, OverflowError) as e:
        items.append(CheckItem("truncated measure has finite mass", "fail", str(e)))

    if hasattr(scenario.bottom, "c_u"):
        # every probe at once, on the coefficients' lane axis; an overflow
        # shows as a value that is not finite, and fails the items below
        with np.errstate(all="ignore"):
            jac = np.eye(d) + np.broadcast_to(
                np.asarray(scenario.dx_c(ss, xs, us), dtype=float), (PROBE_BUDGET, d, d))
            dets = np.abs(np.linalg.det(jac))
            worst_jet = float(np.max(np.abs(np.asarray(scenario.c(ss, xs, us), dtype=float))))
        i = int(np.argmin(dets))
        worst_probe = (float(ss[i]), tuple(xs[i].tolist()), float(us[i]))
        ok = dets[i] > 1e-6
        items.append(CheckItem(
            "state-Jacobian invertibility (I + D_x c nonsingular)",
            "pass" if ok else "fail",
            f"min |det| over probes = {dets[i]:.3e} at {worst_probe}"
            + ("" if ok else "; jump-coefficient invertibility hypothesis violated")))
        bounded = math.isfinite(worst_jet) and math.isfinite(dets[i])
        items.append(CheckItem(
            "coefficient boundedness over probe box", "pass" if bounded else "fail",
            f"max |c| = {worst_jet:.3g}"
            + ("" if bounded else f", min |det| = {dets[i]:.3g}; a coefficient is not "
               "finite over the probe box")))
    else:
        items.append(CheckItem("state-Jacobian invertibility (I + D_x c nonsingular)",
                               "pass", "jump coefficient resolved through nested "
                               "simulation; Jacobian given by the nested flow"))

    if scenario.compensated:
        try:
            compensator_integral(spec, lambda u: np.atleast_1d(
                scenario.c(0.0, scenario.x0, u)), scenario.horizon)
            items.append(CheckItem("jump coefficient integrable against the measure",
                                   "pass", "quadrature converged"))
        except Exception as e:         # noqa: BLE001 - reported, not raised
            items.append(CheckItem("jump coefficient integrable against the measure",
                                   "fail", str(e)))
    else:
        items.append(CheckItem("jump coefficient integrable against the measure",
                               "pass", "uncompensated equation with finite activity"))

    items.append(CheckItem("moment bounds of coefficients over the auxiliary space",
                           "not-checkable (analytic)",
                           "requires L^p control over the nested randomness"))
    items.append(CheckItem("smoothness of coefficients in (x, u)",
                           "not-checkable (analytic)",
                           "checked only at finitely many probes"))
    return HypothesisReport(items=items)
