"""Analytic layer for jump intensity measures.

Supports a small set of one-dimensional measure families on the positive
half line: power-law densities y^(-1-eps), uniform densities on an
interval, and user-tabulated densities.  A lower truncation cutoff turns
infinite-activity measures into finite ones; everything downstream
(Poisson counts, mark sampling, compensators) works on the truncated
measure.

Also hosts the Laplace-exponent / Tauberian machinery used by the
small-ball smoothness diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .rng import RngStream

QUAD_ABS_TOL = 1e-9

POWER = "power"
UNIFORM = "uniform"
TABULATED = "tabulated"


class InfiniteMassError(ValueError):
    """Raised when the truncated measure has infinite total mass."""


class NonIntegrableError(ValueError):
    """Raised when an integrand is not integrable against the measure."""


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Analytic description of a jump measure on an interval of (0, inf).

    family   one of POWER, UNIFORM, TABULATED
    params   POWER: {"eps": exponent in density y^(-1-eps), "ymax": upper bound}
             UNIFORM: {"lo": a, "hi": b, "level": density value}
             TABULATED: {"density": callable, "lo": a, "hi": b}
    trunc    lower cutoff; marks below it are dropped from the model
    """

    family: str
    params: dict = field(default_factory=dict)
    trunc: float = 0.0

    def __post_init__(self):
        if self.family not in (POWER, UNIFORM, TABULATED):
            raise ValueError(f"unknown measure family {self.family!r}")
        if self.trunc < 0:
            raise ValueError("truncation cutoff must be >= 0")

    # effective support after truncation
    @property
    def lower(self) -> float:
        if self.family == POWER:
            return max(self.trunc, 0.0)
        return max(self.trunc, self.params["lo"])

    @property
    def upper(self) -> float:
        if self.family == POWER:
            return self.params["ymax"]
        return self.params["hi"]

    def density(self, y):
        """Density of the untruncated measure at y (vectorised)."""
        y = np.asarray(y, dtype=float)
        if self.family == POWER:
            eps = self.params["eps"]
            return np.where((y > 0) & (y <= self.upper), y ** (-1.0 - eps), 0.0)
        if self.family == UNIFORM:
            level = self.params.get("level", 1.0)
            return np.where((y >= self.params["lo"]) & (y <= self.params["hi"]), level, 0.0)
        return np.asarray(self.params["density"](y), dtype=float)

    def to_json(self) -> dict:
        if self.family == TABULATED:
            raise ValueError("tabulated measures are not serialisable")
        return {"family": self.family, "params": dict(self.params), "trunc": self.trunc}

    @staticmethod
    def from_json(obj: dict) -> "LevyMeasureSpec":
        return LevyMeasureSpec(obj["family"], dict(obj["params"]), obj.get("trunc", 0.0))


def power_law(eps: float, ymax: float = 1.0, trunc: float = 0.0) -> LevyMeasureSpec:
    return LevyMeasureSpec(POWER, {"eps": eps, "ymax": ymax}, trunc)


def uniform_measure(lo: float, hi: float, level: float = 1.0, trunc: float = 0.0) -> LevyMeasureSpec:
    return LevyMeasureSpec(UNIFORM, {"lo": lo, "hi": hi, "level": level}, trunc)


def total_mass(spec: LevyMeasureSpec) -> float:
    """Mass of the measure restricted above the truncation cutoff."""
    lo, hi = spec.lower, spec.upper
    if lo >= hi:
        return 0.0
    if spec.family == POWER:
        eps = spec.params["eps"]
        if lo <= 0.0:
            if eps >= 0:
                raise InfiniteMassError(
                    "power-law family with exponent >= 0 has infinite mass without truncation"
                )
            return (hi ** (-eps) - 0.0) / (-eps)
        if eps == 0:
            return math.log(hi / lo)
        return (lo ** (-eps) - hi ** (-eps)) / eps
    if spec.family == UNIFORM:
        return spec.params.get("level", 1.0) * (hi - lo)
    val, _ = quad(spec.density, lo, hi, epsabs=QUAD_ABS_TOL, limit=200)
    return val


def mark_cdf(spec: LevyMeasureSpec, y) -> np.ndarray:
    """CDF of the normalised truncated measure, for sampling and KS tests."""
    mass = total_mass(spec)
    if mass <= 0:
        raise ValueError("zero-mass measure has no mark distribution")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = spec.lower, spec.upper
    yc = np.clip(y, lo, hi)
    if spec.family == POWER:
        eps = spec.params["eps"]
        if eps == 0:
            part = np.log(yc / lo)
        else:
            part = (lo ** (-eps) - yc ** (-eps)) / eps
    elif spec.family == UNIFORM:
        part = spec.params.get("level", 1.0) * (yc - lo)
    else:
        part = np.array(
            [quad(spec.density, lo, v, epsabs=QUAD_ABS_TOL, limit=200)[0] for v in yc]
        )
    return part / mass


def sample_mark(spec: LevyMeasureSpec, stream: RngStream, size: int = 1) -> np.ndarray:
    """Draw marks from the normalised truncated measure (inverse CDF)."""
    mass = total_mass(spec)
    if mass <= 0:
        raise ValueError("cannot sample from a zero-mass measure")
    return mark_quantile(spec, stream.generator().random(size))


def mark_quantile(spec: LevyMeasureSpec, v: np.ndarray) -> np.ndarray:
    """Inverse CDF of the normalised truncated measure at uniforms v."""
    lo, hi = spec.lower, spec.upper
    if spec.family == POWER:
        eps = spec.params["eps"]
        if eps == 0:
            return lo * np.exp(v * math.log(hi / lo))
        return (lo ** (-eps) - v * (lo ** (-eps) - hi ** (-eps))) ** (-1.0 / eps)
    if spec.family == UNIFORM:
        return lo + v * (hi - lo)
    # tabulated: numerical inverse on a fixed grid
    grid = np.linspace(lo, hi, 2049)
    cdf = mark_cdf(spec, grid)
    return np.interp(v, cdf, grid)


def compensator_integral(spec: LevyMeasureSpec, f, t: float) -> np.ndarray:
    """t * integral of f against the truncated measure.

    f maps a mark to a scalar or a vector; integration is per component.
    """
    lo, hi = spec.lower, spec.upper
    if lo >= hi:
        out = np.zeros(np.atleast_1d(np.asarray(f(hi), dtype=float)).shape)
    else:
        probe = np.atleast_1d(np.asarray(f(0.5 * (lo + hi)), dtype=float))
        out = np.empty(probe.shape)
        for i in range(probe.size):
            def integrand(y, i=i):
                return np.atleast_1d(np.asarray(f(y), dtype=float))[i] * float(spec.density(y))

            val, err = quad(integrand, lo, hi, epsabs=QUAD_ABS_TOL, limit=400,
                            points=[lo + 1e-12 * (hi - lo)])
            if not math.isfinite(val) or err > max(1e-6, 1e-6 * abs(val)):
                raise NonIntegrableError(f"component {i} does not integrate against the measure")
            out[i] = val
    res = t * out
    return res if res.size > 1 else float(res[0])


def laplace_exponent(lam: float, psi, spec: LevyMeasureSpec) -> float:
    """integral of (exp(-lam*psi(u)) - 1) over the truncated measure.

    Defined for psi >= 0; the integrand is bounded by lam*psi near the
    origin and by 1 elsewhere, so the value is finite even for
    infinite-activity measures.  Always <= 0 and nonincreasing in lam.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    lo, hi = spec.lower, spec.upper
    if lo >= hi:
        return 0.0
    probes = np.linspace(lo if lo > 0 else hi * 1e-9, hi, 64)
    if np.any(np.asarray(psi(probes)) < 0):
        raise ValueError("psi must be nonnegative on the support")
    if lam == 0.0:
        return 0.0

    def integrand(y):
        return np.expm1(-lam * psi(y)) * float(spec.density(y))

    # For large lam the integrand varies over many scales (the transition
    # region lam * psi(y) ~ 1 can sit ten decades below the support's top),
    # so integrate decade by decade on a log-spaced partition; each piece
    # is smooth at quad's scale.
    a = lo if lo > 0 else hi * 1e-18
    breaks = np.geomspace(a, hi, max(8, int(math.log10(hi / a)) * 2 + 2))
    pieces = list(zip(breaks[:-1], breaks[1:]))
    if lo <= 0:
        pieces.insert(0, (0.0, a))
    val = 0.0
    for u0, u1 in pieces:
        v, _ = quad(integrand, u0, u1, epsabs=QUAD_ABS_TOL, limit=200)
        val += v
    return min(val, 0.0)


@dataclass
class TauberianFit:
    """Fitted large-lambda behaviour L(lam) ~ r1 * lam**alpha."""

    alpha: float
    r1: float
    beta: float | None = None
    r2: float | None = None
    residual: float = 0.0
    lam_grid: np.ndarray | None = None
    regime: str = "tauberian"   # or "mass-dominated" / "non-tauberian"


def tauberian_fit(psi, spec: LevyMeasureSpec, lam_grid) -> TauberianFit:
    """Fit the exponent and constant of the Laplace exponent at infinity.

    Log-log regression of |L(lam)| against lam over the top half of the
    grid (the lower part is pre-asymptotic).  A slope outside (0, 1) is
    flagged, not raised: a finite-mass measure gives a bounded L and a
    slope near 0.
    """
    lam_grid = np.asarray(sorted(lam_grid), dtype=float)
    if lam_grid[0] <= 0 or lam_grid[-1] / lam_grid[0] < 1e3:
        raise ValueError("lambda grid must be positive and span at least 3 decades")
    vals = np.array([laplace_exponent(l, psi, spec) for l in lam_grid])
    top = lam_grid.size // 2
    x = np.log(lam_grid[top:])
    y = np.log(np.maximum(-vals[top:], 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], x) - y) ** 2)))
    fit = TauberianFit(alpha=float(slope), r1=-float(np.exp(intercept)),
                       residual=resid, lam_grid=lam_grid)
    if abs(fit.alpha) < 0.05:
        fit.regime = "mass-dominated"
    elif not (0.0 < fit.alpha < 1.0):
        fit.regime = "non-tauberian"
    return fit


def small_ball_params(alpha: float, r1: float, t: float) -> tuple[float, float]:
    """Small-ball exponent and constant implied by the Laplace asymptotics.

    From 1/alpha = 1/beta + 1 and |alpha*t*r1|**(1/alpha) = |beta*t*r2|**(1/beta).
    Returns (beta, r2) with r2 < 0.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if r1 >= 0:
        raise ValueError("r1 must be negative")
    if t <= 0:
        raise ValueError("horizon must be positive")
    beta = alpha / (1.0 - alpha)
    r2 = -abs(alpha * t * r1) ** (beta / alpha) / (beta * t)
    return beta, r2
