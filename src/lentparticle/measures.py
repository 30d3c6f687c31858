"""Analytic layer for the jump intensity measure.

The jump measure is the truncated power law: density y^(-1-eps) on
(trunc, ymax] of the positive half line, with EPS_MIN <= eps < 1.  Without the
lower cutoff it has infinite activity; everything downstream (Poisson
counts, mark sampling, compensators) works on the truncated measure, in
closed form where one exists.

Also hosts the Laplace-exponent / Tauberian machinery used by the
small-ball smoothness diagnostics, and the one quadrature every integral
against a measure goes through (`_quad`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np


QUAD_ABS_TOL = 1e-9
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 400          # most subintervals one quadrature may hold
# No piece narrower than this share of the integration interval is split:
# it keeps the marks of a divergent integrand on (0, 1] above 1e-120, where
# a power-law density y^(-1-eps) with eps < 1 and a few powers of y stay
# finite, so divergence shows as a large error, not as an overflow.
QUAD_MIN_PIECE = 2.0 ** -400
# Smallest exponent a spec accepts: the mass and the quantile cancel in trunc^-eps - ymax^-eps,
# to a relative error ~2e-16 / (eps log(ymax / trunc)): ~5e-11 at 1e-6, all of it near 1e-16.
EPS_MIN = 1e-6

# The 21-point Kronrod rule on [-1, 1] and the 10-point Gauss rule embedded
# in it (QUADPACK's qk21, Piessens et al. 1983).  _XK, _WK and _WG hold the
# nonnegative half, largest node first; the QK21_ arrays hold the whole
# rule, nodes from -1 to 1.  The Gauss weight is 0 at the Kronrod-only nodes.
_XK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                0.123491976262065851077208980171080, 0.134709217311473325928054001771707,
                0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                0.149445554002916905664936468389821])
_WG = np.array([0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
                0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
                0.0, 0.295524224714752870173892994651338, 0.0])
QK21_NODES = np.concatenate([-_XK, _XK[-2::-1]])
QK21_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
QK21_GAUSS = np.concatenate([_WG, _WG[-2::-1]])
_QK21_WEIGHTS = np.stack([QK21_KRONROD, QK21_GAUSS])
_EPMACH = np.finfo(float).eps


class InfiniteMassError(ValueError):
    """Raised when the truncated measure has infinite total mass."""


class NonIntegrableError(ValueError):
    """Raised when an integrand is not integrable against the measure."""


@dataclass(frozen=True)
class LevyMeasureSpec:
    """The power-law jump measure y^(-1-eps) dy on (trunc, ymax].

    eps      exponent, in [EPS_MIN, 1)
    ymax     upper end of the support, above trunc: the support is not empty
    trunc    lower cutoff, >= 0; marks below it are dropped from the model

    A spec outside these ranges is refused, by a message naming the field.
    """

    eps: float
    ymax: float = 1.0
    trunc: float = 0.0

    def __post_init__(self):
        if not EPS_MIN <= self.eps < 1.0:
            raise ValueError(f"eps = {self.eps} out of range: the power-law jump measure needs "
                             f"{EPS_MIN} <= eps < 1 (mass cancels below, asymptotics fail above)")
        if not self.trunc >= 0:
            raise ValueError(f"trunc = {self.trunc} out of range: the cutoff must be >= 0")
        if not self.ymax > self.trunc:
            raise ValueError(f"ymax = {self.ymax} out of range: the mark support "
                             f"(trunc, ymax] = ({self.trunc}, {self.ymax}] must not be empty")

    def density(self, y):
        """Density of the untruncated measure at y (vectorised)."""
        y = np.asarray(y, dtype=float)
        return np.where((y > 0) & (y <= self.ymax), y ** (-1.0 - self.eps), 0.0)

    def log_slope(self, u, order: int):
        """The first `order` derivatives of log m, m(u) = u^(-1-eps), at marks
        u: the slope r = m'/m, and at order 2 also its derivative r'."""
        r = -(1.0 + self.eps) / u
        return (r,) if order == 1 else (r, (1.0 + self.eps) / u ** 2)


def _lanes(value, n: int) -> np.ndarray:
    """An integrand's value at n marks as an (n, k) float array: the lane
    (mark) axis first, one column per component; a value without the lane
    axis is broadcast."""
    value = np.asarray(value, dtype=float)
    if value.shape[:1] != (n,):
        value = np.broadcast_to(value, (n,) + value.shape[1:])
    return value.reshape(n, -1)


def _qk21(fn, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """21-point Kronrod estimate of int_a^b fn and QUADPACK's error bound
    on it, per component; fn is called once, on the 21 nodes."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    f = _lanes(fn(centre + half * QK21_NODES), QK21_NODES.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a non-finite value is returned as it is and ends the bisection
        resk, resg = _QK21_WEIGHTS @ f
        resabs = QK21_KRONROD @ np.abs(f)
        resasc = QK21_KRONROD @ np.abs(f - 0.5 * resk)
        # |K - G| is the error of G, far above that of K on a smooth
        # integrand; QUADPACK takes resasc min(1, (200 |K - G| / resasc)^1.5)
        err = np.abs(resk - resg)
        err = np.where(resasc > 0, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        err = np.maximum(err, 50.0 * _EPMACH * resabs) * abs(half)
    return resk * half, err


def _quad(fn, edges) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive Gauss-Kronrod quadrature of fn over [edges[0], edges[-1]]
    (QUADPACK's qag with the qk21 rule, started from the partition `edges`):
    split the subinterval of largest error until every component's summed
    error is within max(QUAD_ABS_TOL, QUAD_REL_TOL |value|), a value is not
    finite, there are QUAD_LIMIT subintervals, or the worst one is narrower
    than QUAD_MIN_PIECE of the whole interval.

    fn takes an array of 21 marks and returns its value at each, lane axis
    first: shape (21,) for a scalar integrand, (21, k) for k components.
    Returns (value, error), each of shape (k,).
    """
    smallest = QUAD_MIN_PIECE * (edges[-1] - edges[0])
    heap = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _qk21(fn, lo, hi)
        heap.append((-e.max(), lo, hi, v, e))
    heapq.heapify(heap)
    total, total_err = sum(item[3] for item in heap), sum(item[4] for item in heap)
    while (len(heap) < QUAD_LIMIT and np.all(np.isfinite(total))
           and np.any(total_err > np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(total)))):
        _, a, b, v0, e0 = heap[0]
        # a jump density that blows up at 0 is split near 0 on the piece
        # touching it: b / 8 leaves [b / 8, b] smooth at qk21's scale, so
        # each split shrinks the singular piece 8-fold instead of 2-fold
        mid = 0.5 * (a + b) if a != 0.0 else 0.125 * b
        if not (a < mid < b and b - a > smallest):
            break
        heapq.heappop(heap)
        total, total_err = total - v0, total_err - e0
        for lo, hi in ((a, mid), (mid, b)):
            v, e = _qk21(fn, lo, hi)
            heapq.heappush(heap, (-e.max(), lo, hi, v, e))
            total, total_err = total + v, total_err + e
    # the running sums drift; the result is the plain sum over the intervals
    return sum(item[3] for item in heap), sum(item[4] for item in heap)


def total_mass(spec: LevyMeasureSpec) -> float:
    """Mass of the measure restricted above the truncation cutoff."""
    lo, hi, eps = spec.trunc, spec.ymax, spec.eps
    if lo == 0.0:
        raise InfiniteMassError("the power law has infinite mass without truncation")
    return (lo ** (-eps) - hi ** (-eps)) / eps


def mark_quantile(spec: LevyMeasureSpec, v: np.ndarray) -> np.ndarray:
    """Inverse CDF of the normalised truncated measure at uniforms v."""
    lo, hi, eps = spec.trunc, spec.ymax, spec.eps
    return (lo ** (-eps) - v * (lo ** (-eps) - hi ** (-eps))) ** (-1.0 / eps)


def compensator_integral(spec: LevyMeasureSpec, f, t: float) -> np.ndarray:
    """t * integral of f against the truncated measure.

    f maps an array of marks to its value at each, lane axis first: shape
    (n,) for a scalar integrand, (n, k) for a vector one; integration is
    per component.
    """
    out, err = _quad(lambda y: _lanes(f(y), y.size) * spec.density(y)[:, None],
                     (spec.trunc, spec.ymax))
    for i, (val, e) in enumerate(zip(out, err)):
        if not math.isfinite(val) or e > max(1e-6, 1e-6 * abs(val)):
            raise NonIntegrableError(f"component {i} does not integrate against the measure")
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
    lo, hi = spec.trunc, spec.ymax
    probes = np.linspace(lo if lo > 0 else hi * 1e-9, hi, 64)
    if np.any(np.asarray(psi(probes)) < 0):
        raise ValueError("psi must be nonnegative on the support")
    if lam == 0.0:
        return 0.0

    def integrand(y):
        return np.expm1(-lam * psi(y)) * spec.density(y)

    # For large lam the integrand varies over many scales (the transition
    # region lam * psi(y) ~ 1 can sit ten decades below the support's top),
    # so the quadrature starts from a log-spaced partition, two pieces per
    # decade; each piece is smooth at the quadrature's scale.
    a = lo if lo > 0 else hi * 1e-18
    edges = np.geomspace(a, hi, max(8, int(math.log10(hi / a)) * 2 + 2)).tolist()
    if lo <= 0:
        edges.insert(0, 0.0)
    return min(float(_quad(integrand, edges)[0][0]), 0.0)


@dataclass
class TauberianFit:
    """Fitted large-lambda behaviour L(lam) ~ r1 * lam**alpha."""

    alpha: float
    r1: float
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
