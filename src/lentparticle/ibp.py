"""Integration-by-parts weights and weighted density estimation.

The divergence (adjoint of the gradient) acts on products X * grad(Y) by

    delta[X grad(Y)] = -2 X A[Y] - <X, Y>

with A the generator path and <.,.> the covariance bracket.  Iterating it
gives weights Z_n with E[d^n f(X)] = E[f(X) Z_n]; the density of X is then
estimated as p(x) = E[1_{X >= x} Z_1], an exact identity in the limit of
smoothed indicators.

That identity holds only if the weighted flux xi h' m (form weight xi,
mark jet h, mark density m) vanishes at both endpoints of the truncated
support, as under the compound scenario's "bump" weight.  Otherwise the
integration by parts on the mark interval leaves a boundary term, and
E[f(X) Z_n] alone does not equal E[d^n f(X)]; under the u^2 weight with
the compound scenario's defaults the flux is 0.1 at the lower and 1 at
the upper endpoint.

Weights are implemented for scalar mark-sum scenarios, whose bracket
table is carried by the vectorised ensemble: gamma, A and G2 = <X, gamma>
for Z1, and for Z2 also the brackets of X with A and G2.  Everything is
closed under explicit chain rules, no numerical differentiation anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import SimpleEnsemble
from .measures import LevyMeasureSpec
from .sde import SimpleJets

DET_GAMMA_FLOOR = 1e-10
KERNEL_REACH = 40.0        # exp(-z^2 / 2) rounds to 0 beyond z = 38.61


# ---------------------------------------------------------------------------
# the adjoint on simple mark functionals
# ---------------------------------------------------------------------------

def bracket(jx: SimpleJets, jy: SimpleJets, marks: np.ndarray) -> float:
    """Covariance bracket of two mark-sum functionals along one path."""
    if len(marks) == 0:
        return 0.0
    return float(np.sum(jx.xi(marks) * jx.hp(marks) * jy.hp(marks)))


def functional_value(j: SimpleJets, marks: np.ndarray, t: float,
                     measure: LevyMeasureSpec, compensated: bool = False) -> float:
    v = float(np.sum(j.h(marks))) if len(marks) else 0.0
    return v - t * j.mean_h(measure) if compensated else v


def generator_value(j: SimpleJets, marks: np.ndarray, t: float,
                    measure: LevyMeasureSpec) -> float:
    """Generator path of a mark-sum functional at time t (always compensated)."""
    v = float(np.sum(j.ah(marks, measure))) if len(marks) else 0.0
    return v - t * j.mean_ah(measure)


def delta(x_jet: SimpleJets, y_jet: SimpleJets, marks: np.ndarray, t: float,
          measure: LevyMeasureSpec, compensated: bool = False) -> float:
    """Pathwise divergence of X * grad(Y): -2 X A[Y] - <X, Y>."""
    xv = functional_value(x_jet, marks, t, measure, compensated)
    ay = generator_value(y_jet, marks, t, measure)
    return -2.0 * xv * ay - bracket(x_jet, y_jet, marks)


# ---------------------------------------------------------------------------
# weights over an ensemble
# ---------------------------------------------------------------------------

@dataclass
class WeightResult:
    values: np.ndarray         # per-path weights, 0 where rejected
    accepted: np.ndarray       # boolean mask
    n_rejected: int

    @property
    def rejection_fraction(self) -> float:
        return self.n_rejected / len(self.values)


def weight(ens: SimpleEnsemble, order: int) -> WeightResult:
    """IBP weight of the requested order for every path of the ensemble;
    a path with gamma <= DET_GAMMA_FLOOR is rejected (weight 0).

    Z1 reads the columns every ensemble carries (x, gamma, a, g2); `run`
    weighs at order 1 and tabulates only those.  Z2 also reads xa and xg2,
    which only an ensemble tabulated at order 2 carries: an order-1
    ensemble is refused with a ValueError.

    Z1 = -2 A / gamma + G2 / gamma^2, with G2 = <X, gamma>; Z2 applies the
    divergence once more, with the bracket of Z1 and X expanded by the
    chain rule over the tracked table:

        <Z1, X> = -2 <A,X>/gamma + 2 A G2/gamma^2 + <G2,X>/gamma^2
                  - 2 G2^2/gamma^3.

    E[d^n f(X)] = E[f(X) Z_n] holds only if xi h' m vanishes at both
    support endpoints.  Otherwise a boundary term remains; for n = 1 it is

        T sum_e s_e (xi h' m)(e) E[f(X + h(e)) / (gamma + xi h'^2 (e))
                                   - f(X) / gamma]

    over the endpoints e, with s = +1 at the upper and -1 at the lower one.
    """
    if order not in (1, 2):
        raise ValueError("weight order must be 1 or 2")
    if order == 2 and ens.xa is None:
        raise ValueError("weight order 2 reads the brackets XA and XG2, which an ensemble "
                         "tabulated at order 1 lacks; simulate it with order=2")
    g = ens.gamma
    ok = g > DET_GAMMA_FLOOR
    n_rej = int(np.sum(~ok))
    gs = np.where(ok, g, 1.0)
    z1 = -2.0 * ens.a / gs + ens.g2 / gs ** 2
    if order == 1:
        vals = np.where(ok, z1, 0.0)
        return WeightResult(vals, ok, n_rej)
    br_z1_x = (-2.0 * ens.xa / gs + 2.0 * ens.a * ens.g2 / gs ** 2
               + ens.xg2 / gs ** 2 - 2.0 * ens.g2 ** 2 / gs ** 3)
    z2 = -2.0 * z1 * ens.a / gs - br_z1_x / gs + z1 * ens.g2 / gs ** 2
    vals = np.where(ok, z2, 0.0)
    return WeightResult(vals, ok, n_rej)


@dataclass
class IbpEstimate:
    weighted: float            # E[f(X) Z_n]
    weighted_se: float
    direct: float | None       # E[d^n f(X)] when the derivative is supplied
    direct_se: float | None
    n: int


def _mean_se(v):
    """Mean and its iid standard error."""
    v = np.asarray(v, dtype=float)
    return float(np.mean(v)), float(np.std(v, ddof=1) / np.sqrt(len(v)))


def expectation_ibp(f, samples: np.ndarray, weights: WeightResult,
                    f_deriv=None) -> IbpEstimate:
    """Both sides of E[d^n f(X)] = E[f(X) Z_n], with standard errors."""
    samples = np.asarray(samples, dtype=float)
    wv = f(samples[weights.accepted]) * weights.values[weights.accepted]
    w_mean, w_se = _mean_se(wv)
    d_mean = d_se = None
    if f_deriv is not None:
        d_mean, d_se = _mean_se(f_deriv(samples))
    return IbpEstimate(weighted=w_mean, weighted_se=w_se,
                       direct=d_mean, direct_se=d_se, n=int(np.sum(weights.accepted)))


@dataclass
class DensityEstimate:
    grid: np.ndarray
    ibp: np.ndarray
    ibp_se: np.ndarray
    kde: np.ndarray
    kde_se: np.ndarray

    def mass(self) -> float:
        """Integral of the IBP density over the grid (trapezoid)."""
        return float(np.trapezoid(self.ibp, self.grid))


def density_ibp(samples: np.ndarray, weights: WeightResult,
                grid: np.ndarray) -> DensityEstimate:
    """Weighted density p(x) = E[1_{X >= x} Z1] on a grid, plus a KDE.

    The KDE uses half the Scott-rule bandwidth: the weighted estimate is
    unbiased, so for the comparison between the two to be meaningful the
    KDE's smoothing bias must stay below the standard errors, which the
    plain rule does not guarantee in the tails.
    """
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    # Each per-path array below is dropped once read, so that at most four
    # are held at a time.
    # Gaussian kernel with h = 0.5 n^(-1/5) sd, half the Scott bandwidth.  A
    # sample beyond KERNEL_REACH h of a grid point adds exactly 0, so only
    # the sorted samples within that reach are summed, each grid point's in
    # one reused buffer: the far ones would each take exp's slow underflow
    # path for nothing
    bw = 0.5 * len(samples) ** (-1.0 / 5.0) * float(np.std(samples, ddof=1))
    ordered = np.sort(samples)
    lo = np.searchsorted(ordered, grid - KERNEL_REACH * bw)
    hi = np.searchsorted(ordered, grid + KERNEL_REACH * bw, side="right")
    kde = np.empty(len(grid))
    buf = np.empty(int(np.max(hi - lo, initial=0)))
    for i, g in enumerate(grid):
        u = buf[:hi[i] - lo[i]]
        np.subtract(g, ordered[lo[i]:hi[i]], out=u)
        np.divide(u, bw, out=u)
        np.square(u, out=u)
        np.multiply(-0.5, u, out=u)
        kde[i] = np.sum(np.exp(u, out=u))
    del ordered, buf
    kde /= len(samples) * bw * np.sqrt(2 * np.pi)
    # E[1{X >= g} Z1] and its iid SE at every grid point from one sort: the
    # sums of Z1 and Z1^2 over the paths at or above g are reverse
    # cumulative sums over the paths sorted by X.  t1 and t2 hold Z1 and
    # Z1^2 in that order, each accumulated in place from the largest X
    # down, and end in the empty sum
    xs = samples[weights.accepted]
    zs = weights.values[weights.accepted]
    n = len(xs)
    by_x = np.argsort(xs)
    at = np.searchsorted(xs[by_x], grid, side="left")
    del xs
    t1, t2 = np.zeros(n + 1), np.zeros(n + 1)
    np.take(zs, by_x, out=t1[:n], mode="clip")     # "raise" would buffer the output
    del zs, by_x
    np.multiply(t1[:n], t1[:n], out=t2[:n])
    for t in (t1, t2):
        down = t[:n][::-1]
        np.cumsum(down, out=down)
    s1, s2 = t1[at], t2[at]
    vals = s1 / n
    ses = np.sqrt(np.maximum(s2 - s1 * vals, 0.0) / (n - 1) / n)
    # pointwise KDE standard error: sqrt(p * R(K) / (n h)), Gaussian kernel
    kde_se = np.sqrt(np.maximum(kde, 0.0) / (2 * np.sqrt(np.pi) * len(samples) * bw))
    return DensityEstimate(grid=grid, ibp=vals, ibp_se=ses, kde=kde, kde_se=kde_se)
