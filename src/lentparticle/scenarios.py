"""Catalog of ready-made scenarios.

Each builder returns a fully wired Scenario with hand-written coefficient
jets (mark jets must be analytically exact for the order-2 calculus, so
there is no expression language -- the catalog is code, configured by
numeric parameters only).  Every coefficient is written for one path and,
with a leading lane axis on its arguments, for many paths at once (see
`sde.Scenario`); a constant is left without the lane axis.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bottom import EuclideanBottom, WienerOUBottom, WienerSquareBottom
from .measures import compensator_integral, power_law
from .prm import nested_increments
from .rng import TAG_NESTED
from .sde import Scenario, SimpleJets

CATALOG = {}

Matrix2 = list      # a 2x2 matrix given as two rows; the CLI checks the shape


def _register(name):
    def deco(fn):
        CATALOG[name] = fn
        return fn
    return deco


def build(name: str, **params) -> Scenario:
    if name not in CATALOG:
        raise KeyError(f"unknown scenario {name!r}; catalog: {sorted(CATALOG)}")
    return CATALOG[name](**params)


# ---------------------------------------------------------------------------
# scalar compound-Poisson family
# ---------------------------------------------------------------------------

def _power_weight(lo, hi):
    """Form weight xi(u) = u^2 (with derivatives)."""
    return (lambda u: u * u,
            lambda u: 2.0 * u,
            lambda u: 2.0 + 0.0 * u)


def _bump_weight(lo, hi):
    """Form weight vanishing quadratically at both support endpoints.

    The weighted flux xi * m * f' then vanishes at the boundary for any
    bounded f', which is what the generator's symmetry (and everything
    built on it: generator paths, adjoint formula, IBP weights) needs on a
    measure whose density does not itself vanish there.
    """
    def xi(u):
        return (u - lo) ** 2 * (hi - u) ** 2

    def xip(u):
        return 2 * (u - lo) * (hi - u) ** 2 - 2 * (u - lo) ** 2 * (hi - u)

    def xipp(u):
        return 2 * (hi - u) ** 2 - 8 * (u - lo) * (hi - u) + 2 * (u - lo) ** 2

    return xi, xip, xipp


def _power_log_slope(eps):
    # density m(u) = u^(-1-eps)
    return (lambda u: -(1.0 + eps) / u,
            lambda u: (1.0 + eps) / u ** 2)


@_register("compound")
def compound(eps: float = 0.5, trunc: float = 0.01, ymax: float = 1.0,
             horizon: float = 1.0, x0: float = 0.0, weight: str = "power",
             compensated: bool = False) -> Scenario:
    """d=1 compound Poisson: the state jumps by the mark itself.

    weight selects the form weight on marks: "power" is xi(u) = u^2 (the
    natural scale weight); "bump" vanishes at the support endpoints, which
    makes the mark-space generator genuinely self-adjoint on this
    truncated measure (see _bump_weight).  Integration-by-parts weights
    are only consistent under the "bump" choice.
    """
    spec = power_law(eps, ymax=ymax, trunc=trunc)
    lo, hi = spec.lower, spec.upper
    if weight == "power":
        xi, xip, xipp = _power_weight(lo, hi)
    elif weight == "bump":
        xi, xip, xipp = _bump_weight(lo, hi)
    else:
        raise ValueError(f"unknown weight {weight!r}")
    r, rp = _power_log_slope(eps)

    jets = SimpleJets(
        h=lambda u: u, hp=lambda u: 1.0 + 0.0 * u,
        hpp=lambda u: 0.0 * u, hppp=lambda u: 0.0 * u,
        xi=xi, xip=xip, xipp=xipp, r=r, rp=rp)

    bottom = EuclideanBottom(xi=xi, c_u=lambda s, x, u: np.array([1.0]))
    mean_jump = jets.mean_h(spec)

    return Scenario(
        name="compound", dim=1, x0=np.array([x0]), horizon=horizon,
        measure=spec, bottom=bottom,
        c=lambda s, x, u: np.asarray(u, dtype=float)[..., None],
        dx_c=lambda s, x, u: np.array([[0.0]]),
        compensated=compensated, simple=jets,
        comp_c=lambda s, x: np.array([mean_jump]),
        comp_dx_c=lambda s, x: np.zeros((1, 1)),
        meta={
            "psi": xi,
            "psi_delta": 0.0,
            "symmetry_pair": (*_bump_weight(lo, hi), lambda u: u, lambda u: 1.0),
        })


@_register("compound-linear")
def compound_linear(beta: float = 0.5, eps: float = 0.5, trunc: float = 0.01,
                    ymax: float = 1.0, horizon: float = 1.0, x0: float = 1.0,
                    compensated: bool = False) -> Scenario:
    """d=1 geometric-type compound Poisson: jumps beta * x * u.

    The flow derivative has the exact product form prod_i (1 + beta*u_i).
    The form weight on marks is xi(u) = u^2.
    """
    spec = power_law(eps, ymax=ymax, trunc=trunc)
    xi, _, _ = _power_weight(spec.lower, spec.upper)
    bottom = EuclideanBottom(xi=xi, c_u=lambda s, x, u: beta * x)
    mean_jump = float(compensator_integral(spec, lambda u: u, 1.0))

    return Scenario(
        name="compound-linear", dim=1, x0=np.array([x0]), horizon=horizon,
        measure=spec, bottom=bottom,
        c=lambda s, x, u: beta * x * np.asarray(u, dtype=float)[..., None],
        dx_c=lambda s, x, u: beta * np.asarray(u, dtype=float)[..., None, None],
        compensated=compensated,
        comp_c=lambda s, x: beta * x * mean_jump,
        comp_dx_c=lambda s, x: np.array([[beta * mean_jump]]),
        meta={"beta": beta})


# ---------------------------------------------------------------------------
# Wiener-mark scenarios
# ---------------------------------------------------------------------------

@_register("simple2d")
def simple2d(eps: float = 0.5, trunc: float = 0.01, ymax: float = 1.0,
             horizon: float = 1.0) -> Scenario:
    """d=2 non-linear subordination of the degenerate diffusion (B, B).

    Each jump of duration y moves the state by (B_y, B_y^2 / 2); the
    per-jump covariance has the exact closed form
    [[y, y*B], [y*B, y*B^2]], and the path matrix dominates
    (M1 ^ M2) * I with M1, M2 the sums of y^2 over jumps with y < 1 and
    B_y >= sqrt(y) (resp. <= -sqrt(y)).
    """
    spec = power_law(eps, ymax=ymax, trunc=trunc)
    bottom = WienerSquareBottom()

    def lower_bound(marks, bvals):
        sel1 = (marks < 1.0) & (bvals >= np.sqrt(marks))
        sel2 = (marks < 1.0) & (bvals <= -np.sqrt(marks))
        m1 = float(np.sum(marks[sel1] ** 2))
        m2 = float(np.sum(marks[sel2] ** 2))
        return min(m1, m2)

    return Scenario(
        name="simple2d", dim=2, x0=np.zeros(2), horizon=horizon,
        measure=spec, bottom=bottom,
        c=lambda s, x, ev: bottom.coefficient(ev),
        dx_c=lambda s, x, ev: np.zeros((2, 2)),
        meta={"pathwise_lower_bound": lower_bound})


@_register("subordination-linear")
def subordination_linear(eps: float = 0.5, trunc: float = 0.01, ymax: float = 1.0,
                         horizon: float = 1.0, sigma0: Matrix2 = ((0.3, 0.0), (0.1, 0.2)),
                         nested_step: float = 0.25) -> Scenario:
    """d=2 subordination of a constant-coefficient driftless diffusion.

    Jumps are displacements of d(zeta) = sigma0 dB run for the jump's
    duration, so the solution has the same law as the diffusion run at the
    subordinator time Y_T (which the cross-check exploits).  With constant
    coefficients the nested Euler scheme is exact at any step, hence the
    coarse default nested step.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    spec = power_law(eps, ymax=ymax, trunc=trunc)
    bottom = WienerOUBottom(dim=2, n_brownian=2,
                            diff=lambda z: sigma0, step=nested_step)
    return Scenario(
        name="subordination-linear", dim=2, x0=np.zeros(2), horizon=horizon,
        measure=spec, bottom=bottom,
        c=lambda s, x, ev: ev.z,
        dx_c=lambda s, x, ev: ev.m - np.eye(2),
        meta={"sigma0": sigma0})


@_register("subordination-nonlinear")
def subordination_nonlinear(eps: float = 0.5, trunc: float = 0.01, ymax: float = 1.0,
                            horizon: float = 1.0, nested_step: float = 0.02) -> Scenario:
    """d=1 subordination of a state-dependent diffusion.

    Nested dynamics d(zeta) = a(zeta) dB with a(z) = 0.4 + 0.1 tanh(z);
    the jump's flow derivative M enters the state Jacobian.
    """
    spec = power_law(eps, ymax=ymax, trunc=trunc)

    def a(z):
        return (0.4 + 0.1 * np.tanh(z))[:, :, None]

    def a_jac(z):
        return (0.1 / np.cosh(z) ** 2)[:, :, None, None]

    bottom = WienerOUBottom(dim=1, n_brownian=1, diff=a, diff_jac=a_jac,
                            step=nested_step)
    return Scenario(
        name="subordination-nonlinear", dim=1, x0=np.zeros(1), horizon=horizon,
        measure=spec, bottom=bottom,
        c=lambda s, x, ev: ev.z,
        dx_c=lambda s, x, ev: ev.m - np.eye(1),
        meta={})


class _FieldBottom(WienerOUBottom):
    """Jump = nested diffusion pushed for the jump's duration by a random
    direction; the direction angle is part of the mark (drawn from the
    jump's sub-stream, replica 1) and sets the nested drift of its lane."""

    def eval_jumps(self, s, x, lanes):
        theta = np.array([lanes.generator(i, TAG_NESTED, replica=1).uniform(0.0, 2 * math.pi)
                          for i in range(len(lanes))])
        push = np.stack([np.cos(theta), np.sin(theta)], -1)
        incs = nested_increments(lanes, lanes.marks, self.step, self.n_brownian)
        return replace(self, drift=lambda z: push).evolve(x, lanes.marks, incs)


@_register("levy-field-demo")
def levy_field_demo(eps: float = 0.5, trunc: float = 0.05, ymax: float = 1.0,
                    horizon: float = 1.0, nested_step: float = 0.05) -> Scenario:
    """d=2 demo: a particle diffusing in a field of random pushes.

    Each jump runs a planar diffusion with a position-dependent matrix for
    the jump's duration, drifting in a uniformly random direction.  Ships
    as a demonstration only (no closed-form oracles).
    """
    spec = power_law(eps, ymax=ymax, trunc=trunc)

    def upsilon(z):
        out = np.zeros((len(z), 2, 2))
        out[:, 0, 0] = 0.25 + 0.05 * np.sin(z[:, 1])
        out[:, 1, 1] = 0.25 + 0.05 * np.cos(z[:, 0])
        return out

    def upsilon_jac(z):
        out = np.zeros((len(z), 2, 2, 2))
        out[:, 0, 0, 1] = 0.05 * np.cos(z[:, 1])
        out[:, 1, 1, 0] = -0.05 * np.sin(z[:, 0])
        return out

    bottom = _FieldBottom(dim=2, n_brownian=2, diff=upsilon, diff_jac=upsilon_jac,
                          step=nested_step)
    return Scenario(
        name="levy-field-demo", dim=2, x0=np.zeros(2), horizon=horizon,
        measure=spec, bottom=bottom,
        c=lambda s, x, ev: ev.z,
        dx_c=lambda s, x, ev: ev.m - np.eye(2))
