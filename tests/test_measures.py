"""Jump-measure layer: masses, sampling, compensators, Laplace asymptotics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from lentparticle import scenarios
from lentparticle.measures import (QK21_GAUSS, QK21_KRONROD, QK21_NODES,
                                   InfiniteMassError, LevyMeasureSpec,
                                   NonIntegrableError, compensator_integral,
                                   laplace_exponent, mark_quantile,
                                   small_ball_params, tauberian_fit,
                                   total_mass)
from lentparticle.rng import RngStream

from oracles import mark_cdf


# ---------------------------------------------------------------------------
# reference routes: scipy's quad, one mark at a time, as the library used it
# ---------------------------------------------------------------------------

def quad_compensator(spec, f, t):
    """t * int f dnu per component, one quad call per component."""
    lo, hi = spec.trunc, spec.ymax
    probe = np.atleast_1d(np.asarray(f(0.5 * (lo + hi)), dtype=float))
    out = np.empty(probe.shape)
    for i in range(probe.size):
        def integrand(y, i=i):
            return np.atleast_1d(np.asarray(f(y), dtype=float))[i] * float(spec.density(y))

        out[i] = quad(integrand, lo, hi, epsabs=1e-9, limit=400,
                      points=[lo + 1e-12 * (hi - lo)])[0]
    return t * out


def quad_laplace(lam, psi, spec):
    """Laplace exponent by quad on the decade partition, piece by piece."""
    lo, hi = spec.trunc, spec.ymax
    a = lo if lo > 0 else hi * 1e-18
    breaks = np.geomspace(a, hi, max(8, int(math.log10(hi / a)) * 2 + 2))
    pieces = list(zip(breaks[:-1], breaks[1:]))
    if lo <= 0:
        pieces.insert(0, (0.0, a))
    val = sum(quad(lambda y: np.expm1(-lam * psi(y)) * float(spec.density(y)),
                   u0, u1, epsabs=1e-9, limit=200)[0] for u0, u1 in pieces)
    return min(val, 0.0)


# ---------------------------------------------------------------------------
# the quadrature rule
# ---------------------------------------------------------------------------

def test_qk21_rule_exact_on_polynomials():
    # Kronrod: degree 31; the embedded Gauss rule: the 10-point Gauss-Legendre
    # rule, degree 19
    gauss = QK21_GAUSS > 0
    nodes, weights = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(np.sort(QK21_NODES[gauss]), nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(QK21_GAUSS[gauss][np.argsort(QK21_NODES[gauss])], weights,
                               rtol=0, atol=1e-15)
    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert QK21_KRONROD @ QK21_NODES ** k == pytest.approx(exact, abs=1e-14), k
        if k < 20:
            assert QK21_GAUSS @ QK21_NODES ** k == pytest.approx(exact, abs=1e-14), k


# ---------------------------------------------------------------------------
# the spec
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.0, -0.5, 1.0, 1e-17])
def test_spec_refuses_eps_outside_unit_interval(eps):
    with pytest.raises(ValueError, match="eps"):
        LevyMeasureSpec(eps, ymax=1.0, trunc=0.01)


def test_spec_refuses_negative_cutoff():
    with pytest.raises(ValueError, match="cutoff"):
        LevyMeasureSpec(0.5, ymax=1.0, trunc=-0.01)


@pytest.mark.parametrize("kwargs,field", [
    ({"eps": 1.5}, "eps"), ({"eps": 0.0}, "eps"), ({"eps": float("nan")}, "eps"),
    ({"trunc": -0.1}, "trunc"), ({"trunc": float("nan")}, "trunc"),
    ({"trunc": 1.0}, "ymax"), ({"ymax": 0.0}, "ymax"), ({"ymax": -1.0}, "ymax"),
    ({"ymax": float("nan")}, "ymax"),
])
def test_spec_refusal_names_its_field(kwargs, field):
    # every message starts with the field it refuses, which the CLI
    # qualifies as params.<field>
    with pytest.raises(ValueError, match=rf"^{field} = "):
        LevyMeasureSpec(**{"eps": 0.5, **kwargs})


def test_equal_specs_hash_equal():
    a, b = LevyMeasureSpec(0.5, ymax=2.0, trunc=0.01), LevyMeasureSpec(0.5, 2.0, 0.01)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, LevyMeasureSpec(0.5, ymax=2.0, trunc=0.02)}) == 2


# ---------------------------------------------------------------------------
# total_mass
# ---------------------------------------------------------------------------

def test_mass_power_law_truncated():
    # closed form 2(trunc^-1/2 - 1) at exponent 1/2 on (trunc, 1]
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    assert total_mass(spec) == pytest.approx(18.0, rel=1e-12)


def test_mass_truncation_above_support():
    # an empty support is refused when the spec is built, so no measure has it
    with pytest.raises(ValueError, match=r"^ymax = 1.0 out of range: the mark support "
                                         r"\(trunc, ymax\] = \(2.0, 1.0\] must not be empty$"):
        LevyMeasureSpec(0.5, ymax=1.0, trunc=2.0)


def test_mass_infinite_without_truncation():
    with pytest.raises(InfiniteMassError):
        total_mass(LevyMeasureSpec(0.5, ymax=1.0, trunc=0.0))


# ---------------------------------------------------------------------------
# mark sampling: the inverse CDF of uniforms
# ---------------------------------------------------------------------------

def _marks(spec, seed, size):
    return mark_quantile(spec, RngStream(seed=seed).generator().random(size))


def test_sample_mark_power_mean():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    draws = _marks(spec, 1, 100_000)
    # mean = (int y * y^-1.5 dy) / mass = 1.8 / 18
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 0.1) < 3 * se


def test_sample_mark_ks_against_cdf():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    draws = _marks(spec, 3, 10_000)
    stat = kstest(draws, lambda y: mark_cdf(spec, y)).statistic
    assert stat < 1.63 / math.sqrt(len(draws))  # 1% critical value


# ---------------------------------------------------------------------------
# compensator_integral
# ---------------------------------------------------------------------------

def test_compensator_linear_functional():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    val = compensator_integral(spec, lambda y: y, 1.0)
    assert val == pytest.approx(1.8, rel=1e-6)
    assert isinstance(val, float)


def test_compensator_zero_functional():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    assert compensator_integral(spec, lambda y: 0.0 * y, 1.0) == 0.0


def test_compensator_linear_in_time():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    one = compensator_integral(spec, lambda y: y ** 2, 1.0)
    two = compensator_integral(spec, lambda y: y ** 2, 2.0)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_compensator_quadrature_agreement():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    val = compensator_integral(spec, lambda y: np.sin(y), 1.0)
    oracle, _ = quad(lambda y: math.sin(y) * y ** -1.5, 0.01, 1.0, limit=200)
    assert val == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_compensator_support_from_zero_closed_forms(eps):
    # int_0^1 y^p y^(-1-eps) dy = 1 / (p - eps): the integrand is singular
    # at the support's lower end 0
    spec = LevyMeasureSpec(eps, ymax=1.0, trunc=0.0)
    for p in (1, 2):
        val = compensator_integral(spec, lambda y: y ** p, 1.0)
        assert val == pytest.approx(1.0 / (p - eps), rel=1e-8), p


@pytest.mark.parametrize("eps", [0.5, 0.9])
@pytest.mark.parametrize("f,component", [
    (lambda y: np.ones_like(y), 0),
    (lambda y: y ** 0.4, 0),
    (lambda y: np.stack([y, np.ones_like(y)], -1), 1),
], ids=["1", "y^0.4", "(y,1)"])
def test_compensator_support_from_zero_non_integrable(eps, f, component):
    spec = LevyMeasureSpec(eps, ymax=1.0, trunc=0.0)
    with pytest.raises(NonIntegrableError, match=f"component {component} "):
        compensator_integral(spec, f, 1.0)


@pytest.mark.parametrize("weight", ["power", "bump"])
def test_jet_means_match_quad(weight):
    sc = scenarios.build("compound", weight=weight)
    jets = sc.simple
    for name, f in (("h", jets.h), ("ah", lambda u: jets.ah(u, sc.measure))):
        ref = quad_compensator(sc.measure, f, 1.0)[0]
        assert getattr(jets, f"mean_{name}")(sc.measure) == pytest.approx(ref, rel=0, abs=1e-12)


def test_compensator_vector_integrand_lane_axis_first():
    # one row per mark, one column per component; each call sees the 21
    # nodes of one subinterval
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    shapes = []

    def f(y):
        shapes.append(y.shape)
        return np.stack([y, y ** 2, np.sin(y)], -1)

    val = compensator_integral(spec, f, 2.0)
    assert val.shape == (3,)
    assert set(shapes) == {(21,)}
    ref = quad_compensator(spec, lambda y: np.array([y, y ** 2, math.sin(y)]), 2.0)
    np.testing.assert_allclose(val, ref, rtol=1e-12)
    for i, g in enumerate([lambda y: y, lambda y: y ** 2, np.sin]):
        assert compensator_integral(spec, g, 2.0) == pytest.approx(val[i], rel=1e-12)


# ---------------------------------------------------------------------------
# laplace_exponent
# ---------------------------------------------------------------------------

def test_laplace_zero_lambda():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    assert laplace_exponent(0.0, lambda y: y, spec) == 0.0


def test_laplace_large_lambda_asymptotic():
    # untruncated y^-1.5 with psi = y^2: L(lam) ~ r1 lam^(1/4) with
    # r1 = -Gamma(3/4)/0.5; the cutoff at ymax = 1 contributes an O(1)
    # offset, so test far enough out that it is below the tolerance
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.0)
    val = laplace_exponent(1e8, lambda y: y ** 2, spec)
    r1 = -math.gamma(0.75) / 0.5
    assert val == pytest.approx(100.0 * r1, rel=0.02)


def test_laplace_monotone_and_nonpositive():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.0)
    lams = np.logspace(0, 6, 13)
    vals = [laplace_exponent(l, lambda y: y, spec) for l in lams]
    assert all(v <= 0 for v in vals)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("power", [1, 2])
def test_laplace_matches_piecewise_quad(power):
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.0)
    for lam in np.logspace(4, 12, 24):
        ref = quad_laplace(lam, lambda y: y ** power, spec)
        assert laplace_exponent(lam, lambda y: y ** power, spec) == pytest.approx(ref, rel=1e-10)


def test_laplace_rejects_negative_psi():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)
    with pytest.raises(ValueError, match="nonnegative"):
        laplace_exponent(1.0, lambda y: y - 0.5, spec)


# ---------------------------------------------------------------------------
# tauberian_fit / small_ball_params
# ---------------------------------------------------------------------------

def test_tauberian_quadratic_functional():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.0)
    fit = tauberian_fit(lambda y: y ** 2, spec, np.logspace(4, 12, 24))
    assert fit.regime == "tauberian"
    assert abs(fit.alpha - 0.25) < 0.05
    assert fit.r1 == pytest.approx(-math.gamma(0.75) / 0.5, rel=0.05)


def test_tauberian_linear_functional_recovers_closed_form():
    # for psi = y the asymptotic constant is exactly -2*sqrt(pi); at a
    # high lambda grid the fit acts as a pure regression sanity check
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.0)
    fit = tauberian_fit(lambda y: y, spec, np.logspace(6, 12, 16))
    assert fit.alpha == pytest.approx(0.5, abs=1e-3)
    assert fit.r1 == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-3)


def test_tauberian_finite_mass_flagged():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.01)   # finite mass: L is bounded
    fit = tauberian_fit(lambda y: y, spec, np.logspace(4, 10, 16))
    assert fit.regime == "mass-dominated"


def test_tauberian_grid_validation():
    spec = LevyMeasureSpec(0.5, ymax=1.0, trunc=0.0)
    with pytest.raises(ValueError):
        tauberian_fit(lambda y: y, spec, np.logspace(0, 2, 8))


def test_small_ball_params_examples():
    beta, r2 = small_ball_params(0.5, -2.0 * math.sqrt(math.pi), 1.0)
    assert beta == pytest.approx(1.0)
    assert r2 == pytest.approx(-math.pi, rel=1e-12)
    beta, r2 = small_ball_params(0.5, -1.0, 4.0)
    assert (beta, r2) == (pytest.approx(1.0), pytest.approx(-1.0))


def test_small_ball_params_identities_round_trip():
    for alpha, r1, t in [(0.25, -2.45, 1.0), (0.7, -0.3, 2.5), (0.5, -5.0, 0.3)]:
        beta, r2 = small_ball_params(alpha, r1, t)
        assert 1.0 / alpha == pytest.approx(1.0 / beta + 1.0, rel=1e-12)
        assert abs(alpha * t * r1) ** (1.0 / alpha) == pytest.approx(
            abs(beta * t * r2) ** (1.0 / beta), rel=1e-12)
        assert r2 < 0


def test_small_ball_params_domain():
    with pytest.raises(ValueError):
        small_ball_params(1.2, -1.0, 1.0)
    with pytest.raises(ValueError):
        small_ball_params(0.5, 1.0, 1.0)
