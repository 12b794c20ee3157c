import math

import numpy as np
import pytest
from scipy.integrate import quad

from alphaeuler import (
    AlphaParam,
    BoundParams,
    Grid,
    ModulusEstimate,
    besov_modulus_fit,
    disc_patch,
    flow_rate_bound,
    gamma0,
    max_admissible_alpha,
    osgood_bound,
    sample,
    shear,
    to_physical,
    to_spectral,
    velocity_rate_K,
    vorticity_rate_bound,
)
from alphaeuler.bounds import linear_fit, t95_quantile


def osgood_M(x: float) -> float:
    """M(x) = int_x^1 dr / (r (2 - log r)) = log(2 - log x) - log 2."""
    if not 0.0 < x < math.e**2:
        raise ValueError("M(x) is defined for 0 < x < e^2")
    return math.log(2.0 - math.log(x)) - math.log(2.0)


# frozen against 50-digit arithmetic (mpmath) on the closed forms
K_001_T1 = 1.6176565479800037
ADMISSIBLE_T01 = 65.659776862226637
FLOW_BOUND_001 = 1.3011400786205628
VORT_BOUND_EXAMPLE = 0.9259238636929719


class TestGamma0:
    def test_matching_data_alpha_zero(self):
        g = Grid(16)
        q = shear(g)
        assert gamma0(q, q, AlphaParam(0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_value(self):
        # q = omega = cos x1, alpha = 1: both terms equal pi sqrt(2)/2
        g = Grid(16)
        q = shear(g)
        val = gamma0(q, q, AlphaParam(1.0))
        assert val == pytest.approx(np.pi * np.sqrt(2), rel=1e-12)

    def test_vanishes_monotonically(self):
        g = Grid(32)
        q = to_spectral(sample(g, lambda x1, x2: np.cos(x1) + 0.5 * np.cos(3 * x2)))
        vals = [gamma0(q, q, AlphaParam(2.0**-k)) for k in range(0, 14)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3 * vals[0]


class TestBoundParams:
    @pytest.mark.parametrize("name", ["c1", "c2", "c", "m", "gamma0", "alpha_bar", "horizon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_is_named(self, name, value):
        # a NaN c1, c2, c, m or gamma0 passed every sign check and gave NaN
        # bounds; an infinite horizon failed later, inside velocity_rate_K
        with pytest.raises(ValueError, match=f"bound constant {name} must be finite, got {value!r}"):
            BoundParams(**{name: value})


class TestVelocityRateK:
    def test_t_zero_collapses(self):
        p = BoundParams(c1=1.0, c2=1.0, c=1.0, gamma0=0.0, horizon=1.0)
        assert velocity_rate_K(AlphaParam(0.04), 0.0, p) == pytest.approx(0.4, rel=1e-12)

    def test_frozen_value(self):
        p = BoundParams(horizon=1.0)
        assert velocity_rate_K(AlphaParam(0.01), 1.0, p) == pytest.approx(
            K_001_T1, rel=1e-12
        )

    def test_alpha_zero_gives_zero(self):
        p = BoundParams(gamma0=0.0, horizon=1.0)
        for t in (0.0, 0.3, 1.0):
            assert velocity_rate_K(AlphaParam(0.0), t, p) == 0.0

    def test_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            velocity_rate_K(AlphaParam(0.1), 2.0, BoundParams(horizon=1.0))

    def test_monotone_in_alpha_t_gamma0(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            c1, c2, c = rng.uniform(0.1, 3.0, size=3)
            horizon = rng.uniform(0.2, 2.0)
            base = BoundParams(c1=c1, c2=c2, c=c, gamma0=rng.uniform(0.0, 0.4), horizon=horizon)
            a_lo, a_hi = np.sort(rng.uniform(0.0, 0.3, size=2))
            t_lo, t_hi = np.sort(rng.uniform(0.0, horizon, size=2))
            g_lo, g_hi = np.sort(rng.uniform(0.0, 0.4, size=2))
            t = rng.uniform(0.0, horizon)
            a = rng.uniform(0.0, 0.3)
            assert velocity_rate_K(AlphaParam(a_lo), t, base) <= velocity_rate_K(
                AlphaParam(a_hi), t, base
            ) + 1e-14
            if base.c1 * math.sqrt(a) * horizon + base.gamma0 < 1.0:
                assert velocity_rate_K(AlphaParam(a), t_lo, base) <= velocity_rate_K(
                    AlphaParam(a), t_hi, base
                ) + 1e-14
            lo = BoundParams(c1=c1, c2=c2, c=c, gamma0=g_lo, horizon=horizon)
            hi = BoundParams(c1=c1, c2=c2, c=c, gamma0=g_hi, horizon=horizon)
            assert velocity_rate_K(AlphaParam(a), t, lo) <= velocity_rate_K(
                AlphaParam(a), t, hi
            ) + 1e-14


class TestMaxAdmissibleAlpha:
    def test_frozen_value(self):
        p = BoundParams(c1=1.0, c2=1.0, gamma0=0.0, horizon=0.1, alpha_bar=1e9)
        assert max_admissible_alpha(p) == pytest.approx(ADMISSIBLE_T01, rel=1e-12)

    def test_caps_at_alpha_bar(self):
        p = BoundParams(c1=1.0, c2=1.0, gamma0=0.0, horizon=0.1, alpha_bar=0.5)
        assert max_admissible_alpha(p) == 0.5

    def test_none_when_gamma0_large(self):
        p = BoundParams(c2=1.0, gamma0=1.0, horizon=1.0)
        assert max_admissible_alpha(p) is None

    def test_none_at_long_horizon(self):
        p = BoundParams(gamma0=0.01, horizon=50.0)
        assert max_admissible_alpha(p) is None

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(horizon=0.0)

    def test_equality_when_plugged_back(self):
        for horizon in (0.1, 0.5, 1.0):
            p = BoundParams(c1=1.3, c2=0.7, gamma0=0.05, horizon=horizon, alpha_bar=1e12)
            alpha_star = max_admissible_alpha(p)
            if alpha_star is None:
                continue
            lhs = alpha_star * (p.c1 * horizon) ** 2 + p.gamma0
            rhs = math.exp(2.0 * (2.0 - 2.0 * math.exp(p.c2 * horizon)))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestOsgood:
    def test_t_zero_returns_eta(self):
        assert osgood_bound(0.3, 1.0, 0.0) == pytest.approx(0.3, rel=1e-14)

    def test_eta_near_one_limit(self):
        val = osgood_bound(1.0 - 1e-13, 2.0, 0.7)
        assert val == pytest.approx(math.exp(2.0 - 2.0 * math.exp(-1.4)), rel=1e-10)

    def test_rejects_eta_at_or_above_one(self):
        for eta in (1.0, 1.5):
            with pytest.raises(ValueError):
                osgood_bound(eta, 1.0, 1.0)

    def test_M_at_exp_minus_two(self):
        val, err = quad(lambda r: 1.0 / (r * (2.0 - math.log(r))), math.exp(-2.0), 1.0)
        assert err < 1e-10
        assert osgood_M(math.exp(-2.0)) == pytest.approx(math.log(2.0), rel=1e-12)
        assert val == pytest.approx(math.log(2.0), abs=1e-8)

    def test_bound_closes_the_comparison_identity(self):
        # M(eta) - M(rho) must equal c2*t when rho is the returned bound
        for eta in (0.05, 0.4, 0.9):
            for t in (0.1, 0.7, 2.0):
                rho = osgood_bound(eta, 1.3, t)
                integral, _ = quad(
                    lambda r: 1.0 / (r * (2.0 - math.log(r))), eta, rho
                )
                assert integral == pytest.approx(1.3 * t, abs=1e-8)


class TestFlowRateBound:
    def test_zero_k(self):
        assert flow_rate_bound(0.0, 1.0, 0.0, 1.0, 1.0) == 0.0

    def test_t_equals_s(self):
        k = 0.3
        val = flow_rate_bound(k, 2.0, 2.0, 1.5, 1.0)
        assert val == pytest.approx(2.0 * k ** math.exp(-1.5), rel=1e-12)

    def test_frozen_value(self):
        assert flow_rate_bound(0.01, 1.0, 0.0, 1.0, 1.0) == pytest.approx(
            FLOW_BOUND_001, rel=1e-12
        )

    def test_backward_rejected(self):
        with pytest.raises(ValueError):
            flow_rate_bound(0.1, 0.0, 1.0, 1.0, 1.0)


class TestVorticityRateBound:
    def test_zero_k(self):
        mod = ModulusEstimate(0.5)
        assert vorticity_rate_bound(0.0, mod, 2.0, BoundParams()) == 0.0

    def test_branch_selection_at_T_zero_like(self):
        # for K < 1 and tiny horizon the max picks the smaller exponent
        mod = ModulusEstimate(0.5)
        params = BoundParams(c=1.0, m=1.0, horizon=1e-12)
        k = 0.0001
        val = vorticity_rate_bound(k, mod, 2.0, params)
        assert val == pytest.approx(k**0.25, rel=1e-6)

    def test_frozen_value(self):
        mod = ModulusEstimate(0.5)
        params = BoundParams(c=1.0, m=2.0, horizon=1.0)
        assert vorticity_rate_bound(0.01, mod, 2.0, params) == pytest.approx(
            VORT_BOUND_EXAMPLE, rel=1e-12
        )

    def test_branches_cross_at_half_inverse_2p(self):
        params = BoundParams(c=1.0, m=1.0, horizon=1e-300)
        for p in (1.5, 2.0, 4.0):
            s = 1.0 / (2.0 * p)
            mod = ModulusEstimate(s)
            k = 0.01
            assert mod(k) == pytest.approx(k ** (1.0 / (2.0 * p)), rel=1e-12)
            val = vorticity_rate_bound(k, mod, p, params)
            assert val == pytest.approx(k**s, rel=1e-9)

    def test_p_range_validated(self):
        mod = ModulusEstimate(0.5)
        for p in (1.0, math.inf):
            with pytest.raises(ValueError):
                vorticity_rate_bound(0.1, mod, p, BoundParams())


class TestModulusEstimate:
    def test_besov_needs_s(self):
        with pytest.raises(TypeError):
            ModulusEstimate()
        for s in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"exponent s in \(0, 1\], got"):
                ModulusEstimate(s)


class TestBesovFit:
    def test_lipschitz_saturates_near_one(self):
        g = Grid(128)
        f = sample(g, lambda x1, x2: np.cos(x1))
        fit = besov_modulus_fit(f, 2.0)
        assert fit.s == pytest.approx(1.0, abs=0.05)
        assert fit.s <= 1.0

    def test_disc_patch_half(self):
        g = Grid(128)
        patch = disc_patch((np.pi, np.pi), 1.0, 1.0, g)
        fit = besov_modulus_fit(to_physical(patch), 2.0)
        assert fit.s == pytest.approx(0.5, abs=0.15)

    def test_zero_field_degenerate(self):
        g = Grid(32)
        f = sample(g, lambda x1, x2: np.zeros_like(x1))
        with pytest.raises(ValueError):
            besov_modulus_fit(f, 2.0)


class TestLinearFit:
    def test_matches_scipy_linregress_bitwise(self):
        from scipy.stats import linregress

        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(3, 12))
            x = np.log(rng.uniform(1e-4, 1.0, n))
            y = rng.normal(size=n) * rng.uniform(0.0, 3.0) + x * rng.normal()
            ref = linregress(x, y)
            assert linear_fit(x, y) == (ref.slope, ref.intercept, ref.rvalue, ref.stderr)

    def test_exact_line(self):
        slope, intercept, r, stderr = linear_fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert (slope, intercept, r, stderr) == (2.0, 1.0, 1.0, 0.0)

    def test_constant_y_has_nan_correlation(self):
        slope, intercept, r, stderr = linear_fit([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert slope == 0.0 and intercept == 4.0
        assert math.isnan(r) and math.isnan(stderr)

    def test_equal_x_rejected(self):
        with pytest.raises(ValueError, match="all x values are equal"):
            linear_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([0.0, 1.0], [0.0, 1.0])


class TestT95Quantile:
    def test_matches_40_digit_root_of_the_incomplete_beta(self):
        # P(|T| > t) = I_{df / (df + t^2)}(df / 2, 1 / 2) = 0.05
        import mpmath

        worst = 0.0
        with mpmath.workdps(40):
            for df in range(1, 201):
                t = t95_quantile(df)
                a, b = mpmath.mpf(df) / 2, mpmath.mpf(1) / 2
                exact = mpmath.findroot(
                    lambda s: mpmath.betainc(a, b, 0, df / (df + s * s), regularized=True)
                    - mpmath.mpf("0.05"),
                    mpmath.mpf(t),
                )
                worst = max(worst, float(abs(t - exact) / exact))
        assert worst < 1e-14

    @pytest.mark.parametrize("df", [0, -1, 2.5])
    def test_rejects_non_positive_or_fractional_df(self, df):
        with pytest.raises(ValueError, match="df must be a positive integer"):
            t95_quantile(df)
