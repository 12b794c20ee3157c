"""Closed-form evaluators for the convergence-rate bounds.

Everything here is exact arithmetic on the double-exponential rate
K(alpha, t), the alpha/horizon admissibility threshold, the Osgood-lemma
conclusion it derives from, the flow-distance rate, and the L^p vorticity
rate driven by a translation modulus of continuity.  Constants are not
pinned by the theory, so they enter as explicit parameters.  The line fit
and the Student-t quantile of the measured rates live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .spectral import PhysicalField, SpectralField
from .vorticity import AlphaParam, laplacian_l2, lp_norm, velocity, velocity_l2_distance


@dataclass(frozen=True)
class BoundParams:
    """Constants of the closed-form bounds.

    c1, c2 enter the double-exponential velocity rate, c the trailing
    sqrt(alpha) tail and the vorticity-rate exponent, m is the sup norm of
    the initial vorticity, gamma0 the initial-data gap, alpha_bar the
    threshold below which gamma0 <= 1/2 is assumed, and horizon the time T.
    """

    c1: float = 1.0
    c2: float = 1.0
    c: float = 1.0
    m: float = 1.0
    gamma0: float = 0.0
    alpha_bar: float = 1.0
    horizon: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"bound constant {f.name} must be finite, got {getattr(self, f.name)!r}")
        if min(self.c1, self.c2, self.c) <= 0:
            raise ValueError("constants c1, c2, c must be positive")
        if self.m < 0 or self.gamma0 < 0:
            raise ValueError("m and gamma0 must be nonnegative")
        if self.alpha_bar <= 0 or self.horizon <= 0:
            raise ValueError("alpha_bar and horizon must be positive")


@dataclass(frozen=True)
class ModulusEstimate:
    """Translation modulus of continuity psi(h) = h^s of Besov data."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:  # NaN included
            raise ValueError(f"besov modulus requires an exponent s in (0, 1], got {self.s}")

    def __call__(self, h: float) -> float:
        if h < 0:
            raise ValueError("modulus arguments must be nonnegative")
        return float(h**self.s)


def gamma0(
    q0_alpha: SpectralField, omega0: SpectralField, a: AlphaParam
) -> float:
    """Initial-data gap ||u^alpha_0 - u_0||_{L2} + alpha ||lap u^alpha_0||_{L2},
    the first term by `velocity_l2_distance`."""
    gap = velocity_l2_distance(q0_alpha, a, omega0, AlphaParam(0.0))
    return gap + a.alpha * laplacian_l2(velocity(q0_alpha, a))


def velocity_rate_K(a: AlphaParam, t: float, p: BoundParams) -> float:
    """Velocity-error rate
    exp{2 - 2 exp(-c2 t)} (c1 sqrt(alpha) T + gamma0)^{exp(-c2 t)} + c sqrt(alpha)."""
    if not 0.0 <= t <= p.horizon:
        raise ValueError(f"t={t} outside [0, horizon={p.horizon}]")
    root = math.sqrt(a.alpha)
    base = p.c1 * root * p.horizon + p.gamma0
    expo = math.exp(-p.c2 * t)
    return math.exp(2.0 - 2.0 * expo) * base**expo + p.c * root


def max_admissible_alpha(p: BoundParams) -> float | None:
    """Largest filter scale for which the double-exponential velocity rate
    is valid at this horizon:
    min(alpha_bar, (exp{2(2 - 2 exp(c2 T))} - gamma0) / (c1 T)^2), or None
    when no positive alpha is admissible."""
    if p.horizon <= 0:
        raise ValueError("the admissibility threshold requires horizon > 0")
    numerator = math.exp(2.0 * (2.0 - 2.0 * math.exp(p.c2 * p.horizon))) - p.gamma0
    if numerator <= 0.0:
        return None
    return min(p.alpha_bar, numerator / (p.c1 * p.horizon) ** 2)


def osgood_bound(eta: float, c2: float, t: float) -> float:
    """Conclusion of the Osgood comparison with mu(x) = x (2 - log x):
    any rho with rho <= eta + int c2 mu(rho) obeys
    rho(t) <= exp{2 - 2 exp(-c2 t)} eta^{exp(-c2 t)}."""
    if not 0.0 < eta < 1.0:
        raise ValueError("the logarithmic substitution requires eta in (0, 1)")
    if t < 0:
        raise ValueError("t must be nonnegative")
    expo = math.exp(-c2 * t)
    return math.exp(2.0 - 2.0 * expo) * eta**expo


def flow_rate_bound(k_val: float, t: float, s: float, c: float, horizon: float) -> float:
    """Squared-distance rate for the two flows:
    2 exp{2 - 2 exp(-c (t - s))} k_val^{exp(-c horizon)}."""
    if s > t:
        raise ValueError("the estimate runs backward: requires s <= t")
    if k_val < 0:
        raise ValueError("k_val must be nonnegative")
    return 2.0 * math.exp(2.0 - 2.0 * math.exp(-c * (t - s))) * k_val ** math.exp(
        -c * horizon
    )


def vorticity_rate_bound(
    k_val: float, mod: ModulusEstimate, p: float, params: BoundParams
) -> float:
    """L^p vorticity rate
    c m^{1 - 1/p} max(psi(k_val), k_val^{exp(-c T) / (2p)})."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if k_val < 0:
        raise ValueError("k_val must be nonnegative")
    tail_exponent = math.exp(-params.c * params.horizon) / (2.0 * p)
    tail = k_val**tail_exponent
    return params.c * params.m ** (1.0 - 1.0 / p) * max(mod(k_val), tail)


def linear_fit(x, y) -> tuple:
    """Least-squares line y ~ slope x + intercept through at least 3 points.

    Returns (slope, intercept, r, stderr of the slope) as numpy floats, by
    the arithmetic of scipy.stats.linregress: population moments from
    np.cov, r clipped to [-1, 1] (nan when y is constant) and
    stderr = sqrt((1 - r^2) syy / sxx / (n - 2)).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("a line fit needs at least 3 points")
    if np.amax(x) == np.amin(x):
        raise ValueError("cannot fit a line when all x values are equal")
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    if syy == 0.0:
        r = np.float64(np.nan if sxy == 0.0 else 0.0)
    else:
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    slope = sxy / sxx
    intercept = np.mean(y) - slope * np.mean(x)
    stderr = np.sqrt((1 - r**2) * syy / sxx / (x.size - 2))
    return slope, intercept, r, stderr


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's T with df >= 3 degrees of freedom.

    The finite sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even
    df) in theta = atan(t / sqrt(df)).  The powers of cos^2 theta, which is
    close to 1 for large df, are taken as exp(k log1p(-sin^2 theta)) so that
    their rounding does not grow with k.
    """
    r = df + t * t
    log_cos2 = math.log1p(-(t * t) / r)
    odd = df % 2 == 1
    c, terms = 1.0, [1.0]
    for k in range(1, (df - 1) // 2 if odd else df // 2):
        c *= (2 * k) / (2 * k + 1) if odd else (2 * k - 1) / (2 * k)
        terms.append(c * math.exp(k * log_cos2))
    total = math.fsum(terms)
    if not odd:
        return t / math.sqrt(r) * total  # sin theta (1 + cos^2/2 + ...)
    theta = math.atan(t / math.sqrt(df))
    return (theta + t * math.sqrt(df) / r * total) / (math.pi / 2)


def t95_quantile(df: int) -> float:
    """The 0.975 quantile of Student's t with integer df >= 1: the factor
    that turns a standard error into a two-sided 95 % half-width.

    With p = 0.975 there are closed forms for df = 1, tan(pi (p - 1/2)) =
    cot(pi / 40), and df = 2, (2p - 1) / sqrt(2p (1 - p)).  Otherwise
    Newton's method solves P(|T| <= t) = 0.95 inside a shrinking bracket
    until the bracket holds adjacent doubles.
    Within 1.2e-15 relative of the exact quantile for df <= 200.
    """
    if df < 1 or int(df) != df:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    df = int(df)
    if df == 1:
        return 1.0 / math.tan(math.pi * 0.025)
    if df == 2:
        return 0.95 / math.sqrt(2.0 * 0.975 * 0.025)
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    lo, hi = 1.959963984540054, t95_quantile(2)  # the normal and df = 2 quantiles
    t = lo
    for _ in range(200):  # ten at most for df <= 200
        gap = _t_central(t, df) - 0.95
        if gap == 0.0:
            return t
        if gap < 0.0:
            lo = t
        else:
            hi = t
        if math.nextafter(lo, hi) >= hi:
            return t
        # the density of |T| at t
        slope = 2.0 * math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        t -= gap / slope
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    return t


def default_shifts(n: int) -> list[tuple[int, int]]:
    """Axis and diagonal cell displacements at dyadic magnitudes up to n/8."""
    shifts = []
    j = 1
    while j <= n // 8:
        shifts.extend([(j, 0), (0, j), (j, j)])
        j *= 2
    return shifts


def besov_modulus_fit(omega0: PhysicalField, p: float) -> ModulusEstimate:
    """Fit the translation modulus ||f(. + h) - f||_{L^p} ~ |h|^s.

    Shifts are the integer cell displacements of `default_shifts`
    (grid-commensurate, evaluated by array rolls); the exponent is the
    log-log least-squares slope, capped at 1 since Lipschitz data saturates
    there.
    """
    g = omega0.grid
    hs, vals = [], []
    for j1, j2 in default_shifts(g.n):
        shifted = np.roll(omega0.values, (-j1, -j2), axis=(0, 1))
        diff = PhysicalField(g, shifted - omega0.values)
        value = lp_norm(diff, p)
        if value > 0.0:
            hs.append(g.dx * math.hypot(j1, j2))
            vals.append(value)
    if len(hs) < 3:
        raise ValueError("degenerate data: translation differences vanish")
    slope = float(linear_fit(np.log(hs), np.log(vals))[0])
    if slope <= 0:
        raise ValueError("modulus does not vanish at zero: nonpositive slope")
    return ModulusEstimate(min(slope, 1.0))
