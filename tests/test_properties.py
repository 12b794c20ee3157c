"""Property tests for the identities of the half-spectrum layout."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alphaeuler import (
    AlphaParam,
    Grid,
    PhysicalField,
    biot_savart,
    helmholtz_filter,
    helmholtz_unfilter,
    lp_norm,
    restrict,
    to_physical,
    to_spectral,
)
from alphaeuler.spectral import l2_norm

TOL = 1e-12

# Few, reproducible examples: the suite's run time stays where it was.
PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)

sizes = st.sampled_from([8, 16, 32])
seeds = st.integers(0, 2**32 - 1)


@st.composite
def physical_fields(draw):
    n = draw(sizes)
    values = draw(
        arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3, allow_subnormal=False))
    )
    return PhysicalField(Grid(n), values)


@PROPERTY
@given(physical_fields())
def test_transform_round_trip(f):
    back = to_physical(to_spectral(f))
    assert np.abs(back.values - f.values).max() <= TOL * np.abs(f.values).max()


@PROPERTY
@given(sizes, seeds, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_l2_norm_matches_collocation_quadrature(n, seed, a, b):
    # cos(n/2 x2) and cos(n/2 (x1 + x2)) live in the k2 = n/2 column
    g = Grid(n)
    x1, x2 = g.mesh
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, n)) + a * np.cos(n / 2 * x2) + b * np.cos(n / 2 * (x1 + x2))
    f = PhysicalField(g, values)
    assert np.isclose(l2_norm(to_spectral(f)), lp_norm(f, 2), rtol=TOL, atol=0.0)


@PROPERTY
@given(st.sampled_from([(16, 8), (32, 8), (64, 16), (64, 32)]), seeds)
def test_restrict_of_band_limited_field_is_coarse_transform(sizes_pair, seed):
    fine, coarse = Grid(sizes_pair[0]), Grid(sizes_pair[1])
    kmax = coarse.kmax_dealias
    rng = np.random.default_rng(seed)
    modes = [(k1, k2) for k1 in range(-kmax, kmax + 1) for k2 in range(kmax + 1)]
    amps = rng.standard_normal((len(modes), 2))

    def field(grid):
        x1, x2 = grid.mesh
        values = sum(
            a * np.cos(k1 * x1 + k2 * x2) + b * np.sin(k1 * x1 + k2 * x2)
            for (k1, k2), (a, b) in zip(modes, amps)
        )
        return to_spectral(PhysicalField(grid, values))

    down = restrict(field(fine), coarse).coeffs
    direct = field(coarse).coeffs
    assert np.abs(down - direct).max() <= TOL * np.abs(direct).max()


@PROPERTY
@given(sizes, seeds, st.floats(0.0, 10.0))
def test_helmholtz_unfilter_inverts_filter(n, seed, alpha):
    g = Grid(n)
    rng = np.random.default_rng(seed)
    q = to_spectral(PhysicalField(g, rng.standard_normal((n, n))))
    q.coeffs[0, 0] = 0.0
    v = biot_savart(q)
    a = AlphaParam(alpha)
    back = helmholtz_unfilter(helmholtz_filter(v, a), a)
    scale = max(np.abs(v.u1.coeffs).max(), np.abs(v.u2.coeffs).max())
    assert np.abs(back.u1.coeffs - v.u1.coeffs).max() <= TOL * scale
    assert np.abs(back.u2.coeffs - v.u2.coeffs).max() <= TOL * scale
