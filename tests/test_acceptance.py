"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The sweeps behind criteria 4-6 and 8 are shared module fixtures; every
tolerance is asserted exactly as stated, so a red test here means the
corresponding guarantee does not hold on this machine.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import alphaeuler as ae
from alphaeuler import (
    AlphaParam,
    BoundParams,
    DatumSpec,
    ExperimentConfig,
    Grid,
    PhysicalField,
    SolverConfig,
    SpectralField,
    SimState,
)
from alphaeuler.lagrangian import ParticleSet, TrajectoryStream, seed_particles
from alphaeuler.solver import step

ALPHAS = tuple(2.0**-k for k in range(4, 11))
SMOOTH = {"seed": 11, "spectrum_slope": 2.0, "k_max": 4}


def criterion(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def smooth_sweep():
    cfg = ExperimentConfig(
        datum=DatumSpec("smooth_random", dict(SMOOTH, scale=10.0)),
        alpha_list=ALPHAS,
        n=128,
        n_ref=256,
        t_end=1.0,
        samples=32,
        particle_stride=2,
        substeps=2,
        workers=2,
    )
    return ae.run_sweep(cfg)


@pytest.fixture(scope="module")
def gentle_sweep():
    # weak-amplitude twin of the smooth sweep: keeps the velocity gap
    # delta = ||u^alpha - u||_{L1 L1} below 1 so the logarithmic
    # flow-distance bound applies at every alpha in the sweep
    cfg = ExperimentConfig(
        datum=DatumSpec("smooth_random", dict(SMOOTH, scale=0.35)),
        alpha_list=ALPHAS,
        n=128,
        n_ref=256,
        t_end=1.0,
        samples=32,
        particle_stride=2,
        substeps=2,
        workers=2,
    )
    return ae.run_sweep(cfg)


@pytest.fixture(scope="module")
def patch_sweep():
    # the sharp disc needs a shorter horizon at this resolution: by T = 1
    # the under-resolved edge filaments swamp the alpha-signal in L2
    cfg = ExperimentConfig(
        datum=DatumSpec("disc_patch", {"radius": 1.0, "amplitude": 1.0}),
        alpha_list=ALPHAS,
        n=256,
        n_ref=512,
        t_end=0.5,
        samples=16,
        particle_stride=4,
        substeps=2,
        workers=2,
    )
    return ae.run_sweep(cfg)


@pytest.fixture(scope="module")
def transport_run():
    """A filtered run that traces the particle lattice forward as its
    samples arrive, and keeps the velocity samples for the back-traces."""
    g = Grid(128)
    q0 = SpectralField(g, ae.smooth_random(grid=g, **SMOOTH).coeffs * 10.0)
    times = np.linspace(0.0, 1.0, 65)
    forward = TrajectoryStream(g, seed_particles(g), substeps=4)
    velocities, positions = [], []

    def follow(s, u):
        velocities.append(u.physical())
        positions.append(forward.push(s.t, velocities[-1]))

    sim = ae.run(q0, AlphaParam(0.1), SolverConfig(t_end=1.0, sample_times=times), on_sample=follow)
    return g, q0, sim, ParticleSet(positions[-1], 1.0), (times, velocities)


def trace_back(particles, grid, samples):
    """The particles, at the last sample time, traced back to the first
    through the samples pushed last to first."""
    times, velocities = samples
    stream = TrajectoryStream(grid, particles, substeps=4)
    positions = [stream.push(t, snapshot) for t, snapshot in zip(times[::-1], velocities[::-1])]
    return ParticleSet(positions[-1], float(times[0]))


def test_criterion_1_spectral_identities():
    g = Grid(32)
    q = ae.smooth_random(3, 1.5, 9, g)
    v = ae.biot_savart(q)
    div = np.abs(ae.divergence(v).coeffs).max()
    curl_err = np.abs(ae.curl(v).coeffs - q.coeffs).max()

    a = AlphaParam(0.37)
    back = ae.helmholtz_unfilter(ae.helmholtz_filter(v, a), a)
    filt_err = max(
        np.abs(back.u1.coeffs - v.u1.coeffs).max(),
        np.abs(back.u2.coeffs - v.u2.coeffs).max(),
    ) / np.abs(v.u2.coeffs).max()

    rng = np.random.default_rng(0)
    f = PhysicalField(g, rng.standard_normal((g.n, g.n)))
    rt = np.abs(ae.to_physical(ae.to_spectral(f)).values - f.values).max()
    rt /= np.abs(f.values).max()

    g8 = Grid(8)
    f8 = PhysicalField(g8, rng.standard_normal((8, 8)))
    fast = ae.to_spectral(f8).coeffs
    x = g8.x
    ks = np.fft.fftfreq(8, 1.0 / 8)
    slow = np.zeros((8, 8), dtype=complex)
    for i1 in range(8):
        for i2 in range(8):
            phases = np.exp(-1j * (ks[i1] * x[:, None] + ks[i2] * x[None, :]))
            slow[i1, i2] = np.sum(f8.values * phases) / 64.0
    dft_err = np.abs(fast - slow[:, :5]).max()  # the stored k2 >= 0 columns

    ok = div < 1e-12 and curl_err < 1e-12 and filt_err < 1e-12 and rt < 1e-12 and dft_err < 1e-12
    assert criterion(
        1,
        ok,
        f"div={div:.1e} curl={curl_err:.1e} filter_rt={filt_err:.1e} "
        f"fft_rt={rt:.1e} dft_oracle={dft_err:.1e} (all <= 1e-12)",
    )


def test_criterion_2_conservation():
    g = Grid(128)
    q0 = SpectralField(g, ae.smooth_random(grid=g, **SMOOTH).coeffs * 10.0)
    times = np.linspace(0.0, 1.0, 5)

    drifts = {}
    for alpha in (0.0, 0.1):
        sim = ae.run(q0, AlphaParam(alpha), SolverConfig(t_end=1.0, cfl=0.4, sample_times=times))
        drifts[alpha] = (
            sim.monitor.alpha_norm_drift().max(),
            sim.monitor.q_l2_drift().max(),
        )
    small = all(max(pair) <= 1e-6 for pair in drifts.values())

    ratios = {}
    for alpha in (0.0, 0.1):
        worst = {}
        for dt in (0.01, 0.005):
            sim = ae.run(
                q0, AlphaParam(alpha), SolverConfig(t_end=1.0, fixed_dt=dt, sample_times=times)
            )
            worst[dt] = max(
                sim.monitor.alpha_norm_drift().max(), sim.monitor.q_l2_drift().max()
            )
        ratios[alpha] = worst[0.01] / worst[0.005]
    improves = all(r >= 16.0 for r in ratios.values())

    detail = (
        f"drift(a=0)={max(drifts[0.0]):.2e} drift(a=0.1)={max(drifts[0.1]):.2e} (<= 1e-6); "
        f"dt-halving ratios {ratios[0.0]:.1f}, {ratios[0.1]:.1f} (>= 16)"
    )
    assert criterion(2, small and improves, detail)


def test_criterion_3_steady_shear():
    g = Grid(32)
    q0 = ae.shear(g)
    worst = 0.0
    for alpha in (0.0, 0.1, 1.0):
        s = SimState(0.0, q0, AlphaParam(alpha))
        cfg = SolverConfig(t_end=1e9)
        for _ in range(1000):
            s = step(s, cfg)
        diff = PhysicalField(g, ae.to_physical(s.q).values - ae.to_physical(q0).values)
        worst = max(worst, ae.lp_norm(diff, 2))
    steady = worst <= 1e-10

    sweep = ae.run_sweep(
        ExperimentConfig(
            datum=DatumSpec("shear"),
            alpha_list=(0.5,),
            n=32,
            n_ref=64,
            t_end=0.5,
            samples=4,
            particle_stride=4,
        )
    )
    rec = sweep.records[0]
    expected = 0.5 / 1.5 * np.pi * np.sqrt(2.0)
    gap = np.abs(rec.vel_l2_err[1:] - expected).max()
    formula = gap <= 1e-8

    assert criterion(
        3,
        steady and formula,
        f"drift over 1e3 steps {worst:.1e} (<= 1e-10); "
        f"|vel_err - a/(1+a) pi sqrt(2)| = {gap:.1e} (<= 1e-8)",
    )


def test_criterion_4_velocity_rate(smooth_sweep):
    recs = smooth_sweep.ok_records()
    sups = [r.sup_vel_err() for r in recs]
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    slope = smooth_sweep.velocity_rate.slope
    ok = decreasing and 0.4 <= slope <= 1.1
    assert criterion(
        4,
        ok,
        f"sup_t velocity errors strictly decreasing={decreasing}; "
        f"log-log slope {slope:.3f} in [0.4, 1.1] (r2={smooth_sweep.velocity_rate.r2:.4f})",
    )


def test_criterion_5_vorticity_rate(smooth_sweep, patch_sweep):
    recs = smooth_sweep.ok_records()
    sups = [r.sup_vort_err(2.0) for r in recs]
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    smooth_slope = smooth_sweep.vorticity_rates[2.0].slope

    patch_slope = patch_sweep.vorticity_rates[2.0].slope
    patch_drift = max(r.q_l2_drift.max() for r in patch_sweep.ok_records())

    ok = decreasing and smooth_slope >= 0.1 and patch_slope >= 0.05 and patch_drift <= 1e-2
    assert criterion(
        5,
        ok,
        f"smooth L2 errors decreasing={decreasing}, slope {smooth_slope:.3f} (>= 0.1); "
        f"disc patch slope {patch_slope:.3f} (>= 0.05), patch L2 drift {patch_drift:.1e} (<= 1e-2)",
    )


def test_criterion_6_energy_of_limit(smooth_sweep):
    recs = smooth_sweep.ok_records()
    gaps = [abs(r.energy[-1] - smooth_sweep.u0_l2) for r in recs]
    vanishing = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 0.1 * gaps[0]

    residuals = [r.alpha_norm[-1] ** 2 - r.energy[-1] ** 2 for r in recs]
    slope = np.polyfit(np.log([r.alpha for r in recs]), np.log(residuals), 1)[0]
    proportional = 0.85 <= slope <= 1.15

    assert criterion(
        6,
        vanishing and proportional,
        f"|energy(T) - energy(0)| falls {gaps[0]:.3e} -> {gaps[-1]:.3e}; "
        f"alpha ||grad u||^2 slope {slope:.3f} in [0.85, 1.15]",
    )


def test_criterion_7_lagrangian_consistency(transport_run):
    g, q0, sim, forward, samples = transport_run

    feet = trace_back(seed_particles(g, t=1.0), g, samples)
    recon = ae.lagrangian_vorticity(ae.to_physical(q0), feet)
    q_end = ae.to_physical(sim.final.q)
    rel_l1 = ae.lp_norm(PhysicalField(g, recon.values - q_end.values), 1) / ae.lp_norm(
        q_end, 1
    )

    p0 = seed_particles(g)
    defect = ae.measure_preservation_defect(
        p0, forward, ae.sample(g, lambda x1, x2: np.cos(x2))
    )
    back = trace_back(forward, g, samples)
    comp = float(ae.torus_distance(back.positions, p0.positions).mean())

    ok = rel_l1 <= 0.05 and defect <= 1e-4 and comp <= 1e-6
    assert criterion(
        7,
        ok,
        f"transport reconstruction rel L1 {rel_l1:.2e} (<= 5e-2); "
        f"measure defect {defect:.1e} (<= 1e-4); round trip {comp:.1e} (<= 1e-6)",
    )


def test_criterion_8_flow_distance_bound(gentle_sweep):
    recs = gentle_sweep.ok_records()
    applicable = all(r.delta[-1] < 1.0 for r in recs)
    c_cal = float(np.max(recs[0].flow_dist)) * abs(math.log(recs[0].delta[-1]))
    holds = True
    margins = []
    for r in recs[1:]:
        bound = c_cal / abs(math.log(r.delta[-1]))
        dist = float(np.max(r.flow_dist))
        margins.append(bound / dist)
        holds &= dist <= bound
    assert criterion(
        8,
        applicable and holds,
        f"delta < 1 everywhere={applicable}; C_cal={c_cal:.3e} calibrated at "
        f"alpha={recs[0].alpha}; bound/distance margins "
        + " ".join(f"{m:.1f}" for m in margins),
    )


def test_criterion_9_bound_evaluators():
    worst_quad = 0.0
    for eta in np.linspace(0.02, 0.98, 20):
        for t in np.linspace(0.0, 2.0, 20):
            rho = ae.osgood_bound(float(eta), 1.3, float(t))
            integral, _ = quad(
                lambda r: 1.0 / (r * (2.0 - math.log(r))),
                eta,
                rho,
                epsabs=1e-12,
                epsrel=1e-12,
            )
            worst_quad = max(worst_quad, abs(integral - 1.3 * t))
    quad_ok = worst_quad <= 1e-8

    worst_eq = 0.0
    for horizon in (0.1, 0.5, 1.0, 2.0):
        p = BoundParams(c1=1.3, c2=0.7, gamma0=0.05, horizon=horizon, alpha_bar=1e15)
        alpha_star = ae.max_admissible_alpha(p)
        if alpha_star is None:
            continue
        lhs = alpha_star * (p.c1 * horizon) ** 2 + p.gamma0
        rhs = math.exp(2.0 * (2.0 - 2.0 * math.exp(p.c2 * horizon)))
        worst_eq = max(worst_eq, abs(lhs - rhs) / rhs)
    eq_ok = worst_eq <= 1e-12

    rng = np.random.default_rng(99)
    mono_ok = True
    for _ in range(1000):
        c1, c2, c = rng.uniform(0.1, 3.0, size=3)
        horizon = rng.uniform(0.2, 2.0)
        gamma = rng.uniform(0.0, 0.4)
        p = BoundParams(c1=c1, c2=c2, c=c, gamma0=gamma, horizon=horizon)
        t = rng.uniform(0.0, horizon)
        a_lo, a_hi = np.sort(rng.uniform(0.0, 0.3, size=2))
        g_lo, g_hi = np.sort(rng.uniform(0.0, 0.4, size=2))
        mono_ok &= ae.velocity_rate_K(AlphaParam(a_lo), t, p) <= ae.velocity_rate_K(
            AlphaParam(a_hi), t, p
        ) + 1e-14
        a = rng.uniform(0.0, 0.3)
        if p.c1 * math.sqrt(a) * horizon + gamma < 1.0:
            t_lo, t_hi = np.sort(rng.uniform(0.0, horizon, size=2))
            mono_ok &= ae.velocity_rate_K(AlphaParam(a), t_lo, p) <= ae.velocity_rate_K(
                AlphaParam(a), t_hi, p
            ) + 1e-14
        lo = BoundParams(c1=c1, c2=c2, c=c, gamma0=g_lo, horizon=horizon)
        hi = BoundParams(c1=c1, c2=c2, c=c, gamma0=g_hi, horizon=horizon)
        mono_ok &= ae.velocity_rate_K(AlphaParam(a), t, lo) <= ae.velocity_rate_K(
            AlphaParam(a), t, hi
        ) + 1e-14

    assert criterion(
        9,
        quad_ok and eq_ok and mono_ok,
        f"osgood vs quadrature {worst_quad:.1e} (<= 1e-8) on 20x20 grid; "
        f"admissibility equality {worst_eq:.1e} (<= 1e-12); "
        f"K monotone over 1000 draws={mono_ok}",
    )


def test_criterion_10_besov_diagnostics():
    g = Grid(512)
    disc = ae.disc_patch((np.pi, np.pi), 1.0, 1.0, g)
    disc_fit = ae.besov_modulus_fit(ae.to_physical(disc), 2.0)
    disc_ok = abs(disc_fit.s - 0.5) <= 0.1

    smooth = ae.sample(g, lambda x1, x2: np.cos(x1))
    smooth_fit = ae.besov_modulus_fit(smooth, 2.0)
    smooth_ok = abs(smooth_fit.s - 1.0) <= 0.05 and smooth_fit.s <= 1.0

    _, meta0 = ae.fractal_patch("koch-like", 0, 1.0, g)
    _, meta4 = ae.fractal_patch("koch-like", 4, 1.0, g)
    dim0_ok = abs(meta0["boundary_dim_estimate"] - 1.0) <= 0.1
    dim4_ok = abs(meta4["boundary_dim_estimate"] - meta4["nominal_dimension"]) <= 0.1

    ok = disc_ok and smooth_ok and dim0_ok and dim4_ok
    assert criterion(
        10,
        ok,
        f"disc modulus s={disc_fit.s:.3f} (0.5 +/- 0.1); smooth s={smooth_fit.s:.3f} "
        f"(~1 capped); box dims {meta0['boundary_dim_estimate']:.3f} vs 1.0, "
        f"{meta4['boundary_dim_estimate']:.3f} vs {meta4['nominal_dimension']:.3f} (+/- 0.1)",
    )
