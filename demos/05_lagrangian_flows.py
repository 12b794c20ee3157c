"""Lagrangian flow maps: measure preservation, transport reconstruction,
and the logarithmic flow-distance estimate.

The demo makes the calls of the `flows` command: the unfiltered reference
(`reference_run`), one filtered solve (`filtered_solve`), each tracing its
particle lattice forward as its samples arrive, and the time-integrated L1
velocity gap delta between them (`compare_bands`).  Back-trajectory foot
points, traced through the solve's velocity samples from the last to the
first, rebuild the vorticity by composition with the initial datum, and
the distance between the filtered and unfiltered flow maps is compared
against C / |log delta|.

Run:  python3 demos/05_lagrangian_flows.py
"""

import numpy as np

import alphaeuler as ae
from alphaeuler.harness import compare_bands, filtered_solve, reference_run
from alphaeuler.lagrangian import TrajectoryStream, seed_particles
from alphaeuler.spectral import unpack_band

# gentle amplitude keeps delta = ||u^alpha - u||_{L1 L1} below one, the
# regime where the logarithmic estimate applies
alpha = 0.05
cfg = ae.ExperimentConfig(
    datum=ae.DatumSpec(
        "smooth_random", {"seed": 11, "spectrum_slope": 2.0, "k_max": 4, "scale": 1.5}
    ),
    alpha_list=(alpha,),
    n=64,
    n_ref=64,
    t_end=1.0,
    samples=32,
)
ref = reference_run(cfg)
solve = filtered_solve(alpha, ref.omega0, cfg)
g, times = ref.grid, ref.times

# Measure preservation: the flow of a divergence-free field keeps cell
# averages of any observable.
p0 = seed_particles(g)
fwd = ae.ParticleSet(solve.trajectory[-1], 1.0)
f = ae.sample(g, lambda x1, x2: np.cos(x2))
print(f"measure-preservation defect: {ae.measure_preservation_defect(p0, fwd, f):.2e}")

# Back-trajectories reconstruct the transported vorticity: the solve's
# velocity samples, made again from its samples, pushed last to first.
qs = [unpack_band(band, g) for band in solve.bands]
back = TrajectoryStream(g, seed_particles(g, t=1.0), substeps=4)
for t, q in zip(times[::-1], qs[::-1]):
    back.push(t, ae.velocity(q, ae.AlphaParam(alpha)).physical())
feet = ae.ParticleSet(back.finish()[-1], 0.0)
recon = ae.lagrangian_vorticity(ae.to_physical(ref.omega0), feet)
q_end = ae.to_physical(qs[-1])
rel = ae.lp_norm(ae.PhysicalField(g, recon.values - q_end.values), 1) / ae.lp_norm(q_end, 1)
print(f"transport reconstruction, relative L1 gap: {rel:.2e}")

# Flow distance vs the logarithmic bound.
delta = float(compare_bands(solve.bands, alpha, ref.bands, 0.0, g, times)[2][-1])
comp = ae.flow_distance(fwd, ae.ParticleSet(ref.trajectory[-1], 1.0), delta=delta, c_cal=1.0)
print(f"\ndelta = ||u^alpha - u||_L1L1 = {comp.delta:.4f} (bound applies: {comp.applicable})")
print(f"mean flow distance: {comp.mean_distance:.5f}")
print(f"rms flow distance:  {comp.l2_distance:.5f}")
print(f"g_delta functional: {comp.g_delta:.5f}")
print(f"1/|log delta| unit bound: {comp.log_bound:.5f}")
