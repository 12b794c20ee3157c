"""Lagrangian flow maps: measure preservation, transport reconstruction,
and the logarithmic flow-distance estimate.

The demo makes the calls of the `flows` command: the datum and its
restriction to the study grid (`study_datum`), the unfiltered reference
run of the datum (`banded_run`), one filtered solve (`filtered_solve`),
each particle lattice traced forward from its run's samples
(`trace_bands`), and the time-integrated L1 velocity gap delta between
them (`compare_bands`).  Each trace yields the lattice one sample at a
time; only the last positions are kept.  Back-trajectory foot points,
traced through the solve's velocity samples from the last to the first,
rebuild the vorticity by composition with the initial datum, and the
distance between the filtered and unfiltered flow maps is compared
against C / |log delta|.

Run:  python3 demos/05_lagrangian_flows.py
"""

import numpy as np

import alphaeuler as ae
from alphaeuler.harness import banded_run, compare_bands, filtered_solve, study_datum, trace_bands
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
datum, omega0 = study_datum(cfg)
ref = banded_run(datum, 0.0, cfg, monitor=False)
solve = filtered_solve(alpha, omega0, cfg, monitor=False)
g, times = omega0.grid, cfg.sample_times


def flow_map(run):
    """The lattice at t = 1, traced from a run's samples."""
    for positions in trace_bands(run, cfg):
        pass
    return ae.ParticleSet(positions, 1.0)

# Measure preservation: the flow of a divergence-free field keeps cell
# averages of any observable.
fwd = flow_map(solve)
f = ae.sample(g, lambda x1, x2: np.cos(x2))
print(f"measure-preservation defect: {ae.measure_preservation_defect(fwd, f):.2e}")

# Back-trajectories reconstruct the transported vorticity: the solve's
# velocity samples, made again from its samples, pushed last to first.
qs = [unpack_band(band, g) for band in solve.bands]
back = TrajectoryStream(g, seed_particles(g, t=1.0), substeps=4)
for t, q in zip(times[::-1], qs[::-1]):
    foot = back.push(t, ae.velocity(q, ae.AlphaParam(alpha)).physical())
feet = ae.ParticleSet(foot, 0.0)
recon = ae.lagrangian_vorticity(ae.to_physical(omega0), feet)
q_end = ae.to_physical(qs[-1])
rel = ae.lp_norm(ae.PhysicalField(g, recon.values - q_end.values), 1) / ae.lp_norm(q_end, 1)
print(f"transport reconstruction, relative L1 gap: {rel:.2e}")

# Flow distance vs the logarithmic bound.
delta = float(compare_bands(solve, ref, cfg, p_list=())[2][-1])
comp = ae.flow_distance(fwd.positions, flow_map(ref).positions, delta=delta, c_cal=1.0)
print(f"\ndelta = ||u^alpha - u||_L1L1 = {comp.delta:.4f} (bound applies: {comp.applicable})")
print(f"mean flow distance: {comp.mean_distance:.5f}")
print(f"rms flow distance:  {comp.l2_distance:.5f}")
print(f"g_delta functional: {comp.g_delta:.5f}")
print(f"1/|log delta| unit bound: {comp.log_bound:.5f}")
