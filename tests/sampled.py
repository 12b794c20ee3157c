"""What the tests keep of a run that `run` itself streams away: every
sampled state, collected through `on_sample`, and the particle trajectory
through the velocities of sampled states; and the oracles of
`harness.compare_bands`: the L1 velocity distance of two physical
samples, behind delta, and the L^p distance of two vorticity samples made
physical one at a time."""

import numpy as np

from alphaeuler import PhysicalField, lp_norm, run, seed_particles, to_physical, velocity
from alphaeuler.lagrangian import TrajectoryStream


def run_states(q0, a, cfg, sample_times, **kwargs):
    """`run`, and the list of the states it samples, in order."""
    states = []
    sim = run(q0, a, cfg, sample_times, on_sample=states.append, **kwargs)
    return sim, states


def trajectory_of(states, stride, substeps) -> tuple:
    """The particle lattice streamed through the velocities of sampled
    states, each made afresh from its state: the positions of every push."""
    grid = states[0].grid
    stream = TrajectoryStream(grid, seed_particles(grid, stride, t=states[0].t), substeps)
    return tuple(stream.push(s.t, velocity(s.q, s.a).physical()) for s in states)


def velocity_l1_distance(snap_a, snap_b, grid) -> float:
    """||u_a - u_b||_{L1} over the torus of two (2, n, n) velocity samples."""
    diff = snap_a - snap_b
    return np.sqrt(diff[0] ** 2 + diff[1] ** 2).sum() * grid.cell_area


def vorticity_lp_distance(qa, qb, p: float) -> float:
    """||qa - qb||_{L^p} of two spectral samples, each made physical on its
    own and subtracted at the collocation points."""
    return lp_norm(PhysicalField(qa.grid, to_physical(qa).values - to_physical(qb).values), p)
