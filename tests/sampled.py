"""What the tests keep of a run that `run` itself streams away: every
sampled state, collected through `on_sample`, and the whole velocity
history of sampled states; and the oracles of `harness.compare_bands`:
the L1 velocity distance of two physical samples, behind delta, and the
L^p distance of two vorticity samples made physical one at a time."""

import numpy as np

from alphaeuler import PhysicalField, VelocityHistory, lp_norm, run, to_physical, velocity


def run_states(q0, a, cfg, **kwargs):
    """`run`, and the list of the states it samples, in order."""
    states = []
    sim = run(q0, a, cfg, on_sample=lambda s, u: states.append(s), **kwargs)
    return sim, states


def history_of(states) -> VelocityHistory:
    """The velocity history of sampled states, each velocity made afresh
    from its state and written into one array."""
    grid = states[0].grid
    snaps = np.empty((len(states), 2, grid.n, grid.n))
    for snap, s in zip(snaps, states):
        snap[:] = velocity(s.q, s.a).physical()
    return VelocityHistory([s.t for s in states], snaps, grid)


def velocity_l1_distance(snap_a, snap_b, grid) -> float:
    """||u_a - u_b||_{L1} over the torus of two (2, n, n) velocity samples."""
    diff = snap_a - snap_b
    return np.sqrt(diff[0] ** 2 + diff[1] ** 2).sum() * grid.cell_area


def vorticity_lp_distance(qa, qb, p: float) -> float:
    """||qa - qb||_{L^p} of two spectral samples, each made physical on its
    own and subtracted at the collocation points."""
    return lp_norm(PhysicalField(qa.grid, to_physical(qa).values - to_physical(qb).values), p)
