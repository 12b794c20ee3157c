"""What the tests keep of a run that `run` itself streams away: every
sampled state, collected through `on_sample`, and the whole velocity
history of sampled states."""

import numpy as np

from alphaeuler import VelocityHistory, run, velocity


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
