"""The steady shear q = cos(x1) is an exact fixed point of the filtered
transport dynamics at every filter scale: its velocity is a pure shear
aligned with the level sets, so the advection term vanishes identically.
That makes it the sharpest calibration target in the suite: `run` must
hold it to machine precision with the stage it builds (Basdevant's form at
alpha = 0, the advective form at alpha > 0), and the velocity gap between
the filtered and unfiltered flows has the closed form alpha/(1+alpha) pi
sqrt(2).

Run:  python3 demos/02_steady_shear.py
"""

import numpy as np

import alphaeuler as ae

g = ae.Grid(64)
q0 = ae.shear(g)

for alpha in (0.0, 0.1, 1.0):
    states = []
    ae.run(q0, ae.AlphaParam(alpha), ae.SolverConfig(), [0.0, 10.0], on_sample=states.append, monitor=False)
    s = states[-1]
    drift = np.abs(ae.to_physical(s.q).values - ae.to_physical(q0).values).max()
    print(f"alpha={alpha:4.1f}: drift after {s.step_count} steps = {drift:.2e} (t={s.t:.2f})")

print()
print("filtered-vs-unfiltered velocity gap (exact: alpha/(1+alpha) pi sqrt(2))")
for alpha in (0.5, 0.1, 0.01):
    rep = ae.run_sweep(
        ae.ExperimentConfig(
            datum=ae.DatumSpec("shear"),
            alpha_list=(alpha,),
            n=32,
            n_ref=64,
            t_end=0.5,
            samples=4,
            particle_stride=4,
        )
    )
    measured = rep.records[0].sup_vel_err()
    exact = alpha / (1 + alpha) * np.pi * np.sqrt(2)
    print(f"alpha={alpha:5.2f}: measured {measured:.10f}  exact {exact:.10f}")
