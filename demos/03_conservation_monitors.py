"""Conservation monitors along a filtered run.

The semi-discrete system conserves the filtered energy norm
sqrt(||u||^2 + alpha ||grad u||^2) and every L^p norm of the advected
vorticity exactly; what the monitors measure is the Runge-Kutta time
discretization error, which shrinks by ~2^4 per step halving.

Run:  python3 demos/03_conservation_monitors.py
"""

import numpy as np

import alphaeuler as ae

g = ae.Grid(128)
q0 = ae.SpectralField(g, ae.smooth_random(11, 2.0, 4, g).coeffs * 10.0)
a = ae.AlphaParam(0.1)
times = np.linspace(0.0, 1.0, 9)

mon = ae.run(q0, a, ae.SolverConfig(cfl=0.4), times)
print(f"{'t':>6} {'energy':>12} {'alpha-norm':>12} {'||q||_2':>12} {'||q||_inf':>12}")
for j, t in enumerate(mon.times):
    print(
        f"{t:6.3f} {mon.energy[j]:12.8f} {mon.alpha_norm[j]:12.8f} "
        f"{mon.q_l2[j]:12.8f} {mon.q_linf[j]:12.6f}"
    )
print(f"\nalpha-norm drift: {mon.alpha_norm_drift().max():.2e}")
print(f"L2 vorticity drift: {mon.q_l2_drift().max():.2e}")

print("\nfixed-step refinement (worst conserved-quantity drift):")
prev = None
for dt in (0.02, 0.01, 0.005):
    log = ae.run(q0, a, ae.SolverConfig(fixed_dt=dt), times)
    worst = max(log.alpha_norm_drift().max(), log.q_l2_drift().max())
    note = f"  ratio vs 2dt: {prev / worst:5.1f}" if prev else ""
    print(f"  dt={dt:7.4f}: drift {worst:.3e}{note}")
    prev = worst
