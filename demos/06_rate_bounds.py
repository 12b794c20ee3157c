"""Closed-form bound evaluators.

Tabulates the double-exponential velocity rate K(alpha, t), the largest
admissible filter scale for a given horizon, the Osgood-lemma conclusion
it rests on, and the induced flow/vorticity rates.  Also prints the
gradient-to-vorticity L^p ratio across p: elliptic theory allows growth
~p for large p, while for any fixed datum the ratio may stay bounded, so
the trend is recorded as an observation rather than asserted.

Run:  python3 demos/06_rate_bounds.py
"""

import math

from scipy.integrate import quad

import alphaeuler as ae

params = ae.BoundParams(c1=1.0, c2=1.0, c=1.0, m=1.0, gamma0=0.0, horizon=1.0)

print("K(alpha, t) with unit constants:")
print(f"{'alpha':>10} " + " ".join(f"t={t:<6.2f}" for t in (0.0, 0.5, 1.0)))
for alpha in (0.1, 0.01, 0.001):
    row = [ae.velocity_rate_K(ae.AlphaParam(alpha), t, params) for t in (0.0, 0.5, 1.0)]
    print(f"{alpha:10.4f} " + " ".join(f"{v:8.4f}" for v in row))

print("\nlargest admissible alpha per horizon (gamma0 = 0.05):")
for horizon in (0.1, 0.5, 1.0, 2.0):
    p = ae.BoundParams(gamma0=0.05, horizon=horizon, alpha_bar=1e6)
    a_star = ae.max_admissible_alpha(p)
    print(f"  T={horizon:4.1f}: {'none' if a_star is None else f'{a_star:.6f}'}")

# The Osgood conclusion integrates the comparison ODE exactly: check the
# identity int_eta^rho dr / (r (2 - log r)) = c2 t by quadrature.
eta, c2, t = 0.2, 1.0, 0.8
rho = ae.osgood_bound(eta, c2, t)
integral, _ = quad(lambda r: 1.0 / (r * (2.0 - math.log(r))), eta, rho)
print(f"\nosgood bound at (eta={eta}, t={t}): rho={rho:.6f}")
print(f"quadrature of the comparison integral: {integral:.8f} (expected {c2 * t})")

k_val = ae.velocity_rate_K(ae.AlphaParam(0.01), 1.0, params)
flow = ae.flow_rate_bound(k_val, 1.0, 0.0, 1.0, 1.0)
mod = ae.ModulusEstimate(0.5)
vort = ae.vorticity_rate_bound(k_val, mod, 2.0, params)
print(f"\nK(0.01, 1) = {k_val:.4f} -> flow bound {flow:.4f}, L2 vorticity bound {vort:.4f}")

print("\ngradient/vorticity L^p ratio growth (observation, not asserted):")
g = ae.Grid(64)
q = ae.smooth_random(seed=5, spectrum_slope=1.5, k_max=20, grid=g)
for p in (2.0, 4.0, 8.0, 16.0, 32.0):
    print(f"  p={p:5.1f}: ratio {ae.calderon_zygmund_ratio(q, p):.4f}")
