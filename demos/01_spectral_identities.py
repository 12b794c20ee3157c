"""Tour of the spectral substrate: transforms, derivatives, dealiasing,
and the exact elliptic identities behind the velocity reconstruction.

Run:  python3 demos/01_spectral_identities.py
"""

import numpy as np

import alphaeuler as ae
from alphaeuler.spectral import parseval_sum

g = ae.Grid(64)
print(f"grid: n={g.n}, dx={g.dx:.5f}, dealias band |k| <= {g.kmax_dealias}")

# A real field and its Fourier-series coefficients.  cos(x1) lives at
# k = (+1, 0) and (-1, 0) with amplitude 1/2 each.
f = ae.sample(g, lambda x1, x2: np.cos(x1))
q = ae.to_spectral(f)
print(f"cos(x1) coefficient at k=(1,0): {q.coeffs[1, 0]:.6f}")

# Round trip and Parseval.  Only the k2 >= 0 half of the coefficients is
# stored; parseval_sum counts each column 0 < k2 < n/2 for its mirror too.
rng = np.random.default_rng(1)
noise = ae.PhysicalField(g, rng.standard_normal((g.n, g.n)))
spec = ae.to_spectral(noise)
back = ae.to_physical(spec)
print(f"transform round trip error: {np.abs(back.values - noise.values).max():.2e}")
parseval_gap = abs(
    (2 * np.pi) ** 2 * parseval_sum(np.abs(spec.coeffs) ** 2)
    - np.sum(noise.values**2) * g.cell_area
)
print(f"Parseval gap: {parseval_gap:.2e}")

# Spectral differentiation is exact on resolved modes.
d = ae.to_physical(ae.spectral_derivative(q, 1))
print(f"d/dx1 cos(x1) vs -sin(x1): {np.abs(d.values + np.sin(g.mesh[0])).max():.2e}")

# Biot-Savart: solve curl v = q, div v = 0 and verify both identities.
w = ae.smooth_random(seed=3, spectrum_slope=1.5, k_max=12, grid=g)
v = ae.biot_savart(w)
print(f"max |div v| after inversion:  {np.abs(ae.divergence(v).coeffs).max():.2e}")
print(f"max |curl v - q|:             {np.abs(ae.curl(v).coeffs - w.coeffs).max():.2e}")

# The Helmholtz filter damps mode k by 1/(1 + alpha |k|^2); its inverse
# multiplies back, so the pair is an exact round trip.
a = ae.AlphaParam(0.25)
u = ae.helmholtz_filter(v, a)
restored = ae.helmholtz_unfilter(u, a)
gap = np.abs(restored.u2.coeffs - v.u2.coeffs).max()
print(f"filter/unfilter round trip:   {gap:.2e}")
print(f"mode (3,4) damping at alpha=0.25: {1 / (1 + 0.25 * 25):.6f}")

# Dealiasing keeps the band 3 K < n so quadratic products stay alias-free.
mask = ae.dealias_mask(12)
print(f"n=12 rule: (5,0) kept={bool(mask[5, 0])}, (4,4) kept={bool(mask[4, 4])}, "
      f"(3,2) kept={bool(mask[3, 2])}")
