"""Filter-scale convergence study at desk scale.

Runs the unfiltered reference on a doubled grid, sweeps the filter
scale downward, and fits log-log rates for the velocity and vorticity
errors.  The closed-form rate curve is then overlaid: measured errors
exceeding it trigger the minimal uniform rescaling of its constants.

Run:  python3 demos/04_convergence_sweep.py
"""

import numpy as np

import alphaeuler as ae

cfg = ae.ExperimentConfig(
    datum=ae.DatumSpec(
        "smooth_random", {"seed": 11, "spectrum_slope": 2.0, "k_max": 4, "scale": 5.0}
    ),
    alpha_list=tuple(2.0**-k for k in range(3, 9)),
    n=64,
    n_ref=128,
    t_end=0.5,
    samples=16,
    particle_stride=2,
    substeps=2,
)
report = ae.run_sweep(cfg)

print(f"reference self-consistency gap: {report.richardson_error:.3e}")
print(f"{'alpha':>10} {'vel L2 err':>12} {'vort L2 err':>12} {'flow dist':>12} {'delta':>10}")
for rec in report.records:
    print(
        f"{rec.alpha:10.6f} {rec.sup_vel_err():12.6e} {rec.sup_vort_err(2.0):12.6e} "
        f"{np.max(rec.flow_dist):12.6e} {rec.delta[-1]:10.4f}"
    )

vel = report.velocity_rate
print(f"\nvelocity rate:  slope {vel.slope:.3f} +/- {vel.ci95:.3f} (r2 {vel.r2:.4f})")
for p, fit in sorted(report.vorticity_rates.items()):
    print(f"vorticity rate L{p:g}: slope {fit.slope:.3f} +/- {fit.ci95:.3f}")

report = ae.compare_bounds(report, ae.BoundParams(c1=1.0, c2=1.0, c=1.0, horizon=1.0))
print(f"\nbound check with unit constants: exceeded at {report.bounds.exceeded or 'none'}")
if report.bounds.rescaled_c is not None:
    print(f"minimal uniform constant restoring domination: {report.bounds.rescaled_c:.3f}")
