#!/usr/bin/env python3
"""A first run: one closed loop at fixed latitude.

A latitude circle stays inside a single chart, so no gluing is involved
yet.  We evolve a state once around the loop with the full generator
(canonical part + free part + energy term) and watch the one thing the
construction guarantees unconditionally: the metric norm of the state
never moves, even though the naive 2-norm does.  (The loop sits off the
equator on purpose: on the equator the reference metric happens to be
the identity and the two norms would coincide.)
"""

import numpy as np

from qbundle import twolevel as tl
from qbundle.bundle import evolve_across_patches
from qbundle.stepping import StepperConfig

ALPHA = tl.constant_alpha((0.1, -0.2, 0.3), (0.05, 0.4, -0.15))
ENERGY = tl.constant_energy(0.8, (0.2, -0.3, 0.93))
PSI0 = np.array([0.8, -0.2 + 0.4j])


def main():
    system = tl.build_system(tl.circle_curve(1.0),
                             alpha=ALPHA, energy=ENERGY)
    print("chart itinerary:", ", ".join(f"[{float(ta)}, {float(tb)}] on {pid}"
                                        for (ta, tb), pid in system.segments()))

    # ---- norm conservation vs step size ---------------------------------
    print(f"\n{'dt':>10} {'eta-norm drift':>16} {'2-norm swing':>14}")
    for dt in (1e-2, 3e-3, 1e-3):
        res = evolve_across_patches(system, PSI0, stepper=StepperConfig(dt=dt))
        drift = np.max(np.abs(res.eta_norm - res.eta_norm[0]))
        two_norms = np.linalg.norm(res.states, axis=1)
        swing = two_norms.max() - two_norms.min()
        print(f"{dt:>10.0e} {drift:>16.3e} {swing:>14.3e}")
    print("\nThe eta-norm is flat to integrator precision; the 2-norm is not")
    print("a conserved quantity here and swings at order one.")

    # ---- the loop is not the identity -----------------------------------
    res = evolve_across_patches(system, PSI0, stepper=StepperConfig(dt=1e-3))
    op = system.metric_operator(tl.PLUS, system.curve.position(0.0))
    overlap = op.inner(PSI0, res.final_state) / op.inner(PSI0, PSI0)
    print(f"\nafter one loop:  <psi0|psi(T)> / <psi0|psi0> = "
          f"{overlap:.6f}  (|.| = {abs(overlap):.6f})")
    print("the state returns rotated: transport around the loop has")
    print("a nontrivial holonomy on top of the dynamical phase.")


if __name__ == "__main__":
    main()
