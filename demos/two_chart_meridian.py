#!/usr/bin/env python3
"""Crossing from the north chart to the south chart along a meridian.

Neither chart covers the whole sphere, so a pole-to-pole-ish curve forces
a chart switch somewhere inside the overlap band.  The switch time tau is
pure bookkeeping: the physical endpoint must not depend on it.  This
script runs the same curve with five different switch times, then repeats
the run in the Hermitian representation, where the state visibly *jumps*
at tau (the charts' Hermitian frames differ by a unitary) while every
norm stays continuous.
"""

import numpy as np

from qbundle import twolevel as tl
from qbundle.bundle import evolve_across_patches
from qbundle.dynamics import map_state
from qbundle.stepping import StepperConfig

ENERGY = tl.constant_energy(0.8, (0.2, -0.3, 0.93))
PSI0 = np.array([0.8, -0.2 + 0.4j])
STEP = StepperConfig(dt=1e-3)


def itinerary(system, tau):
    """The run's chart segments for switch time ``tau``, as plain text."""
    return ", ".join(f"[{ta:.4f}, {tb:.4f}] on {pid}" for (ta, tb), pid in system.segments(tau))


def main():
    curve = tl.meridian_curve(0.3, np.pi / 6.0, 5.0 * np.pi / 6.0)
    system = tl.build_system(curve, energy=ENERGY)
    lo, hi = system.overlap_window
    taus = (0.30, 0.40, 0.50, 0.60, 0.70)
    print(f"overlap dwell: t in ({lo:.4f}, {hi:.4f})")
    print("itinerary per switch time, system.segments(tau):")
    for tau in taus + (0.35,):
        print(f"  tau = {tau:.2f}: {itinerary(system, tau)}")

    # ---- switch-time independence ---------------------------------------
    print(f"\n{'tau':>6} {'final state (minus chart)':>42} {'delta vs first':>15}")
    reference = None
    for tau in taus:
        res = evolve_across_patches(system, PSI0, tau=tau, stepper=STEP)
        if reference is None:
            reference = res.final_state
        delta = np.max(np.abs(res.final_state - reference))
        comps = "  ".join(f"{c.real:+.6f}{c.imag:+.6f}j" for c in res.final_state)
        print(f"{tau:>6.2f} {comps:>42} {delta:>15.3e}")
    print("\nthe endpoint is tau-independent to integrator precision.")

    # ---- the Hermitian picture jumps at tau, the norms do not ------------
    # (tau = 0.5 would sit exactly on the equator, where the transition
    # happens to be the identity; switch slightly earlier to see the jump)
    tau = 0.35
    res_eta = evolve_across_patches(system, PSI0, tau=tau, stepper=STEP)
    phi0 = map_state(system.curve_metric(tl.PLUS), 0.0, PSI0)
    res_h = evolve_across_patches(system, phi0, tau=tau, stepper=STEP,
                                  representation="hermitian")
    i = int(np.searchsorted(res_h.times, tau))  # first of the two tau samples
    jump_h = np.max(np.abs(res_h.states[i + 1] - res_h.states[i]))
    jump_eta = np.max(np.abs(res_eta.states[i + 1] - res_eta.states[i]))
    norm_gap = abs(res_h.eta_norm[i + 1] - res_h.eta_norm[i])
    print(f"\nat the switch (tau = {tau}):")
    print(f"  component jump, Hermitian rep : {jump_h:.4f}   (frame change by a unitary)")
    print(f"  component jump, native rep    : {jump_eta:.4f}   (frame change by g^-1)")
    print(f"  norm discontinuity            : {norm_gap:.3e} (none)")

    # the two pictures land on the same physics
    rho_end = system.metric_operator(tl.MINUS, curve.position(1.0)).rho
    resid = np.max(np.abs(res_h.final_state - rho_end @ res_eta.final_state))
    print(f"\ncross-check  |Phi(T) - rho(T) psi(T)| = {resid:.3e}")


if __name__ == "__main__":
    main()
