#!/usr/bin/env python3
"""Exploratory: holonomy of closed latitude loops (demo only).

Transport around a closed loop gives an operator that preserves the
eta inner product but is generally not the identity.  Here we transport
around circles of constant latitude with the connection-only generator
(no energy term) and tabulate the invariant eigenphases of the holonomy,
i.e. the eigenphases of the unitary  rho G rho^{-1}.

No closed formula is claimed here; this script just measures.  Note the
smooth interpolation between a trivial loop (small circles near the
north pole) and a -1-like loop near the chart boundary.
"""

import numpy as np

from qbundle import linalg, twolevel as tl
from qbundle.connection import assemble_connection, transport_operator
from qbundle.stepping import StepperConfig


def holonomy_eigenphases(theta0: float) -> np.ndarray:
    scales = tl.default_scales()
    mf = tl.metric_field(scales, tl.PLUS)
    form = assemble_connection(
        mf,
        omega_fn=linalg.stacked(lambda r: tl.omega_lower(r[:, 0], r[:, 1], scales, None, tl.PLUS)),
        a0_fn=linalg.stacked(lambda r: tl.a_zero_closed(r[:, 0], r[:, 1], scales, tl.PLUS)),
    )
    curve = tl.circle_curve(theta0)
    res = transport_operator(form, curve, stepper=StepperConfig(dt=1e-3))
    g = res.final_operator
    r0 = curve.position(0.0)
    rho = tl.rho_matrix(r0[0], r0[1], scales, tl.PLUS)
    rho_inv = tl.rho_inverse_matrix(r0[0], r0[1], scales, tl.PLUS)
    unitary = rho @ g @ rho_inv
    defect = np.max(np.abs(unitary.conj().T @ unitary - np.eye(2)))
    phases = np.sort(np.angle(np.linalg.eigvals(unitary)))
    return phases, defect


def main():
    print("holonomy of latitude loops, connection only (no energy term)\n")
    print(f"{'theta0':>8} {'eigenphases of rho G rho^-1':>30} {'unitarity defect':>18}")
    for theta0 in (0.2, 0.5, 0.8, np.pi / 2.0, 1.8, 2.0):
        phases, defect = holonomy_eigenphases(theta0)
        pretty = ", ".join(f"{p:+.6f}" for p in phases)
        print(f"{theta0:>8.3f} {pretty:>30} {defect:>18.2e}")
    print("\nsolid-angle reference for a plain spin-1/2 Berry loop at latitude")
    print("theta0 would be -pi(1 - cos theta0); the values above differ because")
    print("this connection carries the metric's canonical and gluing parts too.")


if __name__ == "__main__":
    main()
