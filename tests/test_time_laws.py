"""Two exact laws of the time parametrization, run through the config path.

Every term of the generator is linear in the curve's velocity except the
energy, so the evolution depends on the curve and the energy only through
``epsilon dt`` and the path:

* stretch: running the curve over ``[0, s]`` with ``epsilon / s`` (and ``dt``
  scaled by ``s``, so the step count is kept) ends where the ``[0, 1]`` run
  ends;
* reversal: the reversed curve run with ``-epsilon`` from the forward
  endpoint returns to the initial state, since reversing time negates the
  velocity terms and the reversed energy must be negated to match.

Both pictures are run; a term of the generator that is not odd and of
degree one in the velocity breaks them.
"""

import copy
import math

import numpy as np
import pytest

from qbundle.cli import _run_one
from qbundle.linalg import max_abs

ADAPTIVE = {"method": "rk4-adaptive", "dt": 1e-3, "target_local_error": 1e-12}
FIXED = {"method": "rk4-fixed", "dt": 1e-3}
ALPHA = {"theta": [0.1, -0.2, 0.05], "phi": [0.0, 0.3, -0.1]}


def meridian(representation: str, stepper: dict) -> dict:
    """The README meridian with alpha, in ``representation``."""
    return {
        "model": "s2-two-level",
        "curve": {"kind": "meridian", "phi0": 0.3,
                  "theta_from": math.pi / 6.0, "theta_to": 5.0 * math.pi / 6.0},
        "energy": {"epsilon": 0.8, "direction": [0.2, -0.3, 0.93]},
        "alpha": ALPHA,
        "stepper": stepper,
        "initial_state": [[0.8, 0.0], [-0.2, 0.4]],
        "representation": representation,
    }


def latitude(representation: str, stepper: dict) -> dict:
    cfg = meridian(representation, stepper)
    cfg["curve"] = {"kind": "circle", "theta0": 0.9, "revolutions": 1.3}
    return cfg


def endpoint(cfg: dict) -> np.ndarray:
    return _run_one(cfg)[1].final_state


def stretched(cfg: dict, s: float) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg["curve"]["t_end"] = s
    cfg["energy"]["epsilon"] /= s
    cfg["stepper"]["dt"] *= s
    return cfg


@pytest.mark.parametrize("representation", ["eta", "hermitian"])
@pytest.mark.parametrize("base, stepper, s, bound", [
    (meridian, ADAPTIVE, 2.0, 1e-13),
    (meridian, ADAPTIVE, 0.37, 1e-13),
    (latitude, ADAPTIVE, 3.0, 1e-13),
    # a power-of-two stretch scales every time, rate and energy exactly
    (meridian, FIXED, 2.0, 0.0),
], ids=["meridian-2", "meridian-0.37", "latitude-3", "meridian-2-rk4-fixed"])
def test_a_stretched_curve_with_a_scaled_gap_ends_where_it_did(representation, base, stepper,
                                                               s, bound):
    cfg = base(representation, stepper)
    assert max_abs(endpoint(stretched(cfg, s)) - endpoint(cfg)) <= bound


@pytest.mark.parametrize("representation", ["eta", "hermitian"])
def test_the_reversed_curve_with_the_opposite_gap_returns_to_the_start(representation):
    forward = meridian(representation, ADAPTIVE)
    back = copy.deepcopy(forward)
    curve = back["curve"]
    curve["theta_from"], curve["theta_to"] = curve["theta_to"], curve["theta_from"]
    back["energy"]["epsilon"] = -back["energy"]["epsilon"]
    back["initial_state"] = [[float(c.real), float(c.imag)] for c in endpoint(forward)]
    psi0 = np.array([0.8, -0.2 + 0.4j])
    assert max_abs(endpoint(back) - psi0) <= 1e-12
