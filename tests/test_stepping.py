"""Integrator sanity checks against closed-form solutions."""

import math

import numpy as np
import pytest

from qbundle import stepping
from qbundle.errors import StepperDiverged
from qbundle.stepping import StepperConfig, integrate, linear_rhs, rk4_step


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(method="euler")
    with pytest.raises(ValueError):
        StepperConfig(dt=-1.0)
    with pytest.raises(ValueError):
        StepperConfig(target_local_error=0.0)


def test_fixed_step_scalar_exponential():
    times, ys = integrate(lambda t, y: -1j * y, np.array(1.0 + 0j), 0.0, 2.0,
                          StepperConfig(dt=1e-3))
    assert times[0] == 0.0 and times[-1] == 2.0
    np.testing.assert_allclose(ys[-1], np.exp(-2j), atol=1e-12)


def test_fixed_step_order_four():
    """Halving dt should cut the endpoint error by about 2^4."""

    def endpoint_error(dt):
        _, ys = integrate(lambda t, y: np.array([y[1], -y[0]], dtype=complex),
                          np.array([1.0, 0.0], dtype=complex), 0.0, 1.0,
                          StepperConfig(dt=dt))
        exact = np.array([np.cos(1.0), -np.sin(1.0)])
        return np.max(np.abs(ys[-1] - exact))

    e1, e2 = endpoint_error(0.02), endpoint_error(0.01)
    assert 10.0 < e1 / e2 < 22.0


def test_backwards_integration_inverts_forwards():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    def rhs(t, y):
        return -1j * (h @ y)

    y0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    _, fwd = integrate(rhs, y0, 0.0, 1.0, StepperConfig(dt=1e-3))
    _, back = integrate(rhs, fwd[-1], 1.0, 0.0, StepperConfig(dt=1e-3))
    np.testing.assert_allclose(back[-1], y0, atol=1e-9)


def test_adaptive_meets_tolerance():
    cfg = StepperConfig(method="rk4-adaptive", dt=0.1, target_local_error=1e-10)
    times, ys = integrate(lambda t, y: np.array([np.cos(5 * t)], dtype=complex) * y,
                          np.array([1.0 + 0j]), 0.0, 3.0, cfg)
    exact = np.exp(np.sin(15.0) / 5.0)
    np.testing.assert_allclose(ys[-1, 0], exact, rtol=1e-7)
    # times strictly increasing and endpoints exact
    assert times[0] == 0.0 and times[-1] == 3.0
    assert np.all(np.diff(times) > 0)


def test_divergence_detected():
    with np.errstate(all="ignore"), pytest.raises(StepperDiverged):
        integrate(lambda t, y: y * y * 1e3, np.array(10.0 + 0j), 0.0, 10.0,
                  StepperConfig(dt=0.5))


@pytest.mark.parametrize("chunk", [1024, 100])
def test_linear_divergence_names_the_first_nonfinite_time(monkeypatch, chunk):
    """A linear rhs steps with step matrices and checks finiteness once per
    chunk; it names the same first non-finite sample time as the per-stage
    path.  The state overflows after about 7000 steps."""
    monkeypatch.setattr(stepping, "FIXED_CHUNK_STEPS", chunk)

    def gen(t):
        return 1j * (1.0 + 0.5 * math.cos(t)) * np.diag([0.1, 0.05])

    messages = []
    for rhs in (linear_rhs(gen), lambda t, y: -1j * (gen(t) @ y)):
        with np.errstate(all="ignore"), pytest.raises(StepperDiverged) as err:
            integrate(rhs, np.array([1.0, 1.0j]), 0.0, 9000.0, StepperConfig(dt=1.0))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    t_bad = float(messages[0].rsplit("=", 1)[1])
    assert 6000.0 < t_bad < 8000.0 and t_bad % chunk != 0.0


def test_rk4_step_matches_taylor_locally():
    f = lambda t, y: y
    y1 = rk4_step(f, 0.0, np.array(1.0 + 0j), 0.1)
    taylor = sum(0.1 ** k / math.factorial(k) for k in range(5))
    np.testing.assert_allclose(y1, taylor, atol=1e-14)


def test_determinism():
    cfg = StepperConfig(method="rk4-adaptive", dt=0.05, target_local_error=1e-8)
    rhs = lambda t, y: -1j * np.tanh(t) * y
    out1 = integrate(rhs, np.array(1.0 + 0.5j), 0.0, 2.0, cfg)
    out2 = integrate(rhs, np.array(1.0 + 0.5j), 0.0, 2.0, cfg)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])
