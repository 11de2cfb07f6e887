"""Integrator sanity checks against closed-form solutions."""

import math
import warnings

import numpy as np
import pytest

from qbundle import stepping
from qbundle.errors import StepperDiverged
from qbundle.stepping import StepperConfig, integrate, rk4_step


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(method="euler")
    with pytest.raises(ValueError):
        StepperConfig(dt=-1.0)
    with pytest.raises(ValueError):
        StepperConfig(target_local_error=0.0)


def test_fixed_step_scalar_exponential():
    times, ys = integrate(lambda t: np.eye(1), np.array([1.0 + 0j]), 0.0, 2.0,
                          StepperConfig(dt=1e-3))
    assert times[0] == 0.0 and times[-1] == 2.0
    np.testing.assert_allclose(ys[-1, 0], np.exp(-2j), atol=1e-12)


def test_fixed_step_order_four():
    """Halving dt should cut the endpoint error by about 2^4."""

    def endpoint_error(dt):
        # dy/dt = (y1, -y0) is i dy/dt = H y with H = i [[0, 1], [-1, 0]]
        _, ys = integrate(lambda t: np.array([[0.0, 1j], [-1j, 0.0]]),
                          np.array([1.0, 0.0], dtype=complex), 0.0, 1.0,
                          StepperConfig(dt=dt))
        exact = np.array([np.cos(1.0), -np.sin(1.0)])
        return np.max(np.abs(ys[-1] - exact))

    e1, e2 = endpoint_error(0.02), endpoint_error(0.01)
    assert 10.0 < e1 / e2 < 22.0


@pytest.mark.parametrize("method", ["rk4-fixed", "rk4-adaptive"])
def test_backwards_integration_inverts_forwards(method):
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    config = StepperConfig(method=method, dt=1e-3)
    _, fwd = integrate(lambda t: h, y0, 0.0, 1.0, config)
    _, back = integrate(lambda t: h, fwd[-1], 1.0, 0.0, config)
    np.testing.assert_allclose(back[-1], y0, atol=1e-9)


def test_adaptive_meets_tolerance():
    cfg = StepperConfig(method="rk4-adaptive", dt=0.1, target_local_error=1e-10)
    # dy/dt = cos(5t) y
    times, ys = integrate(lambda t: np.array([[1j * np.cos(5 * t)]]),
                          np.array([1.0 + 0j]), 0.0, 3.0, cfg)
    exact = np.exp(np.sin(15.0) / 5.0)
    np.testing.assert_allclose(ys[-1, 0], exact, rtol=1e-7)
    # times strictly increasing and endpoints exact
    assert times[0] == 0.0 and times[-1] == 3.0
    assert np.all(np.diff(times) > 0)


def test_adaptive_is_the_fixed_run_at_the_accepted_step_count():
    """rk4-adaptive doubles the step count that dt gives and returns the
    fixed run at the count it accepts, bit for bit."""
    gen = lambda t: np.array([[1j * np.cos(5 * t), 0.3], [0.3, -1j * np.sin(2 * t)]])
    y0 = np.array([1.0, 0.5j])
    times, ys = integrate(gen, y0, 0.0, 3.0,
                          StepperConfig(method="rk4-adaptive", dt=0.1, target_local_error=1e-10))
    n = len(times) - 1
    assert n > 60 and n % 30 == 0 and (n // 30) & (n // 30 - 1) == 0  # 30 * 2^k, k >= 2
    fixed_times, fixed_ys = integrate(gen, y0, 0.0, 3.0, StepperConfig(dt=3.0 / n))
    assert np.array_equal(times, fixed_times)
    assert np.array_equal(ys, fixed_ys)


def test_adaptive_raises_past_the_step_budget(monkeypatch):
    """An unreachable target stops at ADAPTIVE_MAX_STEPS, naming the last
    error estimate and its step count."""
    monkeypatch.setattr(stepping, "ADAPTIVE_MAX_STEPS", 100)
    gen = lambda t: np.array([[np.cos(5 * t)]])
    with pytest.raises(StepperDiverged, match=r"error estimate \d\.\d+e-\d+ at 60 steps"):
        integrate(gen, np.array([1.0 + 0j]), 0.0, 3.0,
                  StepperConfig(method="rk4-adaptive", dt=0.1, target_local_error=1e-30))


def test_divergence_detected():
    """dy/dt = 10 y overflows at t = ln(max float) / 10 = 70.978 under both
    steppers, and the error names the sample time.  The adaptive mode first
    runs the fixed steps that dt gives, so it names the same time."""
    t_overflow = math.log(np.finfo(float).max) / 10.0
    named = []
    for config in (StepperConfig(dt=0.01),
                   StepperConfig(method="rk4-adaptive", dt=0.01, target_local_error=1e-6)):
        with pytest.raises(StepperDiverged) as err:
            integrate(lambda t: 10j * np.eye(1), np.array([1.0 + 0j]), 0.0, 200.0, config)
        named.append(float(str(err.value).rsplit("=", 1)[1]))
    assert named[0] == named[1]
    assert abs(named[0] - t_overflow) < 0.02


@pytest.mark.parametrize("method", ["rk4-fixed", "rk4-adaptive"])
def test_divergence_raises_without_numpy_warnings(method):
    """Overflow in the state arithmetic is reported by StepperDiverged alone."""
    gen = lambda t: 1j * np.array([[3.0, 2.0], [2.0, 3.0 + math.cos(t)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepperDiverged):
            integrate(gen, np.array([1.0, -1.0j]), 0.0, 1000.0,
                      StepperConfig(method=method, dt=0.5, target_local_error=1e-6))


def per_step_reference(gen, y, t0, h, n):
    """Classical RK4 applied stage by stage to the state, one step at a time;
    returns the first sample time whose state is not finite, or None."""
    for k in range(n):
        t, t_next = t0 + k * h, t0 + (k + 1) * h
        k1 = -1j * (gen(t) @ y)
        k2 = -1j * (gen(t + 0.5 * h) @ (y + 0.5 * h * k1))
        k3 = -1j * (gen(t + 0.5 * h) @ (y + 0.5 * h * k2))
        k4 = -1j * (gen(t_next) @ (y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            return t_next
    return None


@pytest.mark.parametrize("chunk", [1024, 100])
def test_linear_divergence_names_the_first_nonfinite_time(monkeypatch, chunk):
    """The fixed stepper steps with step matrices and checks finiteness once
    per chunk; it names the same first non-finite sample time as a per-step
    RK4 loop.  The state overflows after about 7000 steps."""
    monkeypatch.setattr(stepping, "FIXED_CHUNK_STEPS", chunk)

    def gen(t):
        return 1j * (1.0 + 0.5 * math.cos(t)) * np.diag([0.1, 0.05])

    y0 = np.array([1.0, 1.0j])
    with pytest.raises(StepperDiverged) as err:
        integrate(gen, y0, 0.0, 9000.0, StepperConfig(dt=1.0))
    t_bad = float(str(err.value).rsplit("=", 1)[1])
    with np.errstate(all="ignore"):
        assert t_bad == per_step_reference(gen, y0.astype(complex), 0.0, 1.0, 9000)
    assert 6000.0 < t_bad < 8000.0 and t_bad % chunk != 0.0


def test_rk4_step_matches_taylor_locally():
    # dy/dt = y: one step is the degree-4 Taylor polynomial of e^h
    one = 1j * np.eye(1)
    y1 = rk4_step((one, one, one), np.array([1.0 + 0j]), 0.1)
    taylor = sum(0.1 ** k / math.factorial(k) for k in range(5))
    np.testing.assert_allclose(y1, [taylor], atol=1e-14)


def test_determinism():
    cfg = StepperConfig(method="rk4-adaptive", dt=0.05, target_local_error=1e-8)
    gen = lambda t: np.array([[np.tanh(t)]])
    out1 = integrate(gen, np.array([1.0 + 0.5j]), 0.0, 2.0, cfg)
    out2 = integrate(gen, np.array([1.0 + 0.5j]), 0.0, 2.0, cfg)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])
