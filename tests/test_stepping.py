"""Integrator sanity checks against closed-form solutions."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

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
    """rk4-adaptive doubles a quarter of the step count that dt gives and
    returns the Magnus-6 run at the count it accepts, bit for bit."""
    gen = lambda t: np.array([[1j * np.cos(5 * t), 0.3], [0.3, -1j * np.sin(2 * t)]])
    y0 = np.array([1.0, 0.5j])
    times, ys = integrate(gen, y0, 0.0, 3.0,
                          StepperConfig(method="rk4-adaptive", dt=0.1, target_local_error=1e-10))
    n = len(times) - 1
    assert n > 7 and n % 7 == 0 and (n // 7) & (n // 7 - 1) == 0  # 30 // 4 * 2^k, k >= 1
    fixed_times, fixed_ys = stepping._integrate_fixed(
        gen, y0.astype(complex), 0.0, 3.0, n, stepping.magnus6_steps, scan=True)
    assert np.array_equal(times, fixed_times)
    assert np.array_equal(ys, fixed_ys)


def test_adaptive_raises_past_the_step_budget(monkeypatch):
    """An unreachable target stops at MAX_STEPS, naming the last
    error estimate and its step count."""
    monkeypatch.setattr(stepping, "MAX_STEPS", 100)
    gen = lambda t: np.array([[np.cos(5 * t)]])
    with pytest.raises(StepperDiverged, match=r"error estimate \d\.\d+e-\d+ at 56 steps"):
        integrate(gen, np.array([1.0 + 0j]), 0.0, 3.0,
                  StepperConfig(method="rk4-adaptive", dt=0.1, target_local_error=1e-30))


def test_divergence_detected():
    """dy/dt = 10 y overflows at t = ln(max float) / 10 = 70.978 under both
    steppers, and the error names the first non-finite sample time, which
    lies within one step of it: the fixed run steps one matrix at a time,
    the adaptive run's first Magnus-6 pass (5000 steps of 0.04) scans its
    chunks and re-steps the one that overflows."""
    t_overflow = math.log(np.finfo(float).max) / 10.0
    named = []
    for config in (StepperConfig(dt=0.01),
                   StepperConfig(method="rk4-adaptive", dt=0.01, target_local_error=1e-6)):
        with pytest.raises(StepperDiverged) as err:
            integrate(lambda t: 10j * np.eye(1), np.array([1.0 + 0j]), 0.0, 200.0, config)
        named.append(float(str(err.value).rsplit("=", 1)[1]))
    assert abs(named[0] - t_overflow) < 0.02
    assert t_overflow < named[1] <= t_overflow + 0.04


@pytest.mark.parametrize("method", ["rk4-fixed", "rk4-adaptive"])
def test_divergence_raises_without_numpy_warnings(method):
    """Overflow in the state arithmetic is reported by StepperDiverged alone."""
    gen = lambda t: 1j * np.array([[3.0, 2.0], [2.0, 3.0 + math.cos(t)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepperDiverged):
            integrate(gen, np.array([1.0, -1.0j]), 0.0, 1000.0,
                      StepperConfig(method=method, dt=0.5, target_local_error=1e-6))


@pytest.mark.parametrize("method", ["rk4-fixed", "rk4-adaptive"])
def test_three_level_divergence_raises_stepper_diverged(method):
    """A generator that overflows the step matrices of a 3x3 run is reported
    as divergence under both methods, not as a malformed matrix."""
    gen = lambda t: np.diag([1e300j * math.exp(t), 1.0, 1.0])
    with pytest.raises(StepperDiverged):
        integrate(gen, np.ones(3, dtype=complex), 0.0, 1.0, StepperConfig(method=method))


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


def test_magnus6_is_sixth_order():
    """Halving the Magnus-6 step cuts the endpoint error by about 2^6 = 64 on
    a non-commuting generator; with +1/60 in Omega the scheme is fourth
    order and the ratio is about 16."""
    gen = lambda t: np.array([[np.cos(t), 0.5 + 0.3 * t - 0.2j],
                              [0.5 + 0.3 * t + 0.2j, -np.sin(2 * t)]])
    y0 = np.array([1.0, 0.5j], dtype=complex)

    def endpoint(n):
        return stepping._integrate_fixed(gen, y0, 0.0, 2.0, n, stepping.magnus6_steps,
                                         scan=True)[1][-1]

    reference = endpoint(1280)
    e1, e2 = (np.max(np.abs(endpoint(n) - reference)) for n in (10, 20))
    assert e1 / e2 >= 50.0


def sequential_product(steps, y):
    states = [y]
    for m in steps:
        states.append(m @ states[-1])
    return np.array(states[1:])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024])
def test_scan_matches_the_sequential_product(n, dim):
    """The Hillis-Steele prefix products applied to a state, and to column
    states, agree with multiplying the steps in one at a time."""
    rng = np.random.default_rng(n + dim)
    h = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    steps = np.array([scipy.linalg.expm(-0.05j * (a + a.conj().T) + 0.001 * a) for a in h])
    y = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    for state in (y[:, 0], y):
        assert np.max(np.abs(stepping._scan(steps, state) - sequential_product(steps, state))) \
            <= 1e-13
