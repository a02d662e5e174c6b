import math

import numpy as np
import pytest

from wallflow import waveforms as wf
from wallflow.config import validate_config
from wallflow.errors import ConfigError, ValidationError

from oracles import waveform_at
from test_config import minimal_raw


def numeric_average(wave, t0, t1, n=200001):
    t = np.linspace(t0, t1, n)
    return np.trapezoid(waveform_at(wave, t), t) / (t1 - t0)


def test_constant_average_is_the_value():
    w = wf.Constant(4.2)
    assert w.average(0.0, 0.37) == 4.2
    assert w.l2_norm_sq(0.0, 2.0) == pytest.approx(4.2**2 * 2.0, rel=1e-15)


def test_constant_average_any_interval():
    # 40 seeded (t0, width, value) draws in [0, 5] x [1e-3, 3] x [-1e4, 1e4],
    # the first at every range's low end and the second at every high end
    low, high = np.array([0.0, 1e-3, -1e4]), np.array([5.0, 3.0, 1e4])
    draws = np.random.default_rng(28).uniform(low, high, (40, 3))
    draws[:2] = low, high
    for t0, width, value in draws:
        assert wf.Constant(value).average(t0, t0 + width) == value


def test_sine_average_closed_form():
    # unit-amplitude sin(t): the step average is (cos t0 - cos t1) / dt
    w = wf.Sine(amplitude=1.0, frequency=1.0 / (2.0 * math.pi))
    t0, t1 = 0.3, 0.95
    expected = (math.cos(t0) - math.cos(t1)) / (t1 - t0)
    assert w.average(t0, t1) == pytest.approx(expected, rel=1e-14)
    assert w.average(t0, t1) == pytest.approx(
        numeric_average(w, t0, t1), rel=1e-9)


def test_sine_l2_norm_matches_quadrature():
    w = wf.Sine(amplitude=2.5, frequency=3.0, phase=0.4)
    t = np.linspace(0.0, 1.3, 400001)
    ref = np.trapezoid(waveform_at(w, t)**2, t)
    assert w.l2_norm_sq(0.0, 1.3) == pytest.approx(ref, rel=1e-9)


def test_pulse_average_and_support():
    w = wf.HalfCosinePulse(amplitude=2.0e4, duration=0.005)
    assert w.average(0.006, 0.007) == 0.0
    assert w.average(0.0, 0.005) == pytest.approx(1.0e4, rel=1e-12)
    t0, t1 = 0.004, 0.0062     # straddles the pulse end
    assert w.average(t0, t1) == pytest.approx(
        numeric_average(w, t0, t1), rel=1e-7)
    assert waveform_at(w, [0.0025])[0] == pytest.approx(2.0e4, rel=1e-12)


def test_pulse_l2_norm_matches_quadrature():
    w = wf.HalfCosinePulse(amplitude=3.0, duration=0.8)
    t = np.linspace(0.0, 1.0, 400001)
    ref = np.trapezoid(waveform_at(w, t)**2, t)
    assert w.l2_norm_sq(0.0, 1.0) == pytest.approx(ref, rel=1e-9)


def test_pulse_rejects_bad_duration():
    # the schema's rule, met before any pulse is built
    raw = minimal_raw()
    raw["waveform"]["inlet"] = {"kind": "pulse", "amplitude": 1.0,
                                "duration": 0.0}
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert info.value.problems == ["waveform.inlet.duration must be positive"]


def test_sampled_average_is_exact_for_piecewise_linear():
    times = np.array([0.0, 0.5, 0.75, 2.0])
    values = np.array([1.0, 3.0, -1.0, 0.0])
    w = wf.Sampled(times, values)
    # exact integral: trapezoid over the knots
    t0, t1 = 0.25, 1.5
    knots = np.array([0.25, 0.5, 0.75, 1.5])
    vals = np.interp(knots, times, values)
    expected = np.trapezoid(vals, knots) / (t1 - t0)
    assert w.average(t0, t1) == pytest.approx(expected, rel=1e-14)
    ref = numeric_average(w, t0, t1)
    assert w.average(t0, t1) == pytest.approx(ref, rel=1e-8)


def test_sampled_l2_is_exact():
    times = np.array([0.0, 1.0, 3.0])
    values = np.array([2.0, 0.0, 1.0])
    w = wf.Sampled(times, values)
    t = np.linspace(0.0, 3.0, 600001)
    ref = np.trapezoid(waveform_at(w, t)**2, t)
    assert w.l2_norm_sq(0.0, 3.0) == pytest.approx(ref, rel=1e-9)


def test_sampled_rejections():
    # an empty sample list and a run the samples do not cover are the csv
    # reader's to reject (test_config::test_ingest_csv_rejections)
    with pytest.raises(ValidationError, match="strictly increasing"):
        wf.Sampled([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="strictly increasing"):
        wf.Sampled([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])


def pulse_l2_reference(w, t0, t1):
    """50-digit squared L2 norm of a pulse over (t0, t1), by quadrature of
    its defining formula clipped to the pulse."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b = (min(max(mpmath.mpf(t), 0), w.duration) for t in (t0, t1))
        if b <= a:
            return 0.0
        amp, tau = mpmath.mpf(w.amplitude), mpmath.mpf(w.duration)
        value = mpmath.quad(
            lambda t: (amp * (1 - mpmath.cos(2 * mpmath.pi * t / tau)) / 2)**2,
            [a, b])
        return float(value)


@pytest.mark.parametrize("wb", np.geomspace(1e-8, 2.0 * math.pi, 17))
def test_pulse_l2_norm_from_the_start_is_accurate_for_short_windows(wb):
    # w b = 2 pi b / duration; a closed form in sin(w b) and sin(2 w b)
    # cancels to a negative value once w b falls below about 1e-3, where
    # the norm is b (w b)^4 / 80
    w = wf.HalfCosinePulse(amplitude=2248.7581013486415, duration=6.8)
    b = wb * w.duration / (2.0 * math.pi)
    ref = pulse_l2_reference(w, 0.0, b)
    assert ref > 0.0
    assert w.l2_norm_sq(0.0, b) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("window", [(0.5e-6, 1e-6), (0.25, 0.5), (0.1, 0.7),
                                    (0.3, 1.0), (0.5, 2.0), (0.999, 1.5)])
def test_pulse_l2_norm_inside_the_pulse_matches_the_reference(window):
    # windows (in units of the duration) at the start, in the middle,
    # across the middle and at the end, where the pulse is small again
    w = wf.HalfCosinePulse(amplitude=-3.0, duration=0.8)
    t0, t1 = (s * w.duration for s in window)
    assert w.l2_norm_sq(t0, t1) == pytest.approx(
        pulse_l2_reference(w, t0, t1), rel=1e-14, abs=0.0)


def test_pulse_l2_norm_is_never_negative():
    w = wf.HalfCosinePulse(amplitude=1e4, duration=0.8)
    for t0 in (1e-9, 0.013, 0.4, 0.79):
        for ulps in (1, 2, 8):
            t1 = t0 + ulps * math.ulp(t0)
            assert w.l2_norm_sq(t0, t1) >= 0.0


def pulse_average_reference(w, t0, t1):
    """50-digit step average of a pulse over (t0, t1), from the exact
    antiderivative of its defining formula clipped to the pulse."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b = (min(max(mpmath.mpf(t), 0), w.duration) for t in (t0, t1))
        if b <= a:
            return 0.0
        amp, omega = mpmath.mpf(w.amplitude), 2 * mpmath.pi / w.duration

        def anti(t):
            return amp * (t - mpmath.sin(omega * t) / omega) / 2

        return float((anti(b) - anti(a)) / (mpmath.mpf(t1) - mpmath.mpf(t0)))


@pytest.mark.parametrize("wb", np.geomspace(1e-8, 2.0 * math.pi, 17))
def test_pulse_average_from_the_start_is_accurate_for_short_windows(wb):
    # t - sin(w t) / w cancels for w t << 1, where the average is about
    # amplitude (w b)^2 / 6
    w = wf.HalfCosinePulse(amplitude=2248.7581013486415, duration=6.8)
    b = wb * w.duration / (2.0 * math.pi)
    assert w.average(0.0, b) == pytest.approx(
        pulse_average_reference(w, 0.0, b), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("window", [(0.5e-6, 1e-6), (0.25, 0.5), (0.1, 0.7),
                                    (0.3, 1.0), (0.5, 2.0), (0.999, 1.5),
                                    (0.5 - 1e-12, 0.5 + 1e-12),
                                    (1.0 - 1e-9, 1.0), (-1.0, 2.0)])
def test_pulse_average_inside_the_pulse_matches_the_reference(window):
    # short windows anywhere in the pulse, most of all near its end where
    # the pulse is small again, and windows across its ends
    w = wf.HalfCosinePulse(amplitude=-3.0, duration=0.8)
    t0, t1 = (s * w.duration for s in window)
    assert w.average(t0, t1) == pytest.approx(
        pulse_average_reference(w, t0, t1), rel=1e-14, abs=0.0)


def test_pulse_step_averages_match_the_reference():
    # every step of the shipped pulse run, and the first step of a run
    # whose step is 3e-5 of the pulse (its average read -9.2e-9 relative
    # off with the antiderivative difference)
    w = wf.HalfCosinePulse(amplitude=2.0e4, duration=0.005)
    dt = 0.012 / 200
    for n in range(200):
        t0, t1 = n * dt, (n + 1) * dt
        assert w.average(t0, t1) == pytest.approx(
            pulse_average_reference(w, t0, t1), rel=1e-14, abs=0.0)
    w = wf.HalfCosinePulse(amplitude=2248.7581013486415,
                           duration=6.793069093479936)
    dt = 0.00020902281189956592
    assert w.average(0.0, dt) == pytest.approx(
        pulse_average_reference(w, 0.0, dt), rel=1e-14, abs=0.0)
