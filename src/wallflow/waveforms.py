"""Inlet/outlet pressure waveforms with exact per-step averaging.

The scheme consumes the *mean* of the pressure data over each step,
(1/dt) * integral of P over (t_n, t_n+1); closed-form waveforms integrate
exactly and sampled ones are piecewise linear, for which the trapezoid
rule over the sample knots is exact.  Squared-L2 norms over (0, T) back the
uniform energy bound and are exact as well.
"""

import math

import numpy as np

from .errors import ValidationError


class Constant:
    def __init__(self, value):
        self.value = float(value)

    def average(self, t0, t1):
        return self.value

    def l2_norm_sq(self, t0, t1):
        return self.value**2 * (t1 - t0)


class Sine:
    """amplitude * sin(2*pi*frequency*t + phase)."""

    def __init__(self, amplitude, frequency, phase=0.0):
        self.amplitude = float(amplitude)
        self.omega = 2.0 * math.pi * float(frequency)
        self.phase = float(phase)

    def average(self, t0, t1):
        if self.omega == 0.0:
            return self.amplitude * math.sin(self.phase)
        a, w, p = self.amplitude, self.omega, self.phase
        return a * (math.cos(w * t0 + p) - math.cos(w * t1 + p)) / (w * (t1 - t0))

    def l2_norm_sq(self, t0, t1):
        a, w, p = self.amplitude, self.omega, self.phase
        if w == 0.0:
            return (a * math.sin(p))**2 * (t1 - t0)

        def anti(t):
            return t / 2.0 - math.sin(2.0 * (w * t + p)) / (4.0 * w)

        return a * a * (anti(t1) - anti(t0))


class HalfCosinePulse:
    """Smooth single pulse amplitude * (1 - cos(2*pi*t/duration)) / 2 on
    [0, duration], zero afterwards (C1 across the end)."""

    def __init__(self, amplitude, duration):
        self.amplitude = float(amplitude)
        self.duration = float(duration)

    def average(self, t0, t1):
        a = min(max(t0, 0.0), self.duration)
        b = min(max(t1, 0.0), self.duration)
        if b <= a:
            return 0.0
        # integral of sin^2(w s / 2) over (a, b): ((x - sin x) + 2 sin x
        # sin^2(w m / 2)) / w, x = w (b - a) / 2, m the window's middle from
        # the nearer end (the pulse is symmetric); x - sin x by series if x < 2
        tau, w = self.duration, 2.0 * math.pi / self.duration
        x = 0.5 * w * (b - a)
        m = 0.5 * (a + b) if a + b <= tau else 0.5 * ((tau - a) + (tau - b))
        odd = (sum((-1)**(k + 1) * x**(2 * k + 1) / math.factorial(2 * k + 1)
                   for k in range(12, 0, -1)) if x < 2.0 else x - math.sin(x))
        value = odd + 2.0 * math.sin(x) * math.sin(0.5 * w * m)**2
        return self.amplitude * value / (w * (t1 - t0))

    def l2_norm_sq(self, t0, t1):
        a = min(max(t0, 0.0), self.duration)
        b = min(max(t1, 0.0), self.duration)
        if b <= a:
            return 0.0
        tau = self.duration
        w = 2.0 * math.pi / tau

        def anti(t):
            # integral of sin^4(w s / 2) over (0, t), for x = w t <= pi:
            # (3 x - sin x (3 + 2 sin^2(x / 2))) / (8 w), or for x < 2, where
            # its terms cancel, the series t x^4 sum_{k=2}^{16} (-1)^k
            # (4^k - 4) x^(2k - 4) / (8 (2k + 1)!), led by t x^4 / 80
            x = w * t
            if x < 2.0:
                series = 0.0
                for k in range(16, 1, -1):
                    series = series * x * x + ((-1)**k * (4**k - 4)
                                               / (8 * math.factorial(2 * k + 1)))
                return t * x**4 * series
            return (3.0 * x - math.sin(x) * (3.0 + 2.0 * math.sin(0.5 * x)**2)
                    ) / (8.0 * w)

        # the pulse is symmetric about its middle: measuring a window end
        # from the nearer pulse end keeps large values from cancelling
        half = 0.5 * tau
        if b <= half:
            value = anti(b) - anti(a)
        elif a >= half:
            value = anti(tau - a) - anti(tau - b)
        else:
            value = 2.0 * anti(half) - anti(a) - anti(tau - b)
        return self.amplitude**2 * max(value, 0.0)


class Sampled:
    """Piecewise-linear waveform through strictly increasing samples.

    Outside the samples ``np.interp`` holds the end values; a run's window
    is checked against the samples once, when ``config.ingest_waveform``
    reads them.
    """

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if not np.all(np.diff(self.times) > 0):
            raise ValidationError("sampled waveform time column must be "
                                  "strictly increasing")

    def _knots(self, t0, t1):
        inner = self.times[(self.times > t0) & (self.times < t1)]
        return np.concatenate([[t0], inner, [t1]])

    def average(self, t0, t1):
        ts = self._knots(t0, t1)
        vs = np.interp(ts, self.times, self.values)
        return float(np.trapezoid(vs, ts)) / (t1 - t0)

    def l2_norm_sq(self, t0, t1):
        ts = self._knots(t0, t1)
        vs = np.interp(ts, self.times, self.values)
        seg = np.diff(ts)
        f0, f1 = vs[:-1], vs[1:]
        return float(np.sum(seg * (f0 * f0 + f0 * f1 + f1 * f1) / 3.0))
