"""Test-suite settings, long double oracles and a step counter shared by the test modules."""
import numpy as np
from hypothesis import settings

from laxlab import roundoff

# Derandomized, so a run of the suite draws the same examples every time and
# a failure reproduces; per-test @settings keep their own max_examples.
settings.register_profile("laxlab", derandomize=True, deadline=None)
settings.load_profile("laxlab")

# np.fft keeps long double only from numpy 2, and long double is wider
# than double only on some platforms.
EXTENDED_FFT = (
    np.finfo(np.fft.rfft(np.ones(4, np.longdouble)).real.dtype).eps < np.finfo(float).eps
)


def _circulant_power_ld(s, steps):
    """C^steps as a dense long double matrix: the wrapped kernel raised by
    repeated squaring with direct circular convolutions, no transform."""
    n = s.period

    def conv(a, b):
        full = np.convolve(a, b)
        full[: n - 1] += full[n:]
        return full[:n]

    k = np.zeros(n, np.longdouble)
    k[np.mod(s.offsets, n)] = s.coefficients
    result = np.zeros(n, np.longdouble)
    result[0] = 1
    while steps:
        if steps & 1:
            result = conv(result, k)
        steps >>= 1
        if steps:
            k = conv(k, k)
    # (C u)[j] = sum_i kernel[i] u[j + i]
    return result[np.mod(np.arange(n) - np.arange(n)[:, None], n)]


def _counting_stepper(monkeypatch, widths):
    """Wrap the ``trajectory`` that the stepped loop (``roundoff._stepped_runs``)
    reads, so that each step appends the number of grid points it stepped
    (the width of the array it yields) to ``widths``."""
    real = roundoff.trajectory

    def counted(s, values):
        for out in real(s, values):
            widths.append(out.shape[-1])
            yield out

    monkeypatch.setattr(roundoff, "trajectory", counted)
