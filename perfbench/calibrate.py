"""Machine-speed calibration for a shared, noisy CPU.

On the 2-core machine this benchmark was written on, a fixed piece of
pure-Python work runs up to 1.6 times faster or slower from one half
minute to the next, as other tenants load the host.  Per-block rates of
identical inputs varied by 13% (coefficient of variation) for that
reason alone.  The harness therefore times this stdlib-only kernel
around every operation and scales each operation's time by
REFERENCE_S / kernel time, which brought the same variation down to 3%.
Scaled times read as milliseconds on a machine where the kernel takes
REFERENCE_S.  The kernel uses no code of the repository, so a change to
the library cannot move it.
"""

from fractions import Fraction
from time import perf_counter

# Typical kernel time on the machine the benchmark was written on.
REFERENCE_S = 4.0e-4


def _kernel():
    # small-int arithmetic, Fraction arithmetic and dict/tuple traffic,
    # roughly the mix of the library's own work
    s = 0
    for i in range(2500):
        s += i * i % 7
    a = Fraction(1)
    for i in range(1, 20):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, i)
    d = {}
    for i in range(300):
        d[(i % 13, i % 7)] = i
    return s, a, len(d)


def kernel_seconds():
    """Best of three kernel runs: an interrupt only adds time to one run,
    while a slow phase of the shared CPU slows all three."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best
