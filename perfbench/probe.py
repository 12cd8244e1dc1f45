"""Host speed probe: a fixed pure-Python loop that runs no planegaze code.

On a shared host the speed of a vCPU flips between a fast and a slow state
(about 1.6x apart) every few seconds and drifts for minutes. The benchmark
runs the probe just before and just after each timed step and each set-up
and reports their times scaled to the probe's reference speed:
``seconds * PROBE_REF_S / probe_s``, with ``probe_s`` the mean of the two
probes. A planegaze change does not touch the probe, so it moves a scaled
time by the same share as the wall time. Standard library only, so that a
fresh interpreter can run it without importing anything planegaze needs.
"""

from time import perf_counter

# the probe's time at full speed on the 2-vCPU VM the benchmark was written on
PROBE_REF_S = 0.015


def probe() -> float:
    """Seconds for the fixed loop."""
    t = perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return perf_counter() - t


def at_reference_speed(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s
