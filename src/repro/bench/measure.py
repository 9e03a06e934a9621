"""Measurements the bench scenarios take beside their span timings.

:func:`peak_rss_kb` reads the process's memory high-water mark, and
:class:`AlertOverheadProbe` charges an alerting run's hook time to the
hooks from inside that run.  Wall and per-span times come from the
scenario's own :class:`~repro.obs.tracing.Tracer`
(:mod:`repro.bench.scenarios`).
"""

from __future__ import annotations

import sys
import time


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 if unknown).

    ``ru_maxrss`` is a high-water mark, so deltas between readings are
    only meaningful upward; baselines record it as context, the gate
    never fails on it.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


class AlertOverheadProbe:
    """In-situ accounting of an :class:`AlertEngine`'s hook cost.

    Two-leg A/B timing (run the workload with alerting off, then on,
    compare wall clocks) cannot resolve a few-percent overhead on a
    shared runner: the legs see *different* interference windows, and
    measured noise of either wall or CPU clocks between legs reaches
    ±15%.  This probe instead wraps the engine's two hot hooks —
    ``on_span`` and ``observe_invocation`` — with ``perf_counter``
    pairs *inside one alerting run*, so the numerator (time in hooks)
    and the denominator (leg total) are read from the same clock over
    the same interference window and contention cancels to first
    order.

    A scheduler preemption landing inside a hook window would charge
    milliseconds of someone else's timeslice to a microsecond hook, so
    windows over ``clamp_s`` are clamped — *unless* the hook opened an
    incident bundle, whose multi-millisecond build cost is genuine and
    must stay in the bill.  Legitimate non-incident hooks cost 1–15 µs;
    a regression big enough to push them past the clamp would blow any
    gate long before clamping could mask it.

    The wrapper's own cost (two timer reads and a couple of loads per
    hook) is charged to the hooks, so the reported overhead is a
    slight *over*-estimate — the safe direction for a regression gate.
    """

    def __init__(self, engine, clamp_s: float = 100e-6) -> None:
        self.engine = engine
        self.clamp_s = clamp_s
        self.hook_s = 0.0
        self.hooks = 0
        self.clamped = 0

    def install(self) -> "AlertOverheadProbe":
        """Shadow the engine's hook methods with timed wrappers."""
        engine = self.engine
        incidents = engine.incidents
        clamp_s = self.clamp_s
        pc = time.perf_counter
        orig_span = engine.on_span
        orig_inv = engine.observe_invocation

        def on_span(span):
            before = len(incidents)
            t0 = pc()
            orig_span(span)
            dt = pc() - t0
            if dt > clamp_s and len(incidents) == before:
                dt = clamp_s
                self.clamped += 1
            self.hook_s += dt
            self.hooks += 1

        def observe_invocation(kernel, record, app=None):
            before = len(incidents)
            t0 = pc()
            orig_inv(kernel, record, app)
            dt = pc() - t0
            if dt > clamp_s and len(incidents) == before:
                dt = clamp_s
                self.clamped += 1
            self.hook_s += dt
            self.hooks += 1

        engine.on_span = on_span
        engine.observe_invocation = observe_invocation
        return self

    def overhead_ratio(self, total_s: float) -> float:
        """``total / (total - hook_s)``: the leg's cost relative to
        the same leg with the hooks deleted."""
        remainder = total_s - self.hook_s
        if remainder <= 0:
            return float("inf")
        return total_s / remainder
