"""The tests' measure of a call's memory: its traced peak in units of an array.

tracemalloc sees every numpy buffer, so the most memory a call holds at once,
over what was held when it started, counts the arrays of a given size it
holds at the same time, its result included.  Fill the caches the call
reads (plans, the bare defect) before measuring it.
"""
import tracemalloc


def peak_in_units(unit_nbytes: int, fn, *args):
    """(fn(*args), the call's traced peak over its start / unit_nbytes)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return out, peak / unit_nbytes
