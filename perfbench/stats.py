"""Summary statistics for benchmark samples and trace spans.

A span is a tuple ``(name, start, end, parent, info)``: ``parent`` is the
index of the enclosing span in the same list (or ``None``), and ``info`` a
dict of counts recorded at the boundary (bytes, EM iterations). Spans are
appended when they open, so a span's children always follow it.
"""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(pct, n):
    # the small offset keeps float error in pct/100*n from rounding up
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least `pct`% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(values, min_beyond=10):
    """(pct, value) for the highest of TAIL_PERCENTILES that still has at
    least `min_beyond` samples above it; (None, None) when even the median
    has fewer."""
    n = len(values)
    best = (None, None)
    for pct in TAIL_PERCENTILES:
        if n - _rank(pct, n) >= min_beyond:
            best = (pct, percentile(values, pct))
    return best


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap, because spans nest on a call stack.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def coverage(spans, step_name):
    """(covered share, uncovered seconds per step) of the `step_name` spans.

    The part of a step covered by layer spans is its duration minus its own
    self time; the uncovered rest is time no span inside the step accounts for.
    """
    selfs = self_times(spans)
    total = uncovered = 0.0
    steps = 0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name == step_name:
            total += end - start
            uncovered += selfs[i]
            steps += 1
    if steps == 0 or total <= 0.0:
        return 0.0, 0.0
    return 1.0 - uncovered / total, uncovered / steps
