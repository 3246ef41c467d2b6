"""Scalar reference for the UI expected-skyline estimator.

Production computes ``H_{d-1, n}`` with ``d - 1`` numpy cumulative-sum
passes (:func:`repro.stats.estimate.expected_skyline_size`).  The
reference here is the same recurrence as a plain double loop with one
running sum per pass; the suite checks the two for exact float equality.
"""

from __future__ import annotations

from repro.errors import InvalidParameterError


def expected_skyline_size(n: int, d: int) -> float:
    """``H_{d-1, n}`` by the scalar harmonic recurrence.

    ``H_{0, i} = 1`` and ``H_{k, n} = sum_{i=1..n} H_{k-1, i} / i``.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    # current[i-1] holds H_{k, i}; start with H_0 = 1 for every prefix.
    current = [1.0] * n
    for _ in range(d - 1):
        running = 0.0
        previous = current
        current = []
        for i in range(1, n + 1):
            running += previous[i - 1] / i
            current.append(running)
    return current[n - 1]
