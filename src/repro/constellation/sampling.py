"""Random subset sampling of constellations.

The paper's Monte-Carlo methodology: "In each run, we randomly sample
satellites from the Starlink network."  These helpers sample without
replacement with a seeded :class:`numpy.random.Generator`, so experiments are
reproducible and independent runs differ only in their seed.
"""

from __future__ import annotations

import numpy as np

from repro.constellation.satellite import Constellation


def sample_constellation(
    source: Constellation,
    count: int,
    rng: np.random.Generator,
    name: str = "",
) -> Constellation:
    """Sample ``count`` satellites from ``source`` without replacement.

    Args:
        source: Constellation to draw from.
        count: Number of satellites to sample (<= len(source)).
        rng: Seeded random generator.
        name: Name for the sampled constellation.

    Raises:
        ValueError: If ``count`` exceeds the source size or is negative.
    """
    indices = sample_indices(source, count, rng)
    return source.take(indices, name=name or f"sample-{count}")


def sample_indices(
    source: Constellation,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The sorted index draw behind :func:`sample_constellation`.

    Identical RNG consumption, so callers that need the indices too (e.g.
    to subset a cached pool propagator) can take this and ``source.take``
    themselves without perturbing downstream draws.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count > len(source):
        raise ValueError(
            f"cannot sample {count} satellites from a constellation of {len(source)}"
        )
    return np.sort(rng.choice(len(source), size=count, replace=False))
