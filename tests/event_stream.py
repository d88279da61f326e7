"""Test helper: ``event_ensemble``'s stream of chunks as one run."""

import numpy as np

from storagelab import simulator


def flat_events(*args, starts=False, **kwargs):
    """``simulator.event_ensemble(*args, **kwargs)``'s chunks joined into
    one flat ``(lane, t, size, x_after)``, lane-major; without each lane's
    opening start row, so the run's jumps, unless ``starts``."""
    chunks = list(simulator.event_ensemble(*args, **kwargs))
    if not chunks:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), np.empty(0)
    lane, t, size, x_after = (np.concatenate(col) for col in zip(*chunks))
    keep = np.ones(lane.size, dtype=bool)
    if not starts:
        keep[0] = False
        keep[1:] = lane[1:] == lane[:-1]  # a lane's first row is its start
    return lane[keep], t[keep], size[keep], x_after[keep]
