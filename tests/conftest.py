import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def broken_clifford_sign(monkeypatch):
    """Negate every contraction phase of the Clifford action: the fault that
    ``cliff_relations_check`` must catch.  The module cache and the unit-spinor
    tensors built from it are emptied before and after, so nothing built with
    the fault outlives the test."""
    from spinlab import clifford, gks

    frame_phase = clifford._frame_phase

    def broken(frames, rows):
        contraction = (frames > 0) & ((rows & clifford._bit(frames)) == 0)
        phase = frame_phase(frames, rows)
        return np.where(contraction, -phase, phase)

    caches = (clifford.get_module, gks._unit_spinor_tensors)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(clifford, "_frame_phase", broken)
    yield
    for cache in caches:
        cache.cache_clear()
