import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def _clifford_sign_fault():
    from spinlab import clifford, gks

    frame_phase = clifford._frame_phase

    def broken(frames, rows):
        contraction = (frames > 0) & ((rows & clifford._bit(frames)) == 0)
        phase = frame_phase(frames, rows)
        return np.where(contraction, -phase, phase)

    clifford.get_module.cache_clear()
    gks._dual_map.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clifford, "_frame_phase", broken)
            yield
    finally:
        clifford.get_module.cache_clear()
        gks._dual_map.cache_clear()


@pytest.fixture
def broken_clifford_sign():
    """Negate every contraction phase of the Clifford action: the fault that
    ``cliff_relations_check`` must catch.  The module cache and the 3-d sweep's
    process-wide ``gks._dual_map`` are emptied before and after; every other
    cache built from a module is keyed on the module object, so nothing built
    with the fault outlives the test."""
    with _clifford_sign_fault():
        yield


@pytest.fixture
def clifford_sign_fault():
    """The fault of ``broken_clifford_sign`` as a context manager, for a test
    that compares results with the fault on and off."""
    return _clifford_sign_fault
