import pathlib
import sys

import numpy as np
import pytest

# allow running the suite from a fresh checkout without installing
src = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))


@pytest.fixture
def svd_inputs(monkeypatch):
    """The list that collects the array of every later np.linalg.svd call."""
    seen, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen
