import warnings

import numpy as np
import pytest

# When a property fails, hypothesis imports its patch writer, which imports
# libcst, whose use of mypy_extensions.TypedDict warns. Under
# -W error::DeprecationWarning that warning ends the run with an INTERNALERROR
# before the falsifying example is printed, so the module is imported here,
# once, with DeprecationWarning ignored for this import alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed; hypothesis then writes no patch
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
