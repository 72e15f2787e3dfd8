import warnings

import pytest

from kg_lab import UnitSystem, make_grid

# When a property test fails, hypothesis imports its patch writer, whose
# libcst import can raise a DeprecationWarning. Under filterwarnings = error
# (pyproject.toml) that aborts the session with an INTERNALERROR instead of
# reporting the failure, so the writer is imported here, up front.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis skips the patch and reports plainly
        pass


@pytest.fixture
def natural():
    return UnitSystem.natural()


@pytest.fixture
def units_m4():
    return UnitSystem(hbar=1.0, c=1.0, m=4.0)


@pytest.fixture
def grid400():
    return make_grid(4096, 400.0)


@pytest.fixture
def grid_small():
    return make_grid(256, 100.0)
