import warnings
from collections import Counter

import numpy as np
import pytest

import kg_lab
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


# Tier-1 stays free of skips: a skipped test checks nothing while the
# suite still reads green, so any skip, at collection or at run time, fails
# the session.
_skipped: list[str] = []


def pytest_runtest_logreport(report):
    if report.skipped:
        _skipped.append(report.nodeid)


pytest_collectreport = pytest_runtest_logreport


def pytest_sessionfinish(session, exitstatus):
    if _skipped and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _skipped:
        terminalreporter.write_sep("=", "skipped tests fail the suite", red=True)
        for nodeid in _skipped:
            terminalreporter.write_line(nodeid)


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


@pytest.fixture
def transform_calls(monkeypatch):
    """Counts, by name, each call of the complex transform pair, in every
    module that holds it, and of numpy's half-spectrum pair rfft/irfft."""
    calls = Counter()

    def counting(name, transform):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return wrapped

    for module in (kg_lab.foundation, kg_lab.states, kg_lab.propagation, kg_lab.observables):
        for name in ("forward_transform", "inverse_transform"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls
