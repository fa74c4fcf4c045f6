import functools
import shutil
import tempfile

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import brownian


def pytest_addoption(parser):
    parser.addoption(
        "--no-native",
        action="store_true",
        help="run numpy only: the native library (Brownian streams and the march of "
        "d = m = 1 and d = m = 2 built-in studies at every batch width) is never loaded",
    )


def pytest_configure(config):
    """The session builds the native library into its own cache directory,
    not the user's; with ``--no-native`` the loader returns ``None``, so
    sampling and every march run numpy."""
    cache = tempfile.mkdtemp(prefix="reflectedsde-cache-")
    mp = pytest.MonkeyPatch()
    config.add_cleanup(functools.partial(shutil.rmtree, cache, ignore_errors=True))
    config.add_cleanup(brownian._native.cache_clear)
    config.add_cleanup(mp.undo)
    mp.setenv("XDG_CACHE_HOME", cache)
    brownian._native.cache_clear()
    if config.getoption("--no-native"):
        mp.setattr(brownian, "_native", lambda: None)


def pytest_report_header(config):
    """Name the native library the session runs and what it serves, or numpy."""
    lib = brownian.native_library()
    if lib is None:
        return "native library: none (numpy streams and numpy march)"
    ziggurat = ("" if brownian._native().inline_ziggurat() else
                "; the inline ziggurat failed its check at load, so numpy's "
                "random_standard_normal draws every normal")
    return (f"native library: {lib} (Brownian streams; the march of d = m = 1 and "
            f"d = m = 2 built-in studies at every batch width){ziggurat}")


@pytest.fixture
def native(request):
    """The native library.  Skips under ``--no-native`` or without a C
    compiler; fails when a compiler is there but the library did not load."""
    if request.config.getoption("--no-native"):
        pytest.skip("--no-native: numpy runs")
    lib = brownian._native()
    if lib is None:
        if shutil.which("cc") is None:
            pytest.skip("no C compiler, so numpy runs")
        pytest.fail("a C compiler is present but the native library did not build or load")
    return lib


@pytest.fixture
def unit_interval():
    return rs.interval(-1.0, 1.0)


@pytest.fixture
def unit_box():
    return rs.box([0.0, 0.0], [1.0, 1.0])


@pytest.fixture
def unit_ball():
    return rs.ball(1.0, dim=2)


@pytest.fixture
def thick_annulus():
    return rs.annulus(0.5, 1.5, dim=2)


@pytest.fixture
def wavy_coeffs():
    """The standard 1-d test problem: sigma(y) = 0.5 + 0.2 sin y, b(y) = -0.3 y."""
    return rs.trig([[0.5]], [[0.2]], [1.0], drift_matrix=[[-0.3]])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
