import numpy as np
import pytest

from filippov2d import PwsSystem, Window


def make_sys(f_p, g_p, f_m, g_m, window=None):
    if window is None:
        window = Window(-1.0, 1.0, -1.0, 1.0)
    return PwsSystem.from_strings(f_p, g_p, f_m, g_m, window)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
