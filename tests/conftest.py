import numpy as np
import pytest

import dctm.parallel


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def blas():
    """The loaded OpenBLAS's (get, set) thread-count pair; its count is put back after."""
    found = dctm.parallel._openblas()
    if found is None:
        pytest.skip("no OpenBLAS loaded in this process; thread-count contracts "
                    "are tested for the OpenBLAS family only")
    before = found[0]()
    yield found
    found[1](before)
