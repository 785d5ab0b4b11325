import numpy as np
import pytest

from betrans.testfuncs import suite_on_grid
from betrans.verify.checks import default_grid


# the registry's grid objects: plans live on their grid, so tests and
# registry checks share them
@pytest.fixture(scope="session")
def grid_main():
    return default_grid("main")


@pytest.fixture(scope="session")
def grid_fine():
    return default_grid("fine")


@pytest.fixture(scope="session")
def bump(grid_main):
    return suite_on_grid("bump12", grid_main)


@pytest.fixture(scope="session")
def x2gauss(grid_main):
    return suite_on_grid("x2gauss", grid_main)


@pytest.fixture(scope="session")
def xexp(grid_main):
    return suite_on_grid("xexp", grid_main)
