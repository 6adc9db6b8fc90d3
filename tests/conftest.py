import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from weakkam.critical import build_critical_data
from weakkam.grids import build_grid, build_transition, build_velocity_set
from weakkam.measures import build_ergodic_lp, lp_solve
from weakkam.models import make_model, superlinearize


@pytest.fixture(scope="session")
def quad():
    return make_model("quadratic", "half_square")


@pytest.fixture(scope="session")
def eik():
    return make_model("eikonal", "abs")


@pytest.fixture(scope="session")
def grid_c():
    # coarse workhorse grid
    return build_grid([[-4.0, 4.0]], 0.05)


@pytest.fixture(scope="session")
def grid_tiny():
    # 9 nodes, h = 0.5: exact-hit graph for the brute-force oracles
    return build_grid([[-2.0, 2.0]], 0.5)


@pytest.fixture(scope="session")
def vs7():
    return build_velocity_set(1.5, 7)


@pytest.fixture(scope="session")
def vs3():
    return build_velocity_set(1.0, 3)


@pytest.fixture(scope="session")
def tr_c(grid_c, vs7):
    return build_transition(grid_c, vs7)


@pytest.fixture(scope="session")
def tr_tiny(grid_tiny, vs3):
    return build_transition(grid_tiny, vs3)


@pytest.fixture(scope="session")
def eik_super(eik, grid_c):
    return superlinearize(eik, grid_c)


@pytest.fixture(scope="session")
def quad_crit(quad, grid_c, vs7, tr_c):
    return build_critical_data(quad, grid_c, vs7, transition=tr_c)


@pytest.fixture(scope="session")
def quad_ergodic(quad, grid_c, vs7, tr_c):
    return lp_solve(build_ergodic_lp(quad, grid_c, vs7, transition=tr_c))
