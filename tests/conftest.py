import numpy as np
import pytest

from floqscat.model import build_lattice, fleet, rabi_model
from floqscat.propagation import PropagatorSchedule, monodromy
from floqscat.resolvent import q_factorized


def random_hermitian(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="session")
def fleet_models():
    return fleet()


@pytest.fixture(scope="session")
def rabi():
    return rabi_model(0.0, 1.0)


@pytest.fixture(scope="session")
def fast_sched():
    return PropagatorSchedule(steps_per_period=128, order=4)


@pytest.fixture(scope="session")
def accurate_sched():
    return PropagatorSchedule(steps_per_period=512, order=4)


@pytest.fixture(scope="session")
def driven_well_64():
    ctr = 32
    return build_lattice(64, 1.0, -2.0, 0.5, range(ctr - 2, ctr + 3))


@pytest.fixture(scope="session")
def driven_well_64_monodromy(driven_well_64, accurate_sched):
    return monodromy(driven_well_64, 0.0, accurate_sched)


@pytest.fixture(scope="session")
def fleet_d3_grid_q_spectrum():
    """Eigenvalues of the grid operator A R0 B of fleet()[1] at zeta = 1 + i, N_t = 1024.

    The dense 3072^2 eigenvalue problem is the suite's largest single cost;
    acceptance criterion 6 and the block-resolvent equivalence test share it.
    """
    return np.linalg.eigvals(q_factorized(fleet()[1], 1.0 + 1.0j, 1024)[0])
