import numpy as np
import pytest

import mmhopfield as mm


@pytest.fixture(scope="session")
def photon_pair():
    return [mm.PhotonMode(index=1, frequency=0.8),
            mm.PhotonMode(index=2, frequency=1.6)]


@pytest.fixture(scope="session")
def unstructured_coupling(photon_pair):
    # both modes see the same extended electron gas, weak cross overlap
    return mm.couplings_from_ratios(photon_pair, 0.37, 0.2124026, 0.15)


@pytest.fixture(scope="session")
def structured_coupling(photon_pair):
    # etched patch under the first mode, near-unit overlap
    return mm.couplings_from_ratios(photon_pair, 0.28, 0.1351351, 0.999)


@pytest.fixture(scope="session")
def full_grid():
    return 0.05 + 0.01 * np.arange(216)


@pytest.fixture(scope="session")
def coarse_grid():
    return 0.05 + 0.05 * np.arange(44)


@pytest.fixture(scope="session")
def lc_profile():
    return mm.synthetic_profile("lc")


@pytest.fixture(scope="session")
def dipolar_profile():
    return mm.synthetic_profile("dipolar")
