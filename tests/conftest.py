import numpy as np
import pytest

from anisoeit import (build_disk_mesh, place_electrodes, constant_tensor,
                      simulate_voltages, dn_matrix, extend_mu, solve_beltrami)
from anisoeit.phantoms import STOCK


@pytest.fixture(scope="session")
def layout16():
    return place_electrodes(16, 0.5, 0.01)


@pytest.fixture(scope="session")
def mesh16(layout16):
    return build_disk_mesh(1.0, 0.06, layout16)


@pytest.fixture(scope="session")
def dn_identity16(mesh16, layout16):
    data = simulate_voltages(mesh16, constant_tensor(np.eye(2)), layout16)
    return dn_matrix(data)


@pytest.fixture(scope="session")
def layout32_fine():
    return place_electrodes(32, 0.5, 0.005)


@pytest.fixture(scope="session")
def mesh32_fine(layout32_fine):
    return build_disk_mesh(1.0, 0.02, layout32_fine)


@pytest.fixture(scope="session")
def dn_identity32(mesh32_fine, layout32_fine):
    data = simulate_voltages(mesh32_fine, constant_tensor(np.eye(2)),
                             layout32_fine)
    return dn_matrix(data)


@pytest.fixture(scope="session")
def catalog_maps():
    """Quasi-conformal maps for the four stock background tensors."""
    return {name: solve_beltrami(extend_mu(A0))
            for name, (_, A0) in STOCK.items()}


@pytest.fixture(scope="session")
def identity_qcmap():
    return solve_beltrami(extend_mu(np.eye(2)))
