import numpy as np
import pytest

from anisoeit import (sigma_profile, make_phantom, phantom_by_name,
                      beltrami_coefficient, constant_tensor)
from anisoeit.config import ConfigError, RunConfig
from anisoeit.phantoms import STOCK

CATALOG = {name: A0 for name, (_, A0) in STOCK.items()}


def test_sigma_values():
    sig = sigma_profile(1.3)
    assert sig(np.array([[0.25, 0.0]]))[0] == 1.3
    sig4 = sigma_profile(4.0)
    assert sig4(np.array([[0.75, 0.0]]))[0] == 1.0
    assert sig4(np.array([[0.0, 0.49]]))[0] == 4.0
    # half-open convention on the jump circle
    assert sig4(np.array([[0.5, 0.0]]))[0] == 1.0


def test_sigma_degenerate_contrast():
    sig = sigma_profile(1.0)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(100, 2))
    assert (sig(pts) == 1.0).all()


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma_profile(0.0)
    with pytest.raises(ValueError):
        sigma_profile(-2.0)


def test_catalog_matrices():
    assert set(CATALOG) == {"A1", "A2", "A3", "A4"}
    assert np.allclose(CATALOG["A1"], np.diag([1.0, 1.3]))
    assert np.allclose(CATALOG["A2"], np.diag([1.3, 1.0]))
    assert np.allclose(CATALOG["A3"], np.diag([1.0, 4.0]))
    assert np.allclose(CATALOG["A4"], np.diag([4.0, 1.0]))
    dets = [np.linalg.det(CATALOG[k]) for k in ("A1", "A2", "A3", "A4")]
    assert dets == pytest.approx([1.3, 1.3, 4.0, 4.0])


def test_catalog_mu_values():
    mus = [beltrami_coefficient(CATALOG[k]).real
           for k in ("A1", "A2", "A3", "A4")]
    assert mus == pytest.approx([0.0655, -0.0655, 0.3333, -0.3333], abs=5e-5)


def test_catalog_axis_swap_flips_mu():
    mu = {k: beltrami_coefficient(A0) for k, A0 in CATALOG.items()}
    assert np.allclose(CATALOG["A2"], CATALOG["A1"][::-1, ::-1])
    assert mu["A2"] == -mu["A1"]
    assert mu["A4"] == -mu["A3"]


def test_phantom_tensor_field():
    ph = phantom_by_name("A3")
    assert ph.M == 4.0
    inside = ph.tensor(np.array([[0.0, 0.25]]))[0]
    outside = ph.tensor(np.array([[0.0, 0.75]]))[0]
    assert np.allclose(inside, np.diag([4.0, 16.0]))
    assert np.allclose(outside, np.diag([1.0, 4.0]))


def test_phantom_spd_everywhere():
    rng = np.random.default_rng(9)
    r = np.sqrt(rng.random(2000))
    t = 2 * np.pi * rng.random(2000)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    for name in ("A1", "A2", "A3", "A4"):
        A = phantom_by_name(name).tensor(pts)
        assert np.allclose(A, np.swapaxes(A, 1, 2))
        assert (np.linalg.eigvalsh(A)[:, 0] > 0).all()


def test_phantom_unknown_name():
    with pytest.raises(KeyError):
        phantom_by_name("A9")


def test_custom_phantom():
    ph = make_phantom(2.5, np.eye(2), name="iso")
    assert ph.true_scalar(np.array([[0.1, 0.1]]))[0] == 2.5
    assert ph.true_scalar(np.array([[0.9, 0.0]]))[0] == 1.0


def _accepts(check, A0):
    try:
        check(A0)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("A0, spd", [
    ([[1.0, 0.0], [0.0, 1.3]], True),
    ([[1.0, 1e-13], [0.0, 1.3]], True),      # within 1e-12 * max|A|
    ([[1.0, 1e-10], [0.0, 1.3]], False),
    ([[1.0, 1e-6], [0.0, 1.3]], False),
    ([[1.0, 2.0], [2.0, 1.0]], False),       # symmetric, indefinite
])
def test_one_spd_rule(A0, spd):
    # the config, the phantom, the constant tensor and the dilatation all
    # accept exactly the same background tensors
    checks = {
        "config": lambda A: RunConfig(phantom={"M": 1.3, "A0": A}).validate(),
        "make_phantom": lambda A: make_phantom(1.3, np.array(A)),
        "constant_tensor": lambda A: constant_tensor(np.array(A)),
        "beltrami_coefficient": lambda A: beltrami_coefficient(np.array(A)),
    }
    assert {name: _accepts(check, A0) for name, check in checks.items()} \
        == dict.fromkeys(checks, spd)
    if not spd:
        with pytest.raises(ConfigError):
            checks["config"](A0)
