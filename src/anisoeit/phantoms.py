"""Conductivities: the SPD rule, constant tensors and the stock phantoms.

A conductivity is any callable mapping points (N, 2) to tensors
(N, 2, 2); the forward solver samples it once per element.  The paper's
model is ``a(x) * A0`` with a known constant SPD background ``A0`` and a
positive scalar ``a``, and ``check_spd`` is the one definition of
"symmetric positive definite" that every input tensor is held to.

The stock phantoms are discontinuous radially symmetric scalars times a
constant diagonal anisotropy tensor.  They intentionally violate the C^1
smoothness the theory assumes; the solver samples conductivity once per
element so only element classification sees the jump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

INCLUSION_RADIUS = 0.5

# stock phantoms: name -> (contrast M, background tensor A0)
STOCK = {
    "A1": (1.3, np.diag([1.0, 1.3])),
    "A2": (1.3, np.diag([1.3, 1.0])),
    "A3": (4.0, np.diag([1.0, 4.0])),
    "A4": (4.0, np.diag([4.0, 1.0])),
}


def check_spd(A) -> np.ndarray:
    """A copy of the 2x2 matrix ``A`` as floats, if it is symmetric
    positive definite; raises ValueError otherwise.

    Symmetric means |A - A^T| <= 1e-12 * max(1, max|A|) entrywise;
    positive definite means A11 > 0 and det A > 0.
    """
    A = np.array(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix is not symmetric")
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if det <= 0 or A[0, 0] <= 0:
        raise ValueError("matrix is not positive definite")
    return A


def constant_tensor(A0) -> Callable[[np.ndarray], np.ndarray]:
    """Conductivity that is the constant SPD matrix ``A0`` everywhere."""
    A0 = check_spd(A0)
    return lambda points: np.broadcast_to(A0, (len(points), 2, 2))


def sigma_profile(M: float) -> Callable[[np.ndarray], np.ndarray]:
    """Radial two-level scalar: M inside |x| < 0.5, 1 for |x| >= 0.5.

    The value on the circle |x| = 0.5 itself follows the half-open
    convention (background value 1).
    """
    if M <= 0:
        raise ValueError(f"contrast must be positive, got M={M}")
    M = float(M)

    def sigma(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.hypot(pts[:, 0], pts[:, 1])
        return np.where(r < INCLUSION_RADIUS, M, 1.0)

    return sigma


@dataclass(frozen=True)
class PhantomSpec:
    """A named phantom: scalar contrast profile times a constant tensor."""

    name: str
    M: float
    A0: np.ndarray
    true_scalar: Callable[[np.ndarray], np.ndarray]   # ground-truth a(x)

    def tensor(self, points: np.ndarray) -> np.ndarray:
        """Conductivity a(x) * A0 on points (N, 2): (N, 2, 2)."""
        return self.true_scalar(points)[:, None, None] * self.A0


def make_phantom(M: float, A0: np.ndarray, name: str = "custom") -> PhantomSpec:
    return PhantomSpec(name=name, M=float(M), A0=check_spd(A0),
                       true_scalar=sigma_profile(M))


def phantom_by_name(name: str) -> PhantomSpec:
    """Stock phantoms 'A1'..'A4' (contrast 1.3, 1.3, 4, 4)."""
    if name not in STOCK:
        raise KeyError(f"unknown phantom {name!r}; expected one of {sorted(STOCK)}")
    M, A0 = STOCK[name]
    return make_phantom(M, A0, name=name)
