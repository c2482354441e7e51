"""Quasi-conformal flattening of a constant anisotropy tensor.

The complex dilatation of an SPD tensor A is

    mu_A = (A22 - A11 - 2i A12) / (A11 + A22 + 2 sqrt(det A)),

with |mu_A| < 1.  Extending mu compactly to the plane and solving the
Beltrami equation  dbar(Phi) = mu * d(Phi)  yields coordinates in which
the tensor becomes the scalar sqrt(det A) * identity.  The solution is
the Neumann series

    Phi = z + sum_j P[g_j],    g_0 = mu,    g_{j+1} = mu T[g_j],

where T is the two-dimensional Hilbert (Beurling) transform and P the
solid Cauchy transform (the dbar inverse) normalized so that P[g](0) = 0.
``extend_mu`` makes the radial coefficient mu = mu0 rho(|z|), so term j
is the single angular mode g_j = a_j(r) e^{i m theta}, m = -2j, and both
transforms of a mode with m <= 0 are closed forms in one radial integral
(expand the Cauchy kernel 1/(z - w) in powers of w/z and z/w):

    P[g] = 2 z^{m-1} F(r),    F(r) = int_0^r a(t) t^{1-m} dt,
    T[g] = e^{i(m-2) theta} c(r),    c = a + 2 (m-1) r^{m-2} F,

with a_{j+1} = mu0 rho c_j.  On |z| <= r - blend, where rho = 1, the
series sums to z + mu0 conj(z) (``affine_map``): F_0 = mu0 r^2 / 2 makes
c_0 = 0 there, and every later term vanishes.  On |z| >= r each F_j is
constant, so Phi is a Laurent series in 1/z.  Between them, on the ramp
annulus, F_j is the integral of the Legendre interpolant of its integrand
on Gauss-Legendre nodes.

Evaluating Phi (the grid samples, ``QCMap.__call__`` and
``QCMap.jacobian`` share one code path) computes the interpolants and
the scale (r / |z|)^{2j+2} once per distinct radius on the ramp annulus
(the 22,520 ramp points of the stock 512 grid have 2,271 radii) and
gathers them back to the points; the sums over j, in conj(z)/z on the
annulus and in r^2/z^2 outside, run by Horner's rule in one buffer.

All grid functions live on a uniform n x n lattice over [-s, s)^2 with
the support of mu inside |z| <= r (s >= 2r).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from .atomic import atomic_open, write_json
from .phantoms import check_spd

# Gauss-Legendre nodes of the radial integrals across the ramp annulus;
# on the stock grid half as many move the sampled Phi by < 2e-15
_NODES = 48


def beltrami_coefficient(A: np.ndarray) -> complex:
    """Complex dilatation mu of a symmetric positive-definite 2x2 matrix.

    Scale-invariant (mu(c*A) = mu(A) for c > 0) and |mu| < 1 exactly
    when A is SPD.  Rejects what ``phantoms.check_spd`` rejects.
    """
    A = check_spd(A)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return complex(A[1, 1] - A[0, 0] - 2j * A[0, 1]) / (A[0, 0] + A[1, 1] + 2.0 * np.sqrt(det))


@dataclass(frozen=True)
class MuGrid:
    """The radial Beltrami coefficient mu = mu0 rho(|z|) and the square
    grid it is sampled on.

    rho is 1 inside |z| <= r - blend, 0 for |z| >= r, and a C^1
    smoothstep in between.  The grid covers [-s, s)^2 with n points per
    axis and spacing 2s/n.
    """

    n: int
    s: float
    r: float
    blend: float
    mu0: complex

    @property
    def spacing(self) -> float:
        return 2.0 * self.s / self.n

    def axis(self) -> np.ndarray:
        return -self.s + self.spacing * np.arange(self.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def ramp(self, radius: np.ndarray) -> np.ndarray:
        """rho at the given radii."""
        t = np.clip((radius - (self.r - self.blend)) / self.blend, 0.0, 1.0)
        return 1.0 - (3.0 * t * t - 2.0 * t ** 3)

    @property
    def mu(self) -> np.ndarray:
        """(n, n) complex samples of mu on the grid, axis 0 = x, axis 1 = y."""
        return self.mu0 * self.ramp(np.hypot(*self.meshgrid()))


def extend_mu(A0: np.ndarray, r: float = 2.0, blend: float = 0.5,
              n: int = 512, s: float = 4.0) -> MuGrid:
    """The compact C^1 extension of mu_{A0} and its solver grid.

    The constant tensor is blended to the identity between radii
    r - blend and r, which scales mu by a smoothstep ramp; the domain of
    interest must sit inside |z| <= r - blend.
    """
    if blend <= 0 or blend >= r:
        raise ValueError(f"blend width must lie in (0, r); got blend={blend}, r={r}")
    if s < 2.0 * r:
        raise ValueError(f"grid half-width s={s} must be at least 2r={2 * r}")
    return MuGrid(n=int(n), s=float(s), r=float(r), blend=float(blend),
                  mu0=beltrami_coefficient(A0))


def affine_map(A0: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Phi(z) = z + mu0 conj(z), mu0 = ``beltrami_coefficient(A0)``: the
    flattening map of the constant tensor A0, from (P, 2) points to
    (P, 2) points.

    It solves dbar Phi = mu d Phi exactly on |z| <= r - blend, where
    ``extend_mu`` holds mu at mu0 (its defaults r=2, blend=0.5 make that
    the disk |z| <= 1.5 around the unit-disk domain).  In the Neumann series
    Phi = z + P[mu] + P[mu T(mu)] + ..., P[mu] = mu0 conj(z) on the disk
    for the radial mu = mu0 rho(|z|), so T[mu] = d P[mu] = 0 there.  Each
    later term, mu T(mu T(... mu)) with k transforms, vanishes on the disk
    and carries only the angular mode e^{-2ik theta}, so its Cauchy
    transform vanishes there too (Astala, Iwaniec & Martin, *Elliptic
    PDEs and Quasiconformal Mappings in the Plane*, 2009).  The constant
    Jacobian J = I + [[Re mu0, Im mu0], [Im mu0, -Re mu0]] gives
    J A0 J^T / det J = sqrt(det A0) I, and A0 = c I gives mu0 = 0: the
    identity, exactly.
    """
    mu0 = beltrami_coefficient(A0)

    def phi(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        z = pts[:, 0] + 1j * pts[:, 1]
        w = z + mu0 * np.conj(z)
        return np.stack([w.real, w.imag], axis=1)

    return phi


# ---------------------------------------------------------------------------
# Beltrami equation solve


class BeltramiConvergenceError(RuntimeError):
    """The series did not reach the requested tolerance within its budget,
    or a term stopped being finite before it did (``reason`` says so)."""

    def __init__(self, iterations: int, last_increment: float,
                 reason: str = ""):
        super().__init__(
            reason or f"no convergence after {iterations} iterations; "
            f"last sup-norm increment {last_increment:.3e}")
        self.iterations = iterations
        self.last_increment = last_increment


@dataclass
class QCMap:
    """The flattening map Phi of a radial coefficient and its solve record.

    Term j of the series adds 2 z^{-2j-1} F_j(|z|) to Phi.  Column j of
    ``modes`` holds the Legendre coefficients of Q_j = F_j / r^{2j+2} on
    the ramp annulus, in u = (2|z| - 2r + blend) / blend; Q_j is constant
    outside |z| = r.  Calling the map evaluates the series at any finite
    point; ``phi`` holds its samples on the grid of ``mu``.
    """

    phi: np.ndarray            # (n, n) complex samples of Phi
    mu: MuGrid
    residual: float            # sup |dbar Phi - mu d Phi| on inner half-grid
    iterations: int            # series terms counted by the increments
    increments: np.ndarray     # sup |T[g_j]| for j = 1 .. iterations
    modes: np.ndarray          # (_NODES + 1, iterations + 2) complex
    config_sha256: str = ""

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Phi at (P, 2) finite points, as (P, 2) points."""
        w = _phi(self.mu, self.modes, _complex_points(points))
        return np.stack([w.real, w.imag], axis=1)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """(P, 2, 2) Jacobian of Phi = (Re f, Im f) at (P, 2) finite
        points, from d Phi = 1 + h and dbar Phi = mu (1 + h) with
        h = sum_j T[g_j] over the terms the increments measured."""
        z = _complex_points(points)
        d = 1.0 + _beurling_sum(self.mu, self.modes[:, :-1], z)
        dbar = self.mu.mu0 * self.mu.ramp(np.abs(z)) * d
        fx, fy = d + dbar, 1j * (d - dbar)
        J = np.empty((len(z), 2, 2))
        J[:, 0, 0] = fx.real
        J[:, 0, 1] = fy.real
        J[:, 1, 0] = fx.imag
        J[:, 1, 1] = fy.imag
        return J


def _complex_points(points: np.ndarray) -> np.ndarray:
    """(P, 2) points as P complex numbers, rejected unless finite."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {tuple(pts[~finite][0])} is not finite")
    return pts[:, 0] + 1j * pts[:, 1]


def _annulus_f(mu: MuGrid, modes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(J, P) array of f_j = F_j / x^{2j+2} = (r / x)^{2j+2} Q_j at radii
    x on the ramp annulus, evaluated once per distinct radius."""
    if not len(x):   # legvander loops over the degrees even for no points
        return np.zeros((modes.shape[1], 0), dtype=complex)
    x, at = np.unique(x, return_inverse=True)
    u = (2.0 * (x - mu.r) + mu.blend) / mu.blend
    V = np.ascontiguousarray(legendre.legvander(u, len(modes) - 1))
    Q = (V @ np.ascontiguousarray(modes).view(float)).view(complex).T
    return (Q * (mu.r / x) ** (2 * np.arange(len(Q))[:, None] + 2))[:, at]


def _horner(w: np.ndarray, coefs) -> np.ndarray:
    """sum_j coefs[j] w^j at the points w, by Horner's rule in one buffer;
    each coefficient is a scalar or an array shaped like w."""
    p = np.full_like(w, coefs[-1])
    for c in coefs[-2::-1]:
        p *= w
        p += c
    return p


def _regions(mu: MuGrid, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the points on the ramp annulus and outside |z| = r."""
    x = np.abs(z)
    return (x >= mu.r - mu.blend) & (x <= mu.r), x > mu.r


def _phi(mu: MuGrid, modes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Phi = z + sum_j 2 z^{-2j-1} F_j(|z|) at complex points z: the affine
    map inside r - blend, 2 conj(z) sum_j f_j (conj(z)/z)^j on the annulus
    and a series in r^2/z^2 outside."""
    ring, far = _regions(mu, z)
    out = z + mu.mu0 * np.conj(z)
    zr = z[ring]
    out[ring] = zr + 2.0 * np.conj(zr) * _horner(
        np.conj(zr) / zr, _annulus_f(mu, modes, np.abs(zr)))
    zf = z[far]
    out[far] = zf + 2.0 * mu.r ** 2 / zf * _horner(
        mu.r ** 2 / zf ** 2, modes.sum(axis=0))
    return out


def _beurling_sum(mu: MuGrid, modes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """h = sum_j T[g_j] = sum_j c_j(|z|) (conj(z)/z)^{j+1} at complex points
    z: zero inside r - blend, and c_j = -2 (2j+1) f_j outside r, where
    mu = 0."""
    ring, far = _regions(mu, z)
    h = np.zeros_like(z)
    zr = z[ring]
    f = _annulus_f(mu, modes, np.abs(zr))
    mu_r = mu.mu0 * mu.ramp(np.abs(zr))
    c, a = np.empty_like(f), mu_r
    for j in range(len(f)):
        c[j] = a - (4 * j + 2) * f[j]
        a = mu_r * c[j]
    u = np.conj(zr) / zr
    h[ring] = u * _horner(u, c)
    w = mu.r ** 2 / z[far] ** 2
    h[far] = w * _horner(
        w, -(4 * np.arange(modes.shape[1]) + 2) * modes.sum(axis=0))
    return h


def _annulus_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes u on [-1, 1] and the (nodes + 1, nodes) matrix
    from values at them to the Legendre coefficients of the integral from
    -1 of their interpolant."""
    u, w = legendre.leggauss(nodes)
    to_coef = (legendre.legvander(u, nodes - 1).T * w
               * (np.arange(nodes) + 0.5)[:, None])
    return u, legendre.legint(to_coef, lbnd=-1, axis=0)


def _radial_modes(mu: MuGrid, tol: float, max_iter: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``QCMap.modes`` and the increments sup |c_j| of the series."""
    r0, R = mu.r - mu.blend, mu.r
    u, integrate = _annulus_rule(_NODES)
    x = r0 + 0.5 * mu.blend * (u + 1.0)
    at_nodes = legendre.legvander(u, _NODES)
    mu_x = mu.mu0 * mu.ramp(x)

    def mode(a, j):
        # Q_j = int_0^x a_j(t) (t / R)^{2j+1} dt / R, where (t / R) <= 1
        q = (0.5 * mu.blend / R) * (integrate @ (a * (x / R) ** (2 * j + 1)))
        if j == 0:
            q[0] += 0.5 * mu.mu0 * (r0 / R) ** 2
        return q

    a, modes, increments = mu_x, [], []
    # (R / x)^{2j+2} <= (r / (r - blend))^{2j+2} overflows for large j; the
    # term it spoils is reported below instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(max_iter + 1):
            modes.append(mode(a, j))
            c = a - ((4 * j + 2) * (R / x) ** (2 * j + 2)
                     * (at_nodes @ modes[-1]))
            a = mu_x * c
            if not j:
                continue
            # |T[g_j]| = |c_j| on the nodes and at |z| = r, where a_j = 0;
            # a non-finite modes[-1] makes c non-finite too
            increments.append(max(float(np.abs(c).max()),
                                  (4 * j + 2) * abs(modes[-1].sum())))
            if not np.isfinite(increments[-1]):
                raise BeltramiConvergenceError(
                    j, increments[-1],
                    f"series term {j} is not finite: its radial powers "
                    f"overflow at r/(r - blend) = {R / r0:.6g}")
            if increments[-1] <= tol:
                modes.append(mode(a, j + 1))
                return np.stack(modes, axis=1), np.array(increments)
    raise BeltramiConvergenceError(max_iter, increments[-1])


def _beltrami_residual(phi: np.ndarray, mu: MuGrid) -> float:
    """sup |dbar Phi - mu d Phi| over the inner half-grid, with derivatives
    by centred differences."""
    q = mu.n // 4
    inner = slice(q, -q)
    fx = (phi[q + 1:-q + 1, inner] - phi[q - 1:-q - 1, inner]) / (2 * mu.spacing)
    fy = (phi[inner, q + 1:-q + 1] - phi[inner, q - 1:-q - 1]) / (2 * mu.spacing)
    x = mu.axis()[inner]
    mu_in = mu.mu0 * mu.ramp(np.hypot(x[:, None], x[None, :]))
    return float(np.abs(0.5 * (fx + 1j * fy) - mu_in * 0.5 * (fx - 1j * fy)).max())


def solve_beltrami(mu: MuGrid, tol: float = 1e-10,
                   max_iter: int = 200) -> QCMap:
    """Sum the series for dbar Phi = mu d Phi mode by mode.

    Parameters
    ----------
    mu : MuGrid
        Radial coefficient with |mu0| < 1.
    tol : float
        Termination threshold on the increment sup |T[g_j]| = sup |c_j|
        over the ramp annulus r - blend <= |z| <= r, where the Beurling
        sum h is read as mu h.
    max_iter : int
        Term budget, at least 1; exceeding it raises
        BeltramiConvergenceError carrying the last increment.

    Term j needs F_j on the annulus only: inside it F_0 = mu0 r^2 / 2 and
    F_j = 0 for j >= 1.  Its integrand carries the scaled power
    (t / r)^{2j+1} <= 1, so no integral overflows; c_j carries
    (r / |z|)^{2j+2} <= (r / (r - blend))^{2j+2}, which overflows at
    j = 117 when r / (r - blend) = 20, and the first term it makes
    non-finite raises BeltramiConvergenceError naming that term and the
    ratio, without a RuntimeWarning.  As Phi = z + P[mu (1 + h)],
    the series keeps the term after the first increment <= tol.  A zero mu
    gives Phi = z and the single increment 0.  ``phi`` samples Phi on the
    grid of ``mu``, and the residual is ``_beltrami_residual`` of them.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if abs(mu.mu0) >= 1.0:
        raise ValueError(f"|mu0| = {abs(mu.mu0):g} >= 1: not quasi-conformal")
    modes, increments = _radial_modes(mu, tol, max_iter)
    X, Y = mu.meshgrid()
    phi = _phi(mu, modes, X + 1j * Y)
    return QCMap(phi=phi, mu=mu, residual=_beltrami_residual(phi, mu),
                 iterations=len(increments), increments=increments,
                 modes=modes)


# ---------------------------------------------------------------------------
# pushforward


def pushforward_tensor(A, qcmap: QCMap, points: np.ndarray) -> np.ndarray:
    """Tensor J A J^T / det J at the image of each point, J = grad Phi.

    For the background tensor of the map itself the result approximates
    sqrt(det A0) times the identity.  Raises if det J <= 0 at any query
    point (orientation violation).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    J = qcmap.jacobian(pts)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if (det <= 0).any():
        bad = pts[det <= 0][0]
        raise ValueError(f"map Jacobian not orientation-preserving at {tuple(bad)}")
    Avals = A(pts) if callable(A) else np.broadcast_to(np.asarray(A, dtype=float),
                                                       (len(pts), 2, 2))
    return (J @ Avals) @ J.transpose(0, 2, 1) / det[:, None, None]


# ---------------------------------------------------------------------------
# serialization: binary grid + JSON sidecar

_MAGIC = b"ANISOEITQC1\x00"


def save_qcmap(qcmap: QCMap, path) -> None:
    """Write the 60-byte header (magic, then little-endian int64 n and
    float64 s, r, blend, Re mu0, Im mu0) and the n^2 row-major complex128
    samples of Phi, plus the JSON sidecar ``path.with_suffix(".json")``
    with the mu parameters, residual, iteration count and config hash."""
    sidecar = Path(path).with_suffix(".json")
    if sidecar == Path(path):
        raise ValueError(f"{path}: the map binary would be its own sidecar")
    with atomic_open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<qddd", qcmap.mu.n, qcmap.mu.s, qcmap.mu.r,
                            qcmap.mu.blend))
        f.write(struct.pack("<dd", qcmap.mu.mu0.real, qcmap.mu.mu0.imag))
        f.write(np.ascontiguousarray(qcmap.phi, dtype=np.complex128))
    write_json(sidecar, {
        "format": "anisoeit-qcmap",
        "n": qcmap.mu.n, "s": qcmap.mu.s, "r": qcmap.mu.r,
        "blend": qcmap.mu.blend,
        "mu0": [qcmap.mu.mu0.real, qcmap.mu.mu0.imag],
        "residual": qcmap.residual,
        "iterations": qcmap.iterations,
        "config_sha256": qcmap.config_sha256,
    })

