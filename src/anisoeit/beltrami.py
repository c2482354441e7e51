"""Quasi-conformal flattening of a constant anisotropy tensor.

The complex dilatation of an SPD tensor A is

    mu_A = (A22 - A11 - 2i A12) / (A11 + A22 + 2 sqrt(det A)),

with |mu_A| < 1.  Extending mu compactly to the plane and solving the
Beltrami equation  dbar(Phi) = mu * d(Phi)  yields coordinates in which
the tensor becomes the scalar sqrt(det A) * identity.  The solve is the
classical fixed-point iteration

    h^{n+1} = T[mu h^n] + T[mu],      Phi(z) = P[mu (h* + 1)](z) + z,

where T is the two-dimensional Hilbert (Beurling) transform, realized as
the Fourier multiplier conj(zeta)/zeta of the zero-padded grid, and P is
the solid Cauchy transform (the dbar inverse), realized by convolution
with the 1/(pi z) kernel and normalized so that P[g](0) = 0.  The
iterate is only read as mu h, so the iteration runs on the support box
W of mu alone.  From W to W the padded multiplier is a convolution whose
kernel is read only at displacements shorter than W, and P maps W to the
whole grid; each is applied exactly as a circular convolution with its
kernel sampled at the displacements it reads, on the smallest 5-smooth
FFT grid without wrap-around (512 for T and 768 for P on the stock
512-point grid, where W is 255 points wide, against the 1024 of the
padded grid).  The kernel transforms are cached per grid and box.

All grid functions live on a uniform n x n lattice over [-s, s)^2 with
the support of mu inside |z| <= r (s >= 2r).

On |z| <= r - blend the solution is exactly z + mu0 conj(z)
(``affine_map``); the reconstruction flattens with it, and the tests
check the solve against it.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .atomic import atomic_open, write_json
from .phantoms import check_spd


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
    """Compactly supported Beltrami coefficient sampled on a square grid.

    The grid covers [-s, s)^2 with n points per axis and spacing 2s/n;
    mu equals the constant ``mu0`` inside |z| <= r - blend, is zero for
    |z| >= r, and is ramped by a C^1 smoothstep in between.
    """

    mu: np.ndarray          # (n, n) complex, axis 0 = x, axis 1 = y
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


def extend_mu(A0: np.ndarray, r: float = 2.0, blend: float = 0.5,
              n: int = 512, s: float = 4.0) -> MuGrid:
    """Sample the compact C^1 extension of mu_{A0} on the solver grid.

    The constant tensor is blended to the identity between radii
    r - blend and r, which scales mu by a smoothstep ramp; the domain of
    interest must sit inside |z| <= r - blend.
    """
    if blend <= 0 or blend >= r:
        raise ValueError(f"blend width must lie in (0, r); got blend={blend}, r={r}")
    if s < 2.0 * r:
        raise ValueError(f"grid half-width s={s} must be at least 2r={2 * r}")
    x = -s + (2.0 * s / n) * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    t = np.clip((np.hypot(X, Y) - (r - blend)) / blend, 0.0, 1.0)
    ramp = 1.0 - (3.0 * t * t - 2.0 * t ** 3)
    mu0 = beltrami_coefficient(A0)
    return MuGrid(mu=mu0 * ramp, n=int(n), s=float(s), r=float(r),
                  blend=float(blend), mu0=mu0)


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
# singular integral transforms


def hilbert_transform(g: np.ndarray, s: float, pad: int = 1,
                      n: int | None = None) -> np.ndarray:
    """Two-dimensional Hilbert (Beurling) transform on a block of the
    periodic grid.

    ``g`` is a w x w block of an n x n grid over [-s, s)^2, zero outside
    the block (``n`` defaults to w: the block is the whole grid); the
    result is the transform on the same block.  The transform is the
    Fourier multiplier conj(zeta)/zeta on the discrete frequency lattice
    of the grid embedded in a pad*n periodic grid, with the zero frequency
    annihilated.  This is the unique unimodular multiplier satisfying
    T(dbar f) = d f, so on the whole grid the transform preserves the
    discrete L2 norm of zero-mean data.  ``pad > 1`` suppresses the
    periodization error for compactly supported input.

    Block to block, the multiplier is a circular convolution whose
    pad*n-periodic kernel is read only at displacements |d| < w, so it
    is applied exactly as a convolution on the smallest 5-smooth grid of
    at least 2w - 1 points (``_hilbert_multiplier``, cached per grid and
    block size).
    """
    g = _square_block(g)
    w = g.shape[0]
    n = w if n is None else n
    if pad < 1:
        raise ValueError(f"pad must be at least 1, got {pad}")
    if n < w:
        raise ValueError(f"a {w} x {w} block does not fit an n={n} grid")
    return _block_convolve(g, _hilbert_multiplier(n, s, pad, w), w)


def _square_block(g: np.ndarray) -> np.ndarray:
    """g as an array, rejected unless it is square and free of NaNs."""
    g = np.asarray(g)
    if np.isnan(g).any():
        raise ValueError("input contains NaNs")
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"expected a square grid, got shape {g.shape}")
    return g


def _fft_size(k: int) -> int:
    """Smallest 5-smooth integer >= k: a fast FFT length."""
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


def _block_multiplier(kernel, w: int, k: int) -> np.ndarray:
    """Read-only 2-D FFT of a convolution kernel on the smallest 5-smooth
    grid of m >= k + w - 1 points, for ``_block_convolve`` of a w x w
    block to a k x k output.

    ``kernel(d)`` gives the kernel at the displacements (d[i], d[j]) in
    grid steps.  Entry q of each axis holds displacement q for q < k and
    q - m otherwise, which covers the displacements -(w-1) .. k-1 that
    the convolution reads without wrap-around.
    """
    m = _fft_size(k + w - 1)
    q = np.arange(m)
    Khat = np.fft.fft2(kernel(np.where(q < k, q, q - m)))
    Khat.flags.writeable = False
    return Khat


def _block_convolve(g: np.ndarray, Khat: np.ndarray, k: int) -> np.ndarray:
    """[0, k)^2 block of the circular convolution of the w x w block g,
    zero-extended to the grid of ``Khat``, with the kernel whose FFT is
    ``Khat``.  The forward pass runs its first 1-D transforms on g's w
    columns only, and the inverse pass its last on the k kept columns."""
    m = Khat.shape[0]
    F = np.fft.fft(np.fft.fft(g, n=m, axis=0), n=m, axis=1)
    F *= Khat
    return np.fft.ifft(np.fft.ifft(F, axis=1, out=F)[:, :k], axis=0)[:k]


@functools.lru_cache(maxsize=4)
def _hilbert_multiplier(n: int, s: float, pad: int, w: int) -> np.ndarray:
    """``_block_multiplier`` of T on w x w blocks of the n x n grid over
    [-s, s)^2.  The kernel is the inverse FFT of conj(zeta)/zeta (zero
    at the zero frequency) on the pad*n grid, read periodically; its
    second 1-D pass runs only on the columns read."""
    m = pad * n
    freq = np.fft.fftfreq(m, d=2.0 * s / n)
    zeta = freq[:, None] + 1j * freq[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = np.conj(zeta) / zeta
    symbol[0, 0] = 0.0

    def kernel(d):
        d = d % m
        return np.fft.ifft(np.fft.ifft(symbol, axis=1)[:, d], axis=0)[d]

    return _block_multiplier(kernel, w, w)


def _cauchy_kernel(idx: np.ndarray, d: float, refine: int = 4) -> np.ndarray:
    """1/(pi z) kernel at the displacements z = (idx[i] + 1j idx[j]) * d.

    Cells within ``refine`` spacings of the singularity carry exact cell
    averages (Gauss-Legendre); the singular cell itself integrates to
    zero by symmetry.
    """
    DX, DY = np.meshgrid(idx * d, idx * d, indexing="ij")
    Z = DX + 1j * DY
    with np.errstate(divide="ignore", invalid="ignore"):
        K = 1.0 / (np.pi * Z)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    nodes = nodes * d / 2.0
    weights = weights * d / 2.0
    GX, GY = np.meshgrid(nodes, nodes, indexing="ij")
    GW = np.outer(weights, weights)
    near = {int(v): p for p, v in enumerate(idx) if abs(v) <= refine}
    for i, p in near.items():
        for j, q in near.items():
            if i == 0 and j == 0:
                K[p, q] = 0.0
                continue
            cell = (i * d + GX) + 1j * (j * d + GY)
            K[p, q] = np.sum(GW / (np.pi * cell)) / (d * d)
    return K


@functools.lru_cache(maxsize=4)
def _cauchy_multiplier(n: int, s: float, w: int, lo: int) -> np.ndarray:
    """``_block_multiplier`` of the Cauchy kernel from the w x w block at
    [lo, lo + w)^2 of the n x n grid over [-s, s)^2 to the whole grid."""
    return _block_multiplier(lambda d: _cauchy_kernel(d - lo, 2.0 * s / n),
                             w, n)


def cauchy_transform(g: np.ndarray, s: float, n: int | None = None,
                     lo: int = 0) -> np.ndarray:
    """Solid Cauchy transform P with dbar P[g] = g and P[g](0) = 0.

    ``g`` is the w x w block at rows and columns [lo, lo + w) of an
    n x n grid over [-s, s)^2, zero outside the block (``n`` defaults to
    w: the block is the whole grid); the result is P[g] on the whole
    grid.  It is the linear convolution of g with the 1/(pi z) kernel,
    computed as a circular convolution on the smallest 5-smooth grid of
    at least n + w - 1 points, which has no wrap-around onto the grid,
    followed by subtraction of the value at the origin.  The kernel
    transform is built once per grid and block (``_cauchy_multiplier``).
    """
    g = _square_block(g)
    w = g.shape[0]
    n = w if n is None else n
    if lo < 0 or lo + w > n:
        raise ValueError(f"a {w} x {w} block at {lo} does not fit an "
                         f"n={n} grid")
    d = 2.0 * s / n
    conv = _block_convolve(g, _cauchy_multiplier(n, s, w, lo), n) * (d * d)
    return conv - conv[n // 2, n // 2]


# ---------------------------------------------------------------------------
# Beltrami equation solve


class BeltramiConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach the requested tolerance."""

    def __init__(self, iterations: int, last_increment: float):
        super().__init__(
            f"no convergence after {iterations} iterations; "
            f"last sup-norm increment {last_increment:.3e}")
        self.iterations = iterations
        self.last_increment = last_increment


@dataclass
class QCMap:
    """Grid-sampled quasi-conformal map Phi and its Beltrami solve record."""

    phi: np.ndarray            # (n, n) complex samples of Phi
    mu: MuGrid
    residual: float            # sup |dbar Phi - mu d Phi| on inner half-grid
    iterations: int
    increments: np.ndarray     # sup-norm increment per iteration
    config_sha256: str = ""

    @property
    def window(self) -> float:
        """Half-width of the trusted evaluation window [-s/2, s/2]^2."""
        return self.mu.s / 2.0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Phi at (P, 2) points inside the window [-s/2, s/2]^2, as (P, 2)
        points, by bilinear interpolation of the samples."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = self.window
        outside = ~(np.abs(pts) <= w + 1e-12).all(axis=1)
        if outside.any():
            bad = pts[outside][0]
            raise ValueError(f"point {tuple(bad)} outside evaluation window "
                             f"|x|<= {w:g}")
        vals = _bilinear(self.mu.axis(), self.phi, pts)
        return np.stack([vals.real, vals.imag], axis=1)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """(N, 2, 2) Jacobian of Phi = (Re f, Im f) at interior points,
        from centered finite differences interpolated off the grid."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ax = self.mu.axis()
        fx, fy = (_bilinear(ax, g, pts)
                  for g in _centred_gradient(self.phi, self.mu.spacing))
        J = np.empty((len(pts), 2, 2))
        J[:, 0, 0] = fx.real
        J[:, 0, 1] = fy.real
        J[:, 1, 0] = fx.imag
        J[:, 1, 1] = fy.imag
        return J


def _bilinear(ax: np.ndarray, vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of ``vals`` on the grid ``ax`` x ``ax`` at the
    (P, 2) points, extrapolated linearly past the grid edges.

    The cell search, the normalized offsets and the left-to-right sum of
    the four corner terms repeat the arithmetic of scipy's linear
    regular-grid interpolator, so the result is the same bit for bit.
    """
    i, j = (np.clip(np.searchsorted(ax, c, side="right") - 1, 0, len(ax) - 2)
            for c in pts.T)
    t = (pts[:, 0] - ax[i]) / (ax[i + 1] - ax[i])
    u = (pts[:, 1] - ax[j]) / (ax[j + 1] - ax[j])
    return (0.0 + vals[i, j] * (1 - t) * (1 - u) + vals[i, j + 1] * (1 - t) * u
            + vals[i + 1, j] * t * (1 - u) + vals[i + 1, j + 1] * t * u)


def _centred_gradient(phi: np.ndarray, d: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of grid samples with spacing d by centred differences,
    wrapping periodically at the grid edges."""
    fx = (np.roll(phi, -1, axis=0) - np.roll(phi, 1, axis=0)) / (2 * d)
    fy = (np.roll(phi, -1, axis=1) - np.roll(phi, 1, axis=1)) / (2 * d)
    return fx, fy


def _beltrami_residual(phi: np.ndarray, mu: MuGrid) -> float:
    """sup |dbar Phi - mu d Phi| over the inner half-grid."""
    fx, fy = _centred_gradient(phi, mu.spacing)
    dbar = 0.5 * (fx + 1j * fy)
    dphi = 0.5 * (fx - 1j * fy)
    q = mu.n // 4
    return float(np.abs(dbar - mu.mu * dphi)[q:-q, q:-q].max())


def _support_box(a: np.ndarray) -> tuple[int, int] | None:
    """(lo, hi) of the smallest box [lo, hi)^2 holding the non-zeros of
    the square array a, or None when a is zero."""
    rows = np.flatnonzero(a.any(axis=1))
    cols = np.flatnonzero(a.any(axis=0))
    if not rows.size:
        return None
    return int(min(rows[0], cols[0])), int(max(rows[-1], cols[-1])) + 1


def solve_beltrami(mu: MuGrid, tol: float = 1e-10, max_iter: int = 200,
                   pad: int = 2) -> QCMap:
    """Solve dbar Phi = mu d Phi by the contraction iteration.

    Parameters
    ----------
    mu : MuGrid
        Compactly supported coefficient with sup |mu| < 1.
    tol : float
        Termination threshold on the sup-norm iterate increment, measured
        on the support box of mu: the iterate h is only read as mu * h.
    max_iter : int
        Iteration budget, at least 1; exceeding it raises
        BeltramiConvergenceError carrying the last increment.
    pad : int
        Zero-padding factor for the Hilbert transform inside the
        iteration; the input is compactly supported, so padding only
        reduces periodization error.

    The iteration runs on the smallest box [lo, hi)^2 holding mu != 0,
    and the Cauchy step maps that box to the whole grid.  A zero mu has
    an empty box: Phi = z with one zero increment and no transform.  The
    Beltrami residual stored on the result is the sup norm of
    dbar Phi - mu d Phi over the inner half-grid, with derivatives by
    centered finite differences.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    sup_mu = float(np.abs(mu.mu).max())
    if sup_mu >= 1.0:
        raise ValueError(f"sup |mu| = {sup_mu:g} >= 1: not quasi-conformal")
    s, n = mu.s, mu.n
    X, Y = mu.meshgrid()
    phi = X + 1j * Y
    box = _support_box(mu.mu)
    if box is None:
        increments = [0.0]
    else:
        lo, hi = box
        m = mu.mu[lo:hi, lo:hi]
        T = lambda g: hilbert_transform(g, s, pad=pad, n=n)
        h = tmu = T(m)
        increments = []
        for _ in range(max_iter):
            h_next = T(m * h) + tmu
            inc = float(np.abs(h_next - h).max())
            increments.append(inc)
            h = h_next
            if inc <= tol:
                break
        else:
            raise BeltramiConvergenceError(len(increments), increments[-1])
        phi += cauchy_transform(m * (h + 1.0), s, n=n, lo=lo)
    return QCMap(phi=phi, mu=mu, residual=_beltrami_residual(phi, mu),
                 iterations=len(increments), increments=np.array(increments))


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
        f.write(np.ascontiguousarray(qcmap.phi, dtype=np.complex128).tobytes())
    write_json(sidecar, {
        "format": "anisoeit-qcmap",
        "n": qcmap.mu.n, "s": qcmap.mu.s, "r": qcmap.mu.r,
        "blend": qcmap.mu.blend,
        "mu0": [qcmap.mu.mu0.real, qcmap.mu.mu0.imag],
        "residual": qcmap.residual,
        "iterations": qcmap.iterations,
        "config_sha256": qcmap.config_sha256,
    })

