"""Linearized Fourier reconstruction of the conductivity multiplier.

Probes the measured boundary map with pairs of exponentially growing
harmonic traces

    phi1 = exp(i pi z.y + pi b.y),   phi2 = exp(i pi z.y - pi b.y),

with b = rot90(z) so z.b = 0 and |b| = |z|, forms the data-side bilinear
pairing B(phi1, phi2), and assembles

    Fhat(z) = -1 / (2 pi^2 |z|^2) * B(phi1, phi2)

on a truncated frequency lattice |z| <= R.  The inverse transform of
Fhat approximates the scalar conductivity on the flattened domain; for
anisotropic data the traces are composed with the quasi-conformal map
and the boundary map is rescaled by 1/sqrt(det A0) so the linearization
is around conductivity one.  Composing the flattened-domain field with
the forward map recovers the multiplier in the original coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .atomic import atomic_open
from .beltrami import QCMap, evaluate_map
from .forward import DNMatrix

BG_RING_RADIUS = 0.8    # |x| of the background calibration ring in Omega
BG_RING_SAMPLES = 64


def cgo_traces(zs, points) -> tuple[np.ndarray, np.ndarray]:
    """(N, P) traces phi1, phi2 at N points for P nonzero frequencies.

    The companion vector of each frequency is b = (-z2, z1): this choice
    satisfies z.b = 0 and |b| = |z| exactly and is odd in z, which makes
    the assembled spectrum Hermitian.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    if (np.hypot(zs[:, 0], zs[:, 1]) == 0.0).any():
        raise ValueError("frequency z must be nonzero")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    bs = np.stack([-zs[:, 1], zs[:, 0]], axis=1)
    expo_i = 1j * np.pi * (pts @ zs.T)
    expo_r = np.pi * (pts @ bs.T)
    return np.exp(expo_i + expo_r), np.exp(expo_i - expo_r)


def bilinear_form(dn: DNMatrix, phi1: np.ndarray, phi2: np.ndarray):
    """Data-side pairing approximating the boundary integral of
    phi1 * (boundary map applied to phi2), for one (L,) trace pair or P
    pairs of (L, P) traces sampled at the electrode centers.

    Each trace is projected onto the normalized trig pattern basis with
    midpoint arc-length weights, <phi, t_m>_w / <t_m, t_m>_w, and the
    coefficient vectors are contracted through the DN matrix.  On a
    homogeneous unit disk this gives pi * k for phi1 = phi2 = cos(k theta).
    """
    phi1, phi2 = np.asarray(phi1), np.asarray(phi2)
    if phi1.shape != phi2.shape or phi1.shape[:1] != (dn.L,) \
            or phi1.ndim > 2:
        raise ValueError(
            f"trace samples must have shape (L,) or (L, P) with L={dn.L}; "
            f"got {phi1.shape} and {phi2.shape}")
    t_hat = dn.patterns.normalized.T
    w = np.full(dn.L, 2.0 * np.pi * dn.layout.radius / dn.L)
    den = (t_hat * w * t_hat).sum(axis=1)
    c1 = ((t_hat * w) @ phi1.reshape(dn.L, -1)) / den[:, None]
    c2 = ((t_hat * w) @ phi2.reshape(dn.L, -1)) / den[:, None]
    B = np.einsum("kp,kj,jp->p", c1, dn.dn, c2)
    return B if phi1.ndim == 2 else complex(B[0])


def _lattice(R: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis of the m x m grid over [-R, R]^2 and its (m, m) mask
    0 < |z| <= R, indexed [z1, z2].

    The centre of ``np.linspace(-R, R, m)`` can land at +-2.2e-16 rather
    than 0; it is pinned to 0 so the z = 0 mode is always excluded.
    """
    axis = np.linspace(-R, R, m)
    axis[m // 2] = 0.0
    rho = np.hypot(axis[:, None], axis[None, :])
    return axis, (rho > 0) & (rho <= R + 1e-12)


def masked_lattice(R: float, m: int) -> tuple[np.ndarray, float]:
    """Points 0 < |z| <= R of the m x m grid over [-R, R]^2, in row-major
    order, and the grid spacing."""
    axis, mask = _lattice(R, m)
    i, j = np.nonzero(mask)
    return np.stack([axis[i], axis[j]], axis=1), float(axis[1] - axis[0])


@dataclass
class FhatGrid:
    """Samples of the linearized spectrum on a truncated frequency lattice."""

    R: float
    m: int                     # lattice points per axis over [-R, R]
    zs: np.ndarray             # (P, 2) lattice points with 0 < |z| <= R
    values: np.ndarray         # (P,) complex
    spacing: float
    det_background: float
    config_sha256: str = ""

    def hermitian_defect(self) -> float:
        """max |Fhat(-z) - conj(Fhat(z))| / max |Fhat|.

        The masked lattice is point-symmetric in row-major order, so the
        mirror -z of the k-th point is the k-th point from the end.
        """
        defect = np.abs(self.values[::-1] - np.conj(self.values)).max()
        return float(defect / max(np.abs(self.values).max(), 1e-300))


def fhat_grid(dn: DNMatrix, qcmap: Optional[QCMap], R: float, m: int = 33,
              det_background: float = 1.0) -> FhatGrid:
    """Assemble Fhat on the masked lattice 0 < |z| <= R.

    The traces are the flattened-domain exponentials composed with the
    quasi-conformal map (evaluated at the electrode centers on the
    original boundary); ``qcmap=None`` means the identity map (isotropic
    data).  The DN matrix is divided by sqrt(det_background) so the
    background conductivity after flattening is one.  The z = 0 mode is
    excluded; the missing mean is restored downstream by background
    calibration.  A non-finite sample, as left by traces that overflow at
    a large R, raises ``ValueError``.
    """
    if R <= 0:
        raise ValueError(f"truncation radius must be positive, got {R}")
    if m < 3 or m % 2 == 0:
        raise ValueError(f"lattice size must be odd and >= 3, got {m}")
    centers = dn.electrode_centers()
    y = evaluate_map(qcmap, centers) if qcmap is not None else centers

    zs, spacing = masked_lattice(R, m)
    scaled = replace(dn, dn=dn.dn / np.sqrt(det_background))
    rho = np.hypot(zs[:, 0], zs[:, 1])
    # traces that overflow leave non-finite samples, which the check
    # below reports in place of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        phi1, phi2 = cgo_traces(zs, y)
        values = -bilinear_form(scaled, phi1, phi2) \
            / (2.0 * np.pi ** 2 * rho ** 2)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"Fhat has {bad} non-finite samples of "
                         f"{len(values)} at R={R:g}")
    return FhatGrid(R=float(R), m=int(m), zs=zs, values=values,
                    spacing=spacing, det_background=float(det_background),
                    config_sha256=dn.config_sha256)


def inverse_fourier(fhat: FhatGrid, eval_points: np.ndarray
                    ) -> tuple[np.ndarray, float]:
    """Truncated inverse transform of the lattice samples.

    Returns the real part of  sum_z Fhat(z) exp(-2 pi i z.y) dz^2  at each
    point together with the relative imaginary residual that was discarded
    (small when the spectrum is Hermitian).

    The phase factors over the tensor lattice, exp(-2 pi i z1 y1) and
    exp(-2 pi i z2 y2), are each (m, P) for P points, and the sum is
    sum_j E1[j] * (F @ E2)[j] with F the m x m spectrum, zero off the
    mask; no (lattice x points) array is formed.
    """
    axis, mask = _lattice(fhat.R, fhat.m)
    if len(fhat.values) != np.count_nonzero(mask):
        raise ValueError(
            f"{len(fhat.values)} spectrum samples for the "
            f"{np.count_nonzero(mask)} lattice points of R={fhat.R}, "
            f"m={fhat.m}")
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    F = np.zeros((fhat.m, fhat.m), dtype=complex)
    F[mask] = fhat.values
    phase = -2j * np.pi * axis[:, None]
    E1 = np.exp(phase * pts[:, 0])
    E2 = np.exp(phase * pts[:, 1])
    vals = (E1 * (F @ E2)).sum(axis=0) * fhat.spacing ** 2
    scale = max(np.abs(vals.real).max(), 1e-300)
    return vals.real, float(np.abs(vals.imag).max() / scale)


def reconstruct_scalar(atilde: Callable[[np.ndarray], np.ndarray],
                       qcmap: Optional[QCMap],
                       eval_points: np.ndarray) -> np.ndarray:
    """Pull a flattened-domain scalar back to original coordinates:
    a(x) = atilde(Phi(x)) for each evaluation point."""
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    y = evaluate_map(qcmap, pts) if qcmap is not None else pts
    return np.asarray(atilde(y))


def assemble_tensor(a: np.ndarray, A0: np.ndarray) -> np.ndarray:
    """Scalar samples times the constant background: (N, 2, 2) tensors."""
    a = np.asarray(a, dtype=float)
    A0 = np.asarray(A0, dtype=float)
    return a[..., None, None] * A0


def save_fhat(fhat: FhatGrid, json_path, bin_path) -> None:
    """JSON metadata + binary complex spectrum samples (row-major over the
    masked lattice, in the order of ``zs``)."""
    with atomic_open(bin_path, "wb") as f:
        f.write(np.ascontiguousarray(fhat.values, dtype=np.complex128).tobytes())
    doc = {
        "format": "anisoeit-fhat",
        "version": 1,
        "R": fhat.R,
        "m": fhat.m,
        "spacing": fhat.spacing,
        "det_background": fhat.det_background,
        "pattern_normalization": "euclidean",
        "count": int(len(fhat.zs)),
        "values_file": Path(bin_path).name,
        "config_sha256": fhat.config_sha256,
    }
    with atomic_open(json_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _beside(json_path, name) -> Path:
    # The binary sits beside its sidecar, which records its bare name
    # (older sidecars hold a full path), so a moved outdir still loads.
    return Path(json_path).parent / Path(name).name


def load_fhat(json_path) -> FhatGrid:
    with open(json_path) as f:
        doc = json.load(f)
    if doc.get("format") != "anisoeit-fhat":
        raise ValueError(f"{json_path}: not a spectrum file")
    R, m = float(doc["R"]), int(doc["m"])
    zs, _ = masked_lattice(R, m)
    with open(_beside(json_path, doc["values_file"]), "rb") as f:
        values = np.frombuffer(f.read(), dtype=np.complex128).copy()
    if len(values) != len(zs) or len(values) != doc["count"]:
        raise ValueError(f"{json_path}: lattice size mismatch")
    return FhatGrid(R=R, m=m, zs=zs, values=values,
                    spacing=float(doc["spacing"]),
                    det_background=float(doc["det_background"]),
                    config_sha256=doc.get("config_sha256", ""))


# ---------------------------------------------------------------------------
# full pipeline


@dataclass
class ReconstructedField:
    """Scalar multiplier on a Cartesian grid over the original domain."""

    grid_axis: np.ndarray          # (g,) coordinates of both axes
    a: np.ndarray                  # (g, g), NaN outside the domain
    mask: np.ndarray               # (g, g) bool, True inside Omega
    cross_section_x: np.ndarray    # (nx,) x-axis sample positions
    cross_section: np.ndarray      # (nx,) reconstructed values on the x-axis
    background_offset: float       # additive mean calibration applied
    imag_residual: float           # worst relative imaginary residual seen
    R: float
    lattice: int
    A0: np.ndarray
    config_sha256: str = ""
    fhat: Optional[FhatGrid] = None   # spectrum the field was built from

    def tensor(self) -> np.ndarray:
        return assemble_tensor(self.a, self.A0)


def reconstruct_field(dn: DNMatrix, qcmap: Optional[QCMap], A0: np.ndarray,
                      R: float, lattice: int = 33, grid: int = 101,
                      config_sha256: str = "") -> ReconstructedField:
    """End-to-end reconstruction: Fhat, truncated inverse, background
    calibration, and pullback onto a grid over [-1, 1]^2 plus the x-axis
    cross-section.

    The additive background calibration pins the circle |x| = 0.8
    (mapped through Phi) to level one, restoring the mean lost with the
    excluded z = 0 lattice point.  The level estimate is the median of
    the ring samples: at large truncation radii the growing traces leave
    heavy-tailed directional artifacts that would bias the mean.
    """
    A0 = np.asarray(A0, dtype=float)
    det = float(np.linalg.det(A0))
    fh = fhat_grid(dn, qcmap, R=R, m=lattice, det_background=det)

    ring_t = np.linspace(0.0, 2.0 * np.pi, BG_RING_SAMPLES, endpoint=False)
    ring = BG_RING_RADIUS * np.stack([np.cos(ring_t), np.sin(ring_t)], axis=1)
    ring_vals = reconstruct_scalar(
        lambda y: inverse_fourier(fh, y)[0], qcmap, ring)
    offset = 1.0 - float(np.median(ring_vals))

    imag_worst = 0.0

    def atilde(y):
        nonlocal imag_worst
        vals, im = inverse_fourier(fh, y)
        imag_worst = max(imag_worst, im)
        return vals + offset

    axis = np.linspace(-1.0, 1.0, grid)
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([GX.ravel(), GY.ravel()], axis=1)
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0
    a_flat = np.full(len(pts), np.nan)
    a_flat[inside] = reconstruct_scalar(atilde, qcmap, pts[inside])
    a_grid = a_flat.reshape(grid, grid)

    xs = axis.copy()
    cross = reconstruct_scalar(
        atilde, qcmap, np.stack([xs, np.zeros(grid)], axis=1))

    return ReconstructedField(
        grid_axis=axis, a=a_grid, mask=inside.reshape(grid, grid),
        cross_section_x=xs, cross_section=cross,
        background_offset=offset, imag_residual=imag_worst,
        R=float(R), lattice=int(lattice), A0=A0,
        config_sha256=config_sha256, fhat=fh)


def save_field(fieldobj: ReconstructedField, json_path, bin_path) -> None:
    """JSON metadata + row-major float64 grid (NaN outside the domain)."""
    with atomic_open(bin_path, "wb") as f:
        f.write(np.ascontiguousarray(fieldobj.a, dtype=np.float64).tobytes())
    doc = {
        "format": "anisoeit-recon",
        "version": 1,
        "grid": len(fieldobj.grid_axis),
        "grid_axis_minmax": [float(fieldobj.grid_axis[0]), float(fieldobj.grid_axis[-1])],
        "R": fieldobj.R,
        "lattice": fieldobj.lattice,
        "A0": fieldobj.A0.tolist(),
        "background_offset": fieldobj.background_offset,
        "imag_residual": fieldobj.imag_residual,
        "cross_section_x": fieldobj.cross_section_x.tolist(),
        "cross_section": fieldobj.cross_section.tolist(),
        "grid_file": Path(bin_path).name,
        "config_sha256": fieldobj.config_sha256,
    }
    with atomic_open(json_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_field(json_path) -> ReconstructedField:
    with open(json_path) as f:
        doc = json.load(f)
    if doc.get("format") != "anisoeit-recon":
        raise ValueError(f"{json_path}: not a reconstruction file")
    g = int(doc["grid"])
    lo, hi = doc["grid_axis_minmax"]
    axis = np.linspace(lo, hi, g)
    with open(_beside(json_path, doc["grid_file"]), "rb") as f:
        a = np.frombuffer(f.read(), dtype=np.float64).reshape(g, g).copy()
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    mask = np.hypot(GX, GY) <= 1.0
    return ReconstructedField(
        grid_axis=axis, a=a, mask=mask,
        cross_section_x=np.array(doc["cross_section_x"]),
        cross_section=np.array(doc["cross_section"]),
        background_offset=float(doc["background_offset"]),
        imag_residual=float(doc["imag_residual"]),
        R=float(doc["R"]), lattice=int(doc["lattice"]),
        A0=np.array(doc["A0"]),
        config_sha256=doc.get("config_sha256", ""))
