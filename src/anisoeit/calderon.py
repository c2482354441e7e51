"""Linearized Fourier reconstruction of the conductivity multiplier.

Probes the measured boundary map with pairs of exponentially growing
harmonic traces

    phi1 = exp(i pi z.y + pi b.y),   phi2 = exp(i pi z.y - pi b.y),

with b = rot90(z) so z.b = 0 and |b| = |z|, forms the data-side bilinear
pairing B(phi1, phi2), and assembles

    Fhat(z) = -1 / (2 pi^2 |z|^2) * B(phi1, phi2)

on a truncated frequency lattice |z| <= R.  The lattice is a masked
m x m tensor grid whose axis is k * spacing, k = -m//2 .. m//2, and both
stages work per lattice axis: the exponents are linear in z, so a trace
is the product of the traces of (z1, 0) and (0, z2), and the inverse
phase exp(-2 pi i z.y) is exp(-2 pi i z1 y1) exp(-2 pi i z2 y2), each
factor a power of one exponential per point.  The inverse transform of
Fhat approximates the scalar conductivity on the flattened domain; for
anisotropic data the traces are composed with the flattening map Phi
and the boundary map is rescaled by 1/sqrt(det A0) so the linearization
is around conductivity one.  Composing the flattened-domain field with
Phi recovers the multiplier in the original coordinates.  Phi is any
function from (P, 2) points to (P, 2) points: the exact
``beltrami.affine_map(A0)``, a solved ``beltrami.QCMap``, or
``affine_map(np.eye(2))`` for isotropic data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .atomic import atomic_open, write_json
from .forward import DNMatrix, _float_array

# a flattening map: points (P, 2) -> their images (P, 2)
Flattening = Callable[[np.ndarray], np.ndarray]

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
    phase = np.exp(1j * np.pi * (pts @ zs.T))
    growth = np.exp(np.pi * (pts @ bs.T))
    return phase * growth, phase / growth


def bilinear_form(dn: DNMatrix, phi1: np.ndarray, phi2: np.ndarray):
    """Data-side pairing approximating the boundary integral of
    phi1 * (boundary map applied to phi2), for one (L,) trace pair or P
    pairs of (L, P) traces sampled at the electrode centers.

    Each trace is projected onto the normalized trig pattern basis with
    midpoint arc-length weights, <phi, t_m>_w / <t_m, t_m>_w, and the
    coefficient vectors c1, c2 are contracted through the DN matrix D.  On
    a homogeneous unit disk this gives pi * k for phi1 = phi2 = cos(k theta).

    D is symmetric, so c1^T D c2 is evaluated in the symmetric form
    (c1^T D c2 + c2^T D c1) / 2: two matrix products and two column sums.
    The projection and D are real, so each of the four products runs as a
    real matrix product on the float64 view of the complex operand.
    The growing traces make the sum cancel heavily, and the average of the
    two one-sided products rounds less than either alone.  The form is
    exactly symmetric in its arguments, so the traces of -z, which are
    conj(phi2) and conj(phi1), pair to exactly conj(B).
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
    project = (t_hat * w) / den[:, None]
    c1 = _real_times_complex(project, phi1.reshape(dn.L, -1))
    c2 = _real_times_complex(project, phi2.reshape(dn.L, -1))
    B = 0.5 * ((c1 * _real_times_complex(dn.dn, c2)).sum(axis=0)
               + (c2 * _real_times_complex(dn.dn, c1)).sum(axis=0))
    return B if phi1.ndim == 2 else complex(B[0])


def _real_times_complex(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """A @ Z for a real matrix A and a complex one Z, as one real matrix
    product on the float64 view of Z's interleaved real and imaginary
    parts (numpy would promote A and run a complex product)."""
    Z = np.ascontiguousarray(Z, dtype=complex)
    return (A @ Z.view(np.float64)).view(complex)


def _lattice(R: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis of the m x m grid over [-R, R]^2 and its (m, m) mask
    0 < |z| <= R, indexed [z1, z2].

    The axis is k * spacing for k = -m//2 .. m//2 with spacing
    R / (m//2) = 2R / (m - 1): its centre is exactly 0 and it is exactly
    antisymmetric, so the mirror -z of a lattice point is a lattice point.
    """
    axis = (np.arange(m) - m // 2) * (R / (m // 2))
    rho = np.hypot(axis[:, None], axis[None, :])
    return axis, (rho > 0) & (rho <= R + 1e-12)


def masked_lattice(R: float, m: int) -> tuple[np.ndarray, float]:
    """Points 0 < |z| <= R of the m x m grid over [-R, R]^2, in row-major
    order, and the grid spacing."""
    axis, mask = _lattice(R, m)
    i, j = np.nonzero(mask)
    return np.stack([axis[i], axis[j]], axis=1), float(axis[m // 2 + 1])


def lattice_traces(R: float, m: int, points) -> tuple[np.ndarray, np.ndarray]:
    """The (N, P) traces ``cgo_traces(zs, points)`` at the P points ``zs``
    of ``masked_lattice(R, m)``, built per lattice axis.

    Both exponents are linear in z, so the trace of z = (z1, z2) is the
    product of the traces of (z1, 0) and (0, z2).  ``cgo_traces`` is
    evaluated on the 2(m - 1) nonzero axis points only; with the column
    of ones for z = 0 they make one (N, m) table per axis, and each
    lattice trace is the product of a column of each.
    """
    axis, mask = _lattice(R, m)
    i, j = np.nonzero(mask)
    c = m // 2
    off = np.delete(axis, c)
    zero = np.zeros_like(off)
    on_axes = np.concatenate([np.stack([off, zero], axis=1),
                              np.stack([zero, off], axis=1)])
    # tables[:, :m] hold the (z1, 0) traces, tables[:, m:] the (0, z2) ones
    tables = [np.insert(t, [c, 3 * c], 1.0, axis=1)
              for t in cgo_traces(on_axes, points)]
    phi1, phi2 = (t[:, i] * t[:, m + j] for t in tables)
    return phi1, phi2


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


def fhat_grid(dn: DNMatrix, flatten: Flattening, R: float, m: int = 33,
              det_background: float = 1.0) -> FhatGrid:
    """Assemble Fhat on the masked lattice 0 < |z| <= R.

    The traces are the flattened-domain exponentials composed with the
    flattening map ``flatten`` at the electrode centers on the original
    boundary, built per lattice axis by ``lattice_traces``.  The DN
    matrix is divided by sqrt(det_background) so the background
    conductivity after flattening is one.  The z = 0 mode is
    excluded; the missing mean is restored downstream by background
    calibration.  A radius that is not finite and positive, and a
    non-finite sample, as left by traces that overflow at a large R,
    raise ``ValueError``.
    """
    if not (np.isfinite(R) and R > 0):
        raise ValueError(
            f"truncation radius must be finite and positive, got {R}")
    if m < 3 or m % 2 == 0:
        raise ValueError(f"lattice size must be odd and >= 3, got {m}")
    y = flatten(dn.electrode_centers())

    zs, spacing = masked_lattice(R, m)
    scaled = replace(dn, dn=dn.dn / np.sqrt(det_background))
    rho = np.hypot(zs[:, 0], zs[:, 1])
    # traces that overflow leave non-finite samples, which the check
    # below reports in place of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        phi1, phi2 = lattice_traces(R, m, y)
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
    exp(-2 pi i z2 y2), are each (m, P) for P points and take one exp per
    point (``_phase_table``).  The sum is sum_j E1[j] * (F @ E2)[j] with F
    the m x m spectrum, zero off the mask; no (lattice x points) array is
    formed.
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
    E1 = _phase_table(pts[:, 0], axis)
    E2 = _phase_table(pts[:, 1], axis)
    vals = (E1 * (F @ E2)).sum(axis=0) * fhat.spacing ** 2
    scale = max(np.abs(vals.real).max(), 1e-300)
    return vals.real, float(np.abs(vals.imag).max() / scale)


def _phase_table(t: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """(m, P) table exp(-2 pi i axis[k] t[p]) on the lattice axis from one
    exp per point: with w = exp(-2 pi i spacing t) the row of axis
    position k * spacing is w^k, so the centre row is 1, the rows after
    it are running products of w and the rows before it are their
    conjugates, in mirror order."""
    m = len(axis)
    c = m // 2
    w = np.exp(-2j * np.pi * axis[c + 1] * t)
    E = np.empty((m, len(t)), dtype=complex)
    E[c] = 1.0
    np.cumprod(np.broadcast_to(w, (c, len(t))), axis=0, out=E[c + 1:])
    E[:c] = np.conj(E[:c:-1])
    return E


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
    write_json(json_path, doc)


def _beside(json_path, name) -> Path:
    # The binary sits beside its sidecar, which records its bare name
    # (older sidecars hold a full path), so a moved outdir still loads.
    return Path(json_path).parent / Path(name).name


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
    imag_residual: float           # relative imaginary residual discarded
    R: float
    lattice: int
    A0: np.ndarray
    config_sha256: str = ""
    fhat: Optional[FhatGrid] = None   # spectrum the field was built from


def on_unit_disk(dn: DNMatrix) -> DNMatrix:
    """``dn`` itself if its electrodes lie on the unit circle; a ValueError
    naming their radius otherwise, since the reconstruction grid and its
    calibration ring are fixed on the unit disk."""
    if abs(dn.layout.radius - 1.0) > 1e-12:
        raise ValueError(f"electrode radius {dn.layout.radius!r} is not 1: "
                         "the reconstruction is on the unit disk")
    return dn


def reconstruct_field(dn: DNMatrix, flatten: Flattening, A0: np.ndarray,
                      R: float, lattice: int = 33, grid: int = 101,
                      config_sha256: str = "") -> ReconstructedField:
    """End-to-end reconstruction: Fhat, truncated inverse, background
    calibration, and pullback onto an odd ``grid`` x ``grid`` grid over
    [-1, 1]^2, whose middle column is the x-axis cross-section.

    The additive background calibration pins the circle |x| = 0.8
    (mapped through Phi) to level one, restoring the mean lost with the
    excluded z = 0 lattice point.  The level estimate is the median of
    the ring samples: at large truncation radii the growing traces leave
    heavy-tailed directional artifacts that would bias the mean.  The
    ring and the grid points in the disk are mapped and inverted in one
    pass, and ``imag_residual`` is the relative imaginary residual of
    that pass.
    """
    on_unit_disk(dn)
    if grid < 3 or grid % 2 == 0:
        raise ValueError(f"output grid must be odd and >= 3, got {grid}")
    A0 = np.asarray(A0, dtype=float)
    det = float(np.linalg.det(A0))
    fh = fhat_grid(dn, flatten, R=R, m=lattice, det_background=det)

    ring_t = np.linspace(0.0, 2.0 * np.pi, BG_RING_SAMPLES, endpoint=False)
    ring = BG_RING_RADIUS * np.stack([np.cos(ring_t), np.sin(ring_t)], axis=1)
    axis = np.linspace(-1.0, 1.0, grid)
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([GX.ravel(), GY.ravel()], axis=1)
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0
    vals, imag = inverse_fourier(
        fh, flatten(np.concatenate([ring, pts[inside]])))
    offset = 1.0 - float(np.median(vals[:BG_RING_SAMPLES]))
    a_flat = np.full(len(pts), np.nan)
    a_flat[inside] = vals[BG_RING_SAMPLES:] + offset
    a_grid = a_flat.reshape(grid, grid)

    return ReconstructedField(
        grid_axis=axis, a=a_grid, mask=inside.reshape(grid, grid),
        cross_section_x=axis.copy(), cross_section=a_grid[:, grid // 2].copy(),
        background_offset=offset, imag_residual=imag,
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
    write_json(json_path, doc)


def load_field(json_path) -> ReconstructedField:
    """Read a reconstruction written by ``save_field``.  Its grid must
    span [-1, 1] and its cross-section lie on the grid's axis, as
    ``reconstruct_field`` makes them; a ValueError otherwise."""
    with open(json_path) as f:
        doc = json.load(f)
    if doc.get("format") != "anisoeit-recon":
        raise ValueError(f"{json_path}: not a reconstruction file")
    g = int(doc["grid"])
    if doc["grid_axis_minmax"] != [-1.0, 1.0]:
        raise ValueError(f"grid_axis_minmax is {doc['grid_axis_minmax']}, "
                         f"not [-1.0, 1.0]")
    axis = np.linspace(-1.0, 1.0, g)
    with open(_beside(json_path, doc["grid_file"]), "rb") as f:
        a = np.frombuffer(f.read(), dtype=np.float64).reshape(g, g).copy()
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    mask = np.hypot(GX, GY) <= 1.0
    if not np.isfinite(a[mask]).all():
        raise ValueError("grid holds a non-finite value inside the disk")
    xs = _float_array(doc, "cross_section_x", (g,))
    if not np.array_equal(xs, axis):
        raise ValueError("cross_section_x is not the grid axis")
    return ReconstructedField(
        grid_axis=axis, a=a, mask=mask, cross_section_x=xs,
        cross_section=_float_array(doc, "cross_section", (g,)),
        background_offset=float(doc["background_offset"]),
        imag_residual=float(doc["imag_residual"]),
        R=float(doc["R"]), lattice=int(doc["lattice"]),
        A0=np.array(doc["A0"]),
        config_sha256=doc.get("config_sha256", ""))
