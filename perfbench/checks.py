"""Correctness checks computed apart from the program.

Every check here works from the file formats documented in the top-level
README and from closed forms (the exact affine map of a constant tensor,
the disk transform J1(2 pi rho)/rho, the disk eigenvalues sigma*k, the
two-level phantom).  Nothing is imported from ``anisoeit``, so a fault
in the program cannot hide itself by also being in its own oracle.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from scipy.special import j1

INCLUSION_RADIUS = 0.5
BAND = (0.8, 1.2)             # criterion-7 background band
MAP_TOL = 1e-3                # FFT map vs exact affine map on the disk
IMAG_TOL = 1e-6               # criterion-8 imaginary residual
HERMITIAN_TOL = 1e-9
EIG_TOL = 0.10                # disk eigenvalues vs sigma*k, k = 1..4
J1_TOL = 0.10                 # criterion-6 spectrum tolerance
METRIC_TOL = 1e-9             # evaluate's metrics vs recomputed ones


def dilatation(A0) -> complex:
    """mu = (A22 - A11 - 2i A12) / (A11 + A22 + 2 sqrt(det A))."""
    A0 = np.asarray(A0, dtype=float)
    det = A0[0, 0] * A0[1, 1] - A0[0, 1] ** 2
    return complex(A0[1, 1] - A0[0, 0] - 2j * A0[0, 1]) / (
        A0[0, 0] + A0[1, 1] + 2.0 * np.sqrt(det))


def truth(points, M) -> np.ndarray:
    """Phantom multiplier: M inside |x| < 0.5, 1 elsewhere."""
    pts = np.asarray(points, dtype=float)
    return np.where(np.hypot(pts[..., 0], pts[..., 1]) < INCLUSION_RADIUS,
                    float(M), 1.0)


# ---------------------------------------------------------------------------
# readers for the documented formats


def read_map_bin(path):
    """(n, s, mu0, phi) from a map.bin file."""
    raw = Path(path).read_bytes()
    if raw[:12] != b"ANISOEITQC1\x00":
        raise ValueError(f"{path}: bad magic")
    n, s, _r, _blend = struct.unpack_from("<qddd", raw, 12)
    re0, im0 = struct.unpack_from("<dd", raw, 44)
    phi = np.frombuffer(raw, dtype="<c16", count=n * n, offset=60)
    return n, s, complex(re0, im0), phi.reshape(n, n)


def read_dn(path) -> np.ndarray:
    return np.array(json.loads(Path(path).read_text())["dn_row_major"])


def masked_lattice(R, m) -> np.ndarray:
    """Lattice points 0 < |z| <= R of the m x m grid over [-R, R]^2, in
    row-major order, as the spectrum files store them."""
    axis = np.linspace(-R, R, m)
    Z1, Z2 = np.meshgrid(axis, axis, indexing="ij")
    zs = np.stack([Z1.ravel(), Z2.ravel()], axis=1)
    rho = np.hypot(zs[:, 0], zs[:, 1])
    return zs[(rho > 0) & (rho <= R + 1e-12)]


def _beside(json_path, name) -> Path:
    # The sidecars record the binary's path as it was given to the writer;
    # look for it next to the sidecar so a moved directory still reads.
    return Path(json_path).parent / Path(name).name


def read_recon(json_path):
    """(doc, a) from a recon_R*.json sidecar and its float64 grid."""
    doc = json.loads(Path(json_path).read_text())
    g = int(doc["grid"])
    a = np.fromfile(_beside(json_path, doc["grid_file"]), dtype="<f8")
    return doc, a.reshape(g, g)


def read_fhat(json_path):
    """(zs, values, spacing) from a fhat_R*.json sidecar and its samples."""
    doc = json.loads(Path(json_path).read_text())
    values = np.fromfile(_beside(json_path, doc["values_file"]), dtype="<c16")
    zs = masked_lattice(float(doc["R"]), int(doc["m"]))
    if len(zs) != len(values):
        raise ValueError(f"{json_path}: {len(values)} samples for "
                         f"{len(zs)} lattice points")
    return zs, values, float(doc["spacing"])


# ---------------------------------------------------------------------------
# checks


def check_affine_map(phi, n, s, A0, tol=MAP_TOL):
    """Grid samples of Phi on the unit disk against z + mu0 * conj(z)."""
    axis = -s + (2.0 * s / n) * np.arange(n)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    z = X + 1j * Y
    disk = np.abs(z) <= 1.0
    exact = z + dilatation(A0) * np.conj(z)
    dev = float(np.abs(phi[disk] - exact[disk]).max())
    return [] if dev <= tol else [
        f"map deviates from z + mu0*conj(z) by {dev:.3e} (> {tol:g})"]


def check_map_file(path, A0, tol=MAP_TOL):
    """A written map: header dilatation and the samples on the disk."""
    n, s, mu0, phi = read_map_bin(path)
    problems = check_affine_map(phi, n, s, A0, tol)
    if abs(mu0 - dilatation(A0)) > 1e-12:
        problems.append(f"map header mu0 {mu0:.6g} != {dilatation(A0):.6g}")
    return problems


def check_mesh(nodes, triangles, boundary, radius=1.0):
    """Counterclockwise triangles, boundary nodes on the circle."""
    p = nodes[triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    problems = []
    if not (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0).all():
        problems.append("mesh has a triangle of non-positive area")
    if np.abs(np.hypot(*nodes[boundary].T) - radius).max() > 1e-12:
        problems.append("boundary node off the circle")
    return problems


def check_dn(dn):
    """Symmetric to rounding and positive definite."""
    dn = np.asarray(dn, dtype=float)
    problems = []
    asym = float(np.abs(dn - dn.T).max() / np.abs(dn).max())
    if asym > 1e-12:
        problems.append(f"DN matrix not symmetric (relative {asym:.2e})")
    lam = float(np.linalg.eigvalsh(0.5 * (dn + dn.T))[0])
    if lam <= 0:
        problems.append(f"DN matrix not positive definite (min eig {lam:.3e})")
    return problems


def check_disk_eigenvalues(dn, L, sigma=1.0, radius=1.0, tol=EIG_TOL):
    """Homogeneous disk: dn[k,k] L / (2 pi r) ~ sigma*k for the cos and
    sin patterns of harmonics k = 1..4 (trig basis order)."""
    d = np.diag(np.asarray(dn)) * L / (2.0 * np.pi * radius)
    half = L // 2
    problems = []
    for k in range(1, 5):
        for est in (d[k - 1], d[half + k - 1]):
            if abs(est - sigma * k) > tol * sigma * k:
                problems.append(f"disk eigenvalue {est:.3f} for k={k}")
    return problems


def check_hermitian(zs, values, spacing, tol=HERMITIAN_TOL):
    """Fhat(-z) = conj Fhat(z) over the returned lattice."""
    idx = np.rint(zs / spacing).astype(int)
    c = int(np.abs(idx).max())
    grid = np.full((2 * c + 1, 2 * c + 1), np.nan + 0j)
    grid[idx[:, 0] + c, idx[:, 1] + c] = values
    mirror = np.conj(grid[::-1, ::-1])
    if (np.isnan(grid) != np.isnan(mirror)).any():
        return ["lattice is not symmetric under z -> -z"]
    defect = float(np.nanmax(np.abs(grid - mirror)) / np.abs(values).max())
    return [] if defect <= tol else [f"Hermitian defect {defect:.2e}"]


def imag_residual(zs, values, spacing, points) -> float:
    """max |Im| / max |Re| of the truncated inverse transform at points."""
    vals = (values @ np.exp(-2j * np.pi * (zs @ points.T))) * spacing ** 2
    return float(np.abs(vals.imag).max() / np.abs(vals.real).max())


def check_j1(zs, values, zmax=1.0, tol=J1_TOL):
    """Unit-conductivity spectrum against the disk transform J1(2 pi rho)/rho
    on the lattice points with |z| <= zmax (criterion-6 form)."""
    rho = np.hypot(zs[:, 0], zs[:, 1])
    sel = rho <= zmax
    target = j1(2 * np.pi * rho[sel]) / rho[sel]
    err = np.abs(values[sel] - target)
    scale = np.abs(target).max()
    big = np.abs(target) >= 0.1 * scale
    rel = float((err[big] / np.abs(target[big])).max())
    if rel > tol or err.max() > tol * scale:
        return [f"spectrum off the disk transform by {rel:.1%}"]
    return []


def cross_section_figures(xs, cs):
    """center, x-axis annulus background (0.6 <= |x| <= 0.9) and slope."""
    xs, cs = np.asarray(xs), np.asarray(cs)
    bg = float(np.nanmean(cs[(np.abs(xs) >= 0.6) & (np.abs(xs) <= 0.9)]))
    d = np.gradient(cs, xs)
    sel = (np.abs(xs) >= 0.3) & (np.abs(xs) <= 0.7)
    return float(cs[len(xs) // 2]), bg, float(np.nanmax(np.abs(d[sel])))


def l2_rel(a, axis, M) -> float:
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    ok = (np.hypot(GX, GY) <= 1.0) & np.isfinite(a)
    t = truth(np.stack([GX, GY], axis=-1), M)
    return float(np.linalg.norm((a - t)[ok]) / np.linalg.norm(t[ok]))


def check_evaluate(metrics, a, axis, M, tol=METRIC_TOL):
    """The evaluate command's figures against ones recomputed here from
    the reconstruction grid and the phantom definition."""
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    rho = np.hypot(GX, GY)
    ann = (rho >= 0.6) & (rho <= 0.9) & np.isfinite(a)
    mid = len(axis) // 2
    want = {"l2_rel": l2_rel(a, axis, M), "center": float(a[mid, mid]),
            "bg_mean": float(a[ann].mean())}
    return [f"evaluate {k} = {metrics[k]:.6g}, expected {v:.6g}"
            for k, v in want.items()
            if abs(metrics[k] - v) > tol * max(1.0, abs(v))]


def check_reconstruction(a, axis, xs, cs, M):
    """Finite inside the disk; criterion-7 clauses on the x-axis cross-section.

    Returns (problems, figures); a background-band failure is reported as
    ``background band``.
    """
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    problems = []
    if not np.isfinite(a[np.hypot(GX, GY) <= 1.0]).all():
        problems.append("non-finite value inside the disk")
    center, bg, slope = cross_section_figures(xs, cs)
    if not BAND[0] <= bg <= BAND[1]:
        problems.append(f"background band: x-axis annulus mean {bg:.2f}")
    if M > 1.0 and not center > bg:
        problems.append(f"center {center:.2f} not above background {bg:.2f}")
    if M >= 4.0 and not center > 1.5:
        problems.append(f"center {center:.2f} <= 1.5 for contrast {M:g}")
    return problems, {"center": center, "bg": bg, "slope": slope,
                      "l2_rel": l2_rel(a, axis, M)}


def check_slopes(slopes_by_R):
    """The cross-section slope steepens as the truncation radius grows."""
    Rs = sorted(slopes_by_R)
    s = [slopes_by_R[R] for R in Rs]
    if all(b > a for a, b in zip(s, s[1:])):
        return []
    return [f"slope does not steepen with R: {dict(zip(Rs, s))}"]


def check_recon_files(recon_json, fhat_json, M, j1_ref=False):
    """All checks on one written reconstruction and its spectrum."""
    doc, a = read_recon(recon_json)
    axis = np.linspace(*doc["grid_axis_minmax"], int(doc["grid"]))
    problems, fig = check_reconstruction(a, axis, doc["cross_section_x"],
                                         doc["cross_section"], M)
    zs, values, spacing = read_fhat(fhat_json)
    problems += check_hermitian(zs, values, spacing)
    t = np.linspace(-1.0, 1.0, 21)
    pts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    for im in (imag_residual(zs, values, spacing, pts),
               float(doc["imag_residual"])):
        if not im <= IMAG_TOL:
            problems.append(f"imaginary residual {im:.2e}")
    if j1_ref:
        problems += check_j1(zs, values)
    return problems, fig, a, axis
