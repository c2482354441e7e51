"""Command-line pipeline: simulate, map, reconstruct, evaluate.

Every command takes ``--config <path>``; outputs land in the config's
``outdir`` and embed the config hash.  Exit codes: 0 success, 2 config
error, 3 numerical failure; failures also emit a JSON error record on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import calderon, forward
from .atomic import atomic_open
from .beltrami import (BeltramiConvergenceError, evaluate_map, extend_mu,
                       load_qcmap, save_qcmap, solve_beltrami)
from .config import ConfigError, RunConfig, load_config
from .mesh import build_disk_mesh, place_electrodes
from .phantoms import PhantomSpec, make_phantom, phantom_by_name


def _phantom(cfg: RunConfig) -> PhantomSpec:
    if isinstance(cfg.phantom, str):
        return phantom_by_name(cfg.phantom)
    return make_phantom(float(cfg.phantom["M"]), np.asarray(cfg.phantom["A0"]))


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read(loader, path):
    """``loader(path)``, with a file it cannot parse reported as malformed
    input (exit 2) rather than as a numerical failure or a traceback."""
    try:
        return loader(path)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ConfigError(f"{path}: unreadable ({type(exc).__name__}: "
                          f"{exc})") from exc


def cmd_simulate(cfg: RunConfig) -> int:
    """Forward-simulate voltages and condense them to a DN matrix."""
    ph = _phantom(cfg)
    layout = place_electrodes(cfg.L, cfg.coverage, cfg.contact_impedance,
                              radius=cfg.radius)
    mesh = build_disk_mesh(cfg.radius, cfg.target_h, layout)
    patterns = forward.trig_current_patterns(cfg.L, cfg.current_amplitude)
    data = forward.simulate_voltages(mesh, ph.tensor, layout,
                                     patterns=patterns,
                                     noise=cfg.noise, seed=cfg.seed)
    data.config_sha256 = cfg.sha256()
    dn = forward.dn_matrix(data)
    out = _outdir(cfg)
    forward.save_voltages(data, out / "voltages.json")
    forward.save_dn(dn, out / "dn.json")
    print(f"wrote {out / 'voltages.json'} and {out / 'dn.json'} "
          f"(L={cfg.L}, {mesh.n_nodes} nodes, noise={cfg.noise})")
    return 0


def cmd_map(cfg: RunConfig) -> int:
    """Solve the Beltrami equation for the config's background tensor."""
    ph = _phantom(cfg)
    mu = extend_mu(ph.A0, r=cfg.qc_r, blend=cfg.qc_blend, n=cfg.qc_n,
                   s=cfg.qc_s)
    h0 = mu.mu0 if cfg.qc_initial_guess == "mu0" else None
    qc = solve_beltrami(mu, tol=cfg.qc_tol, max_iter=cfg.qc_max_iter,
                        h0=h0, pad=cfg.qc_pad)
    qc.config_sha256 = cfg.sha256()
    out = _outdir(cfg)
    save_qcmap(qc, out / "map.bin")
    # image of the boundary circle, for plotting elsewhere
    theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    circle = cfg.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    image = evaluate_map(qc, circle)
    with atomic_open(out / "boundary_image.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["theta", "x", "y"])
        for t, (x, y) in zip(theta, image):
            w.writerow(["%.17g" % t, "%.17g" % x, "%.17g" % y])
    print(f"wrote {out / 'map.bin'} (residual {qc.residual:.3e}, "
          f"{qc.iterations} iterations) and boundary_image.csv")
    return 0


def cmd_reconstruct(cfg: RunConfig, dn_path=None, map_path=None) -> int:
    """Reconstruct the scalar multiplier for every truncation radius."""
    out = _outdir(cfg)
    dn_path = Path(dn_path) if dn_path else out / "dn.json"
    map_path = Path(map_path) if map_path else out / "map.bin"
    dn = _read(forward.load_dn, dn_path)
    want = cfg.sha256()
    if dn.config_sha256 and dn.config_sha256 != want:
        raise ConfigError(f"{dn_path} was produced under a different config "
                          f"({dn.config_sha256[:12]}... != {want[:12]}...)")
    qc = _read(load_qcmap, map_path)
    if qc.config_sha256 and qc.config_sha256 != want:
        raise ConfigError(f"{map_path} was produced under a different config "
                          f"({qc.config_sha256[:12]}... != {want[:12]}...)")
    ph = _phantom(cfg)
    for R in cfg.truncation_radii:
        fieldobj = calderon.reconstruct_field(
            dn, qc, ph.A0, R=R, lattice=cfg.lattice, grid=cfg.output_grid,
            config_sha256=want)
        tag = "%g" % R
        calderon.save_field(fieldobj, out / f"recon_R{tag}.json",
                            out / f"recon_R{tag}.bin")
        fieldobj.fhat.config_sha256 = want
        calderon.save_fhat(fieldobj.fhat, out / f"fhat_R{tag}.json",
                           out / f"fhat_R{tag}.bin")
        target = ph.true_scalar(
            np.stack([fieldobj.cross_section_x,
                      np.zeros_like(fieldobj.cross_section_x)], axis=1))
        with atomic_open(out / f"cross_section_R{tag}.csv", "w",
                         newline="") as f:
            w = csv.writer(f)
            w.writerow(["x", "a", "a_true"])
            for x, a, at in zip(fieldobj.cross_section_x,
                                fieldobj.cross_section, target):
                w.writerow(["%.17g" % x, "%.17g" % a, "%.17g" % at])
        print(f"wrote recon_R{tag}.json/.bin and cross_section_R{tag}.csv "
              f"(imag residual {fieldobj.imag_residual:.2e})")
    return 0


def cmd_evaluate(cfg: RunConfig, recon_path, phantom_name=None) -> int:
    """Error metrics of a reconstruction against the true phantom."""
    if phantom_name is not None and isinstance(cfg.phantom, str) \
            and phantom_name != cfg.phantom:
        raise ConfigError(f"phantom {phantom_name!r} does not match the "
                          f"config's {cfg.phantom!r}")
    fieldobj = _read(calderon.load_field, recon_path)
    want = cfg.sha256()
    if fieldobj.config_sha256 and fieldobj.config_sha256 != want:
        raise ConfigError(f"{recon_path} was produced under a different config")
    ph = phantom_by_name(phantom_name) if phantom_name else _phantom(cfg)
    axis = fieldobj.grid_axis
    if len(axis) != cfg.output_grid:
        raise ConfigError("reconstruction grid does not match the config")
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([GX.ravel(), GY.ravel()], axis=1)
    truth = ph.true_scalar(pts).reshape(fieldobj.a.shape)
    m = fieldobj.mask & np.isfinite(fieldobj.a)
    l2_rel = float(np.linalg.norm((fieldobj.a - truth)[m])
                   / np.linalg.norm(truth[m]))
    mid = len(axis) // 2
    center = float(fieldobj.a[mid, mid])
    rho = np.hypot(GX, GY)
    ann = m & (rho >= 0.6) & (rho <= 0.9)
    bg_mean = float(fieldobj.a[ann].mean())
    xs = fieldobj.cross_section_x
    cs = fieldobj.cross_section
    dcs = np.gradient(cs, xs)
    sel = (np.abs(xs) >= 0.3) & (np.abs(xs) <= 0.7)
    slope = float(np.nanmax(np.abs(dcs[sel])))
    metrics = {"l2_rel": l2_rel, "center": center, "bg_mean": bg_mean,
               "slope": slope}
    out = _outdir(cfg)
    stem = Path(recon_path).stem
    with atomic_open(out / f"metrics_{stem}.json", "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(metrics, sort_keys=True))
    return 0


CONFIG_HELP = """\
config keys (JSON object; every key optional, defaults in parentheses):
  phantom            "A1".."A4" or {"M": contrast, "A0": 2x2 SPD}  ("A1")
  radius             disk radius (1.0)
  target_h           mesh edge-length target (0.05)
  L                  electrode count, even (16)
  coverage           boundary fraction under electrodes (0.5)
  contact_impedance  contact impedance of every electrode (0.01)
  current_amplitude  trig pattern amplitude (1.0)
  qc_n, qc_s         map grid: points per axis (512), half-width (4.0)
  qc_r, qc_blend     coefficient support radius (2.0), ramp width (0.5)
  qc_tol             fixed-point increment tolerance (1e-10)
  qc_max_iter        iteration budget (200)
  qc_pad             transform padding factor inside the solve (2)
  qc_initial_guess   "tmu" = T[mu] start, "mu0" = constant start ("tmu")
  truncation_radii   list of spectrum cutoffs to reconstruct at ([2.0])
  lattice            frequency lattice points per axis, odd (33)
  output_grid        reconstruction grid points per axis, odd (101)
  noise              relative additive voltage noise (0.0)
  seed               noise generator seed (0)
  outdir             output directory ("out")
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anisoeit",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Anisotropic EIT: simulate electrode data, compute the "
                    "quasi-conformal flattening map, reconstruct the scalar "
                    "conductivity multiplier, and score the result.",
        epilog=CONFIG_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    subkw = dict(parents=[common], epilog=CONFIG_HELP,
                 formatter_class=argparse.RawDescriptionHelpFormatter)

    sub.add_parser("simulate", help="forward-solve the electrode model; "
                   "writes voltages.json and dn.json", **subkw)
    sub.add_parser("map", help="solve the Beltrami equation for the "
                   "background tensor; writes map.bin/.json and "
                   "boundary_image.csv", **subkw)
    p_rec = sub.add_parser("reconstruct",
                           help="run the linearized reconstruction for every "
                                "configured truncation radius", **subkw)
    p_rec.add_argument("--dn", default=None, help="DN matrix file "
                       "(default: <outdir>/dn.json)")
    p_rec.add_argument("--map", dest="map_file", default=None,
                       help="QC map file (default: <outdir>/map.bin)")
    p_eval = sub.add_parser("evaluate", help="score a reconstruction "
                            "against the phantom", **subkw)
    p_eval.add_argument("--recon", required=True,
                        help="reconstruction JSON file")
    p_eval.add_argument("--phantom", default=None,
                        help="phantom name override (must match the config)")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "map":
            return cmd_map(cfg)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.dn, args.map_file)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.recon, args.phantom)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        json.dump({"error": "config", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (BeltramiConvergenceError, np.linalg.LinAlgError, ValueError,
            RuntimeError, OSError) as exc:
        json.dump({"error": "numerical", "type": type(exc).__name__,
                   "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
