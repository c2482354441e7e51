"""Command-line pipeline: simulate, map, reconstruct, evaluate.

Every command takes ``--config <path>``; outputs land in the config's
``outdir`` and embed the config hash.  Exit codes: 0 success, 2 config
error, 3 numerical failure; a failure writes exactly one JSON error
record to stderr, holding any warnings raised while the command ran.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .atomic import atomic_open, write_json
from .config import ConfigError, RunConfig, load_config, radius_tag
from .phantoms import PhantomSpec, make_phantom, phantom_by_name


def _phantom(cfg: RunConfig) -> PhantomSpec:
    if isinstance(cfg.phantom, str):
        return phantom_by_name(cfg.phantom)
    return make_phantom(float(cfg.phantom["M"]), np.asarray(cfg.phantom["A0"]))


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create outdir {out}: {exc}") from exc
    return out


def _read(loader, path):
    """``loader(path)``, with a file that is missing, or that it cannot
    parse, reported as malformed input (exit 2) rather than as a numerical
    failure or a traceback."""
    try:
        return loader(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ConfigError(f"{path}: unreadable ({type(exc).__name__}: "
                          f"{exc})") from exc


def _same_config(stamp: str, want: str, path) -> None:
    """Reject an input file stamped with another config's hash (exit 2);
    a file with no stamp is accepted."""
    if stamp and stamp != want:
        raise ConfigError(f"{path} was produced under a different config "
                          f"({str(stamp)[:12]}... != {want[:12]}...)")


def cmd_simulate(cfg: RunConfig) -> int:
    """Forward-simulate voltages and condense them to a DN matrix."""
    from .forward import dn_matrix, save_dn, save_voltages, simulate_voltages
    from .mesh import build_disk_mesh, place_electrodes
    ph = _phantom(cfg)
    layout = place_electrodes(cfg.L, cfg.coverage, cfg.contact_impedance)
    mesh = build_disk_mesh(1.0, cfg.target_h, layout)
    data = simulate_voltages(mesh, ph.tensor, layout, noise=cfg.noise,
                             seed=cfg.seed)
    data.config_sha256 = cfg.sha256()
    dn = dn_matrix(data)
    out = _outdir(cfg)
    save_voltages(data, out / "voltages.json")
    save_dn(dn, out / "dn.json")
    print(f"wrote {out / 'voltages.json'} and {out / 'dn.json'} "
          f"(L={cfg.L}, {mesh.n_nodes} nodes, noise={cfg.noise})")
    return 0


def cmd_map(cfg: RunConfig) -> int:
    """Solve the Beltrami equation for the config's background tensor, on
    the fixed grid and to the fixed tolerance of ``anisoeit.beltrami``."""
    from .beltrami import extend_mu, save_qcmap, solve_beltrami
    qc = solve_beltrami(extend_mu(_phantom(cfg).A0))
    qc.config_sha256 = cfg.sha256()
    out = _outdir(cfg)
    save_qcmap(qc, out / "map.bin")
    # image of the unit circle, for plotting elsewhere
    theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    image = qc(circle)
    with atomic_open(out / "boundary_image.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["theta", "x", "y"])
        for t, (x, y) in zip(theta, image):
            w.writerow(["%.17g" % t, "%.17g" % x, "%.17g" % y])
    print(f"wrote {out / 'map.bin'} (residual {qc.residual:.3e}, "
          f"{qc.iterations} series terms) and boundary_image.csv")
    return 0


def cmd_reconstruct(cfg: RunConfig) -> int:
    """Reconstruct the scalar multiplier for every truncation radius,
    flattening with the exact map z + mu0 conj(z) of the background."""
    from .beltrami import affine_map
    from .calderon import reconstruct_field, save_fhat, save_field
    from .forward import load_dn
    out = _outdir(cfg)
    dn_path = out / "dn.json"
    want = cfg.sha256()
    dn = _read(load_dn, dn_path)
    _same_config(dn.config_sha256, want, dn_path)
    ph = _phantom(cfg)
    flatten = affine_map(ph.A0)
    # every radius is computed before any is written, so a radius that
    # fails leaves no partial set of outputs behind
    fields = [reconstruct_field(
        dn, flatten, ph.A0, R=R, lattice=cfg.lattice, grid=cfg.output_grid,
        config_sha256=want) for R in cfg.truncation_radii]
    for R, fieldobj in zip(cfg.truncation_radii, fields):
        tag = radius_tag(R)
        save_field(fieldobj, out / f"recon_R{tag}.json",
                   out / f"recon_R{tag}.bin")
        save_fhat(fieldobj.fhat, out / f"fhat_R{tag}.json",
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


def cmd_evaluate(cfg: RunConfig, recon_path) -> int:
    """Error metrics of a reconstruction against the true phantom."""
    from .calderon import load_field
    fieldobj = _read(load_field, recon_path)
    _same_config(fieldobj.config_sha256, cfg.sha256(), recon_path)
    ph = _phantom(cfg)
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
    write_json(out / f"metrics_{stem}.json", metrics)
    print(json.dumps(metrics, sort_keys=True))
    return 0


CONFIG_HELP = """\
config keys (JSON object; every key optional, defaults in parentheses):
  phantom            "A1".."A4" or {"M": contrast, "A0": 2x2 SPD}  ("A1")
  target_h           mesh edge-length target, at most 500,000 nodes (0.05)
  L                  electrode count, even (16)
  coverage           boundary fraction under electrodes (0.5)
  contact_impedance  contact impedance of every electrode (0.01)
  truncation_radii   list of spectrum cutoffs to reconstruct at ([2.0])
  lattice            frequency lattice points per axis, odd (33)
  output_grid        reconstruction grid points per axis, odd (101)
  noise              relative additive voltage noise (0.0)
  seed               noise generator seed (0)
  outdir             output directory ("out")
"""


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as malformed input (exit 2, one JSON
    record) instead of printing usage text."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _dispatch(parser, argv) -> int:
    args = parser.parse_args(argv)
    cfg = load_config(args.config)
    if args.command == "simulate":
        return cmd_simulate(cfg)
    if args.command == "map":
        return cmd_map(cfg)
    if args.command == "reconstruct":
        return cmd_reconstruct(cfg)
    return cmd_evaluate(cfg, args.recon)


def main(argv=None) -> int:
    parser = _Parser(
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
    sub.add_parser("reconstruct", help="run the linearized reconstruction "
                   "for every configured truncation radius; reads "
                   "<outdir>/dn.json", **subkw)
    p_eval = sub.add_parser("evaluate", help="score a reconstruction "
                            "against the phantom", **subkw)
    p_eval.add_argument("--recon", required=True,
                        help="reconstruction JSON file")

    # warnings raised while the command runs go into its error record, so
    # that stderr of a failed run is exactly one JSON line
    with warnings.catch_warnings(record=True) as caught:
        try:
            return_code, record = _dispatch(parser, argv), None
        except ConfigError as exc:
            return_code, record = 2, {"error": "config", "message": str(exc)}
        except (np.linalg.LinAlgError, ValueError, RuntimeError, OSError,
                MemoryError) as exc:
            return_code, record = 3, {"error": "numerical",
                                      "type": type(exc).__name__,
                                      "message": str(exc)}
    if record is None:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return return_code
    record["warnings"] = [f"{w.category.__name__}: {w.message}"
                          for w in caught]
    json.dump(record, sys.stderr)
    sys.stderr.write("\n")
    return return_code


if __name__ == "__main__":
    sys.exit(main())
