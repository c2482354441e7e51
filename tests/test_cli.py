import hashlib
import json
import math
import csv
import dataclasses
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import anisoeit
from anisoeit.cli import main
from anisoeit.config import (MAX_MESH_NODES, ConfigError, RunConfig,
                             load_config, mesh_nodes)
from anisoeit import affine_map, calderon, load_dn, phantom_by_name


def write_config(path, **overrides):
    cfg = RunConfig(**overrides)
    cfg.validate()
    Path(path).write_text(json.dumps(asdict(cfg)))
    return cfg


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _env_with_package():
    """Environment in which a fresh interpreter imports this anisoeit."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(anisoeit.__file__)),
         os.environ.get("PYTHONPATH", "")]))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_simulate_writes_files(workdir):
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.08)
    assert main(["simulate", "--config", "cfg.json"]) == 0
    assert (workdir / "out" / "voltages.json").exists()
    dn = load_dn(workdir / "out" / "dn.json")
    assert dn.dn.shape == (15, 15)


def test_pipeline_deterministic(workdir):
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1,
                 truncation_radii=[1.8], noise=0.002, seed=42)
    hashes = []
    for _ in range(2):
        for cmd in ("simulate", "map", "reconstruct"):
            assert main([cmd, "--config", "cfg.json"]) == 0
        hashes.append({p.name: sha(p) for p in sorted((workdir / "out").iterdir())})
    assert hashes[0] == hashes[1]


def test_noise_increases_asymmetry(workdir):
    write_config(workdir / "clean.json", phantom="A1", target_h=0.1,
                 outdir="c")
    write_config(workdir / "noisy.json", phantom="A1", target_h=0.1,
                 noise=0.01, seed=5, outdir="n")
    assert main(["simulate", "--config", "clean.json"]) == 0
    assert main(["simulate", "--config", "noisy.json"]) == 0
    clean = load_dn(workdir / "c" / "dn.json")
    noisy = load_dn(workdir / "n" / "dn.json")
    assert clean.asymmetry < 1e-8 < noisy.asymmetry


def test_map_identity_boundary_circle(workdir):
    write_config(workdir / "cfg.json",
                 phantom={"M": 1.0, "A0": [[1.0, 0.0], [0.0, 1.0]]})
    assert main(["map", "--config", "cfg.json"]) == 0
    with open(workdir / "out" / "boundary_image.csv") as f:
        rows = list(csv.DictReader(f))
    pts = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    theta = np.array([float(r["theta"]) for r in rows])
    assert np.abs(pts[:, 0] - np.cos(theta)).max() < 1e-10
    assert np.abs(pts[:, 1] - np.sin(theta)).max() < 1e-10


def test_map_anisotropic_area_and_sidecar(workdir):
    write_config(workdir / "cfg.json", phantom="A3")
    assert main(["map", "--config", "cfg.json"]) == 0
    with open(workdir / "out" / "boundary_image.csv") as f:
        rows = list(csv.DictReader(f))
    x = np.array([float(r["x"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    area = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert np.pi * 0.8 <= area <= np.pi * 1.3
    sidecar = json.loads((workdir / "out" / "map.json").read_text())
    assert sidecar["iterations"] > 0
    assert 0 < sidecar["residual"] < 1e-3


def test_reconstruct_background_fidelity(workdir):
    # zero-perturbation anisotropic data: reconstruction is flat near one
    write_config(workdir / "cfg.json",
                 phantom={"M": 1.0, "A0": [[1.0, 0.0], [0.0, 4.0]]},
                 target_h=0.06, L=32, contact_impedance=0.005,
                 truncation_radii=[1.8])
    for cmd in ("simulate", "map", "reconstruct"):
        assert main([cmd, "--config", "cfg.json"]) == 0
    with open(workdir / "out" / "cross_section_R1.8.csv") as f:
        rows = list(csv.DictReader(f))
    x = np.array([float(r["x"]) for r in rows])
    a = np.array([float(r["a"]) for r in rows])
    sel = np.abs(x) <= 0.6
    assert a[sel].min() >= 0.85 and a[sel].max() <= 1.15


def test_reconstruct_emits_filepair_per_radius(workdir):
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1,
                 truncation_radii=[1.8, 2.0])
    for cmd in ("simulate", "map", "reconstruct"):
        assert main([cmd, "--config", "cfg.json"]) == 0
    for tag in ("1.8", "2"):
        assert (workdir / "out" / f"recon_R{tag}.json").exists()
        assert (workdir / "out" / f"cross_section_R{tag}.csv").exists()
        with open(workdir / "out" / f"cross_section_R{tag}.csv") as f:
            rows = list(csv.DictReader(f))
        assert set(rows[0]) == {"x", "a", "a_true"}
        a = np.array([float(r["a"]) for r in rows])
        x = np.array([float(r["x"]) for r in rows])
        bg = a[(np.abs(x) >= 0.6) & (np.abs(x) <= 0.9)].mean()
        assert 0.7 < bg < 1.3


def test_provenance_mismatch_rejected(workdir):
    write_config(workdir / "a.json", phantom="A1", target_h=0.1, outdir="out")
    write_config(workdir / "b.json", phantom="A1", target_h=0.1, seed=1,
                 outdir="out")
    assert main(["simulate", "--config", "a.json"]) == 0
    assert main(["reconstruct", "--config", "b.json"]) == 2


def test_reconstruct_reads_no_map(workdir):
    # reconstruct flattens with the exact map z + mu0 conj(z): with no
    # map.bin beside dn.json it writes the field that the library gives
    cfg = write_config(workdir / "cfg.json", phantom="A3", target_h=0.1,
                       truncation_radii=[2.0], output_grid=31)
    assert main(["simulate", "--config", "cfg.json"]) == 0
    out = workdir / "out"
    assert not (out / "map.bin").exists()
    assert main(["reconstruct", "--config", "cfg.json"]) == 0
    A0 = phantom_by_name("A3").A0
    want = calderon.reconstruct_field(
        load_dn(out / "dn.json"), affine_map(A0), A0, R=2.0,
        lattice=cfg.lattice, grid=cfg.output_grid)
    got = calderon.load_field(out / "recon_R2.json")
    assert np.array_equal(got.a, want.a, equal_nan=True)
    assert np.array_equal(got.cross_section, want.cross_section)
    assert got.background_offset == want.background_offset


def test_evaluate_perfect_reconstruction(workdir):
    cfg = write_config(workdir / "cfg.json", phantom="A1", target_h=0.1)
    ph = phantom_by_name("A1")
    axis = np.linspace(-1.0, 1.0, 101)
    GX, GY = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([GX.ravel(), GY.ravel()], axis=1)
    mask = (np.hypot(pts[:, 0], pts[:, 1]) <= 1.0).reshape(101, 101)
    truth = ph.true_scalar(pts).reshape(101, 101)
    a = np.where(mask, truth, np.nan)
    cs_pts = np.stack([axis, np.zeros_like(axis)], axis=1)
    field = calderon.ReconstructedField(
        grid_axis=axis, a=a, mask=mask, cross_section_x=axis,
        cross_section=ph.true_scalar(cs_pts), background_offset=0.0,
        imag_residual=0.0, R=2.0, lattice=33, A0=ph.A0,
        config_sha256=cfg.sha256())
    out = workdir / "out"
    out.mkdir()
    calderon.save_field(field, out / "perfect.json", out / "perfect.bin")
    assert main(["evaluate", "--config", "cfg.json",
                 "--recon", str(out / "perfect.json")]) == 0
    metrics = json.loads((out / "metrics_perfect.json").read_text())
    assert set(metrics) == {"l2_rel", "center", "bg_mean", "slope"}
    assert metrics["l2_rel"] == 0.0
    assert metrics["center"] == pytest.approx(1.3)
    assert metrics["bg_mean"] == pytest.approx(1.0)


def test_evaluate_detects_inclusion(workdir):
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.08,
                 truncation_radii=[2.0])
    for cmd in ("simulate", "map", "reconstruct"):
        assert main([cmd, "--config", "cfg.json"]) == 0
    assert main(["evaluate", "--config", "cfg.json",
                 "--recon", "out/recon_R2.json"]) == 0
    metrics = json.loads((workdir / "out" / "metrics_recon_R2.json").read_text())
    assert metrics["center"] > metrics["bg_mean"]


def test_evaluate_rejects_phantom_option(workdir, capsys):
    # the phantom comes from the config alone
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1,
                 truncation_radii=[2.0])
    for cmd in ("simulate", "map", "reconstruct"):
        assert main([cmd, "--config", "cfg.json"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", "cfg.json",
                 "--recon", "out/recon_R2.json", "--phantom", "A3"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


def test_evaluate_rejects_other_config(workdir, capsys):
    cfg = write_config(workdir / "cfg.json", phantom="A1", target_h=0.1)
    other = RunConfig(phantom="A1", target_h=0.1, seed=1)
    axis = np.linspace(-1.0, 1.0, 101)
    field = calderon.ReconstructedField(
        grid_axis=axis, a=np.ones((101, 101)),
        mask=np.ones((101, 101), dtype=bool), cross_section_x=axis,
        cross_section=np.ones(101), background_offset=0.0,
        imag_residual=0.0, R=2.0, lattice=33, A0=np.eye(2),
        config_sha256=other.sha256())
    out = workdir / "out"
    out.mkdir()
    calderon.save_field(field, out / "other.json", out / "other.bin")
    assert main(["evaluate", "--config", "cfg.json",
                 "--recon", str(out / "other.json")]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "other.json" in message
    assert other.sha256()[:12] in message and cfg.sha256()[:12] in message
    assert not list(out.glob("metrics_*"))


def test_evaluate_rejects_grid_mismatch(workdir):
    cfg = write_config(workdir / "cfg.json", phantom="A1", target_h=0.1)
    axis = np.linspace(-1.0, 1.0, 61)
    mask = np.ones((61, 61), dtype=bool)
    field = calderon.ReconstructedField(
        grid_axis=axis, a=np.ones((61, 61)), mask=mask,
        cross_section_x=axis, cross_section=np.ones(61),
        background_offset=0.0, imag_residual=0.0, R=2.0, lattice=33,
        A0=np.eye(2), config_sha256=cfg.sha256())
    out = workdir / "out"
    out.mkdir()
    calderon.save_field(field, out / "small.json", out / "small.bin")
    assert main(["evaluate", "--config", "cfg.json",
                 "--recon", str(out / "small.json")]) == 2


def test_sample_configs_parse():
    import pathlib
    here = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for name in ("a1.json", "a3.json", "identity.json"):
        cfg = load_config(here / name)
        assert cfg.truncation_radii


def test_config_errors_exit_2(workdir):
    (workdir / "bad.json").write_text('{"L": 7}')
    assert main(["simulate", "--config", "bad.json"]) == 2
    (workdir / "unknown.json").write_text('{"no_such_key": 1}')
    assert main(["simulate", "--config", "unknown.json"]) == 2
    assert main(["simulate", "--config", "missing.json"]) == 2


@pytest.mark.parametrize("text", [
    '{"noise": NaN}',
    '{"L": "16"}',
    '{"lattice": 33.5}',
    '{"truncation_radii": 2.0}',
    '{"seed": -1}',
    '{"qc_max_iter": 0}',
    '{"qc_pad": 0}',
    '{"qc_pad": -3}',
    '{"truncation_radii": [1.8, 1.8000001]}',
    '{"phantom": {"M": 1.3, "A0": [[1.0, 1e-10], [0.0, 1.3]]}}',
    '{"phantom": {"M": 1.3, "A0": [[1, 0], [0, 1.3]], "contrast": 4.0}}',
    '{"qc_initial_guess": "tmu"}',
    # removed keys: the disk is the unit disk, map runs at library defaults
    '{"radius": 1.0}',
    '{"current_amplitude": 1.0}',
    '{"qc_n": 512}',
])
def test_config_validation_exit_2(workdir, capsys, text):
    (workdir / "bad.json").write_text(text)
    for cmd in ("simulate", "map"):
        assert main([cmd, "--config", "bad.json"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate"],                                  # no --config
    ["simulate", "--config", "cfg.json", "--bogus"],
    ["transmogrify", "--config", "cfg.json"],      # unknown command
    [],
    ["reconstruct", "--config", "cfg.json", "--map", "x"],   # no such option
])
def test_argument_errors_exit_2(workdir, capsys, argv):
    # a command line argparse rejects is malformed input: exit 2 with one
    # JSON record on stderr, not usage text
    write_config(workdir / "cfg.json", target_h=0.3, L=8)
    assert main(argv) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.err)
    assert record["error"] == "config" and record["message"]
    assert captured.out == ""
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: anisoeit" in capsys.readouterr().out


def test_config_help_lists_exactly_the_config_keys():
    from anisoeit.cli import CONFIG_HELP
    documented = set(re.findall(r"^  (\w+)", CONFIG_HELP, re.MULTILINE))
    assert documented == set(RunConfig.__dataclass_fields__)


def test_config_refuses_target_h_past_the_node_cap(workdir, capsys):
    # a tiny target_h would fill the host's memory while the mesher fills
    # the boundary; validation refuses it from the closed-form node count,
    # so no command builds that mesh.  h_cap is the target_h whose mesh
    # holds MAX_MESH_NODES nodes, the root of a / h^2 + b / h = cap
    a, b = math.pi / 0.85, 2 * math.pi
    h_cap = 2 * a / (math.sqrt(b * b + 4 * a * MAX_MESH_NODES) - b)
    assert mesh_nodes(h_cap) == pytest.approx(MAX_MESH_NODES, rel=1e-12)
    RunConfig(target_h=h_cap * (1 + 1e-6)).validate()
    for h in (1e-9, h_cap * (1 - 1e-6)):
        with pytest.raises(ConfigError, match="mesh nodes, above the cap"):
            RunConfig(target_h=h).validate()
        (workdir / "cfg.json").write_text(json.dumps({"target_h": h}))
        for argv in (["simulate"], ["map"], ["reconstruct"],
                     ["evaluate", "--recon", "out/recon_R2.json"]):
            assert main([*argv, "--config", "cfg.json"]) == 2, argv
            assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (workdir / "out").exists()


def test_config_rejects_colliding_radius_tags():
    # both radii would write recon_R1.8.*, the second over the first
    for radii in ([1.8, 1.8000001], [2.0, 2]):
        with pytest.raises(ConfigError, match=(f"{radii[0]!r} and "
                                               f"{radii[1]!r}")):
            RunConfig(truncation_radii=radii).validate()


def test_exported_dataclass_type_hints_resolve():
    import dataclasses
    import typing
    import anisoeit
    classes = [v for v in (getattr(anisoeit, n) for n in anisoeit.__all__)
               if isinstance(v, type) and dataclasses.is_dataclass(v)]
    assert RunConfig in classes
    for cls in classes:
        assert typing.get_type_hints(cls), cls.__name__


def test_numerical_failure_exit_3(workdir, capsys):
    # sup |mu| = 0.9998 for this background: the Beltrami iteration
    # contracts too slowly to meet its tolerance within its budget
    write_config(workdir / "cfg.json",
                 phantom={"M": 1.0, "A0": [[1, 0], [0, 1e8]]})
    capsys.readouterr()
    assert main(["map", "--config", "cfg.json"]) == 3
    assert json.loads(capsys.readouterr().err)["type"] == \
        "BeltramiConvergenceError"
    # noise of 1e300 swamps the voltages, and the DN norm underflows
    write_config(workdir / "cfg.json", target_h=0.3, L=8, noise=1e300)
    capsys.readouterr()
    assert main(["simulate", "--config", "cfg.json"]) == 3
    assert "asymmetry" in json.loads(capsys.readouterr().err)["message"]
    assert not (workdir / "out" / "dn.json").exists()


def test_indefinite_element_exit_3(workdir, capsys, monkeypatch):
    # one element with an indefinite tensor stops the front Cholesky; the
    # record names the node, and stderr holds nothing but that record
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.2, L=8)

    def true_scalar(points):
        a = np.ones(len(points))
        a[7] = -100.0
        return a

    bad = dataclasses.replace(phantom_by_name("A1"), true_scalar=true_scalar)
    monkeypatch.setattr("anisoeit.cli._phantom", lambda cfg: bad)
    capsys.readouterr()
    assert main(["simulate", "--config", "cfg.json"]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["type"] == "RuntimeError"
    assert re.search(r"front Cholesky fails at node \d+$", record["message"])
    assert not (workdir / "out" / "dn.json").exists()


# what a failing check on the electrode matrix names, in its message
_FORWARD_FAILURES = ("row sums", "node solve residual", "S c deviates",
                     "front Cholesky")


@pytest.mark.parametrize("z", [1e-9, 1e-6, 1e-5, 3e-5, 1e-4, 0.1, 1.0, 10.0,
                               100.0, 1e3, 1e8])
def test_contact_impedance_range(workdir, capsys, z):
    # simulate succeeds for z in [3e-5, 10]; outside it, a run may fail,
    # but only with exit 3 and the failing quantity named
    write_config(workdir / "cfg.json", phantom="A3", target_h=0.2, L=8,
                 contact_impedance=z)
    capsys.readouterr()
    code = main(["simulate", "--config", "cfg.json"])
    err = capsys.readouterr().err
    if 3e-5 <= z <= 10.0:
        assert code == 0, err
    elif code != 0:
        assert code == 3, err
        message = json.loads(err)["message"]
        assert any(q in message for q in _FORWARD_FAILURES), message


def test_failure_stderr_is_one_json_record(workdir):
    # a subnormal contact impedance overflows the contact masses s/(6 z)
    # inside numpy; its warnings go into the error record, not onto
    # stderr ahead of it
    write_config(workdir / "cfg.json", target_h=0.3, L=8,
                 contact_impedance=1e-320)
    env = _env_with_package()
    run = subprocess.run(
        [sys.executable, "-m", "anisoeit.cli", "simulate", "--config",
         "cfg.json"], capture_output=True, text=True, env=env)
    assert run.returncode == 3
    record = json.loads(run.stderr)
    assert record["error"] == "numerical"
    assert any(w.startswith("RuntimeWarning") for w in record["warnings"])
    assert not (workdir / "out" / "dn.json").exists()


@pytest.mark.parametrize("missing", ["scipy", "scipy.linalg._fblas",
                                     "scipy.linalg._flapack"])
def test_missing_blas_wrappers_exit_3(workdir, capsys, monkeypatch, missing):
    # without scipy, or without one of its BLAS/LAPACK extension modules,
    # simulate fails with exit 3 and one record that names the module
    import importlib.machinery
    import importlib.util
    from anisoeit.forward import _kernels
    find_spec, path_find_spec = (importlib.util.find_spec,
                                 importlib.machinery.PathFinder.find_spec)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a: (
        None if name == missing else find_spec(name, *a)))
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda name, *a: (None if name == missing
                                          else path_find_spec(name, *a)))
    write_config(workdir / "cfg.json", target_h=0.3, L=8)
    capsys.readouterr()
    _kernels.cache_clear()
    try:
        assert main(["simulate", "--config", "cfg.json"]) == 3
    finally:
        _kernels.cache_clear()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    record = json.loads(err)
    assert record["type"] == "RuntimeError"
    named = "scipy.linalg._fblas" if missing == "scipy" else missing
    assert record["message"].endswith(f"no module {named}")
    assert not (workdir / "out" / "dn.json").exists()


def test_vanishing_contact_impedance_reaches_its_limit(workdir, capsys):
    # in contact-drop variables the contact masses grow as 1/z but never
    # meet the voltages, so z = 1e-300 gives the z -> 0 limit, which
    # z = 1e-9 is within 1e-7 of
    dns = []
    for z in (1e-300, 1e-9):
        write_config(workdir / "cfg.json", target_h=0.3, L=8,
                     contact_impedance=z)
        capsys.readouterr()
        assert main(["simulate", "--config", "cfg.json"]) == 0
        dns.append(load_dn(workdir / "out" / "dn.json").dn)
    assert np.abs(dns[0] - dns[1]).max() <= 1e-7 * np.abs(dns[1]).max()


def test_nonfinite_fhat_exit_3(workdir, capsys):
    # at R = 300 the probing traces overflow and every F-hat sample that
    # touches them is NaN, without a numpy warning; no reconstruction may
    # be written from it, nor from a radius before it in the same run
    for radii in ([300], [2.0, 300]):
        write_config(workdir / "cfg.json", phantom="A1", target_h=0.1,
                     truncation_radii=radii)
        for cmd in ("simulate", "map"):
            assert main([cmd, "--config", "cfg.json"]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--config", "cfg.json"]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "numerical"
        assert "Fhat" in record["message"] and "R=300" in record["message"]
        assert record["warnings"] == []
        for stem in ("recon_R", "fhat_R", "cross_section_R"):
            assert not list((workdir / "out").glob(stem + "*")), radii


def test_memory_error_exit_3(workdir, capsys, monkeypatch):
    # an array too large to allocate is a numerical failure: one JSON
    # record naming it, and no traceback
    write_config(workdir / "cfg.json")

    def too_large(cfg):
        raise MemoryError("Unable to allocate 256. TiB for an array with "
                          "shape (35184372088833,) and data type float64")

    monkeypatch.setattr("anisoeit.cli.cmd_reconstruct", too_large)
    capsys.readouterr()
    assert main(["reconstruct", "--config", "cfg.json"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    record = json.loads(err)
    assert record["error"] == "numerical"
    assert record["type"] == "MemoryError"
    assert "256. TiB" in record["message"]


def test_missing_input_exit_2(workdir, capsys):
    # a missing input file is malformed input, not a numerical failure
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1)

    def rejected(argv, name):
        assert main([*argv, "--config", "cfg.json"]) == 2, argv
        record = json.loads(capsys.readouterr().err)
        return record["error"] == "config" and name in record["message"]

    assert rejected(["reconstruct"], "dn.json")
    assert rejected(["evaluate", "--recon", "none.json"], "none.json")


def test_outdir_that_is_a_file_exit_2(workdir, capsys):
    # an outdir that cannot be created is malformed input
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1,
                 outdir="taken")
    (workdir / "taken").write_text("")
    for argv in (["simulate"], ["reconstruct"]):
        capsys.readouterr()
        assert main([*argv, "--config", "cfg.json"]) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "config" and "taken" in record["message"]


def _simulate(workdir):
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1)
    assert main(["simulate", "--config", "cfg.json"]) == 0


def _edit_json(path, **entries):
    doc = json.loads(path.read_text())
    doc.update(entries)
    path.write_text(json.dumps(doc))


def _electrodes(**entries):
    """Edits the electrode layout of a dn.json file."""
    def edit(path):
        doc = json.loads(path.read_text())
        doc["electrodes"].update(entries)
        path.write_text(json.dumps(doc))
    return edit


def _document(text):
    """Replaces a whole JSON file with ``text``."""
    def edit(path):
        path.write_text(text)
    return edit


def _literal(name, text, block=None):
    """Sets entry ``name`` of a JSON file, or of its object ``block``, to
    the literal ``text``, such as 1e400, which JSON reads as infinity and
    json.dumps cannot write."""
    def edit(path):
        doc = json.loads(path.read_text())
        (doc[block] if block else doc)[name] = "@literal@"
        path.write_text(json.dumps(doc).replace('"@literal@"', text))
    return edit


def _swapped_patterns(path):
    """Swaps the first two pattern columns of an L = 16 dn.json file, and
    the rows and columns of its matrices to match: a consistent file in
    another basis."""
    doc = json.loads(path.read_text())
    k = [1, 0, *range(2, 15)]
    doc["patterns"]["T"] = np.array(doc["patterns"]["T"])[:, k].tolist()
    for name in ("dn_row_major", "nd_row_major"):
        doc[name] = np.array(doc[name])[np.ix_(k, k)].tolist()
    path.write_text(json.dumps(doc))


def _zero_pattern(path):
    # a zero column, which no column scale makes a trig pattern
    doc = json.loads(path.read_text())
    for row in doc["patterns"]["T"]:
        row[4] = 0.0
    path.write_text(json.dumps(doc))


def _shifted_centers(path):
    # a layout rotated by 0.3 rad, which the trig basis does not describe
    doc = json.loads(path.read_text())
    doc["electrodes"]["centers"] = [
        c + 0.3 for c in doc["electrodes"]["centers"]]
    path.write_text(json.dumps(doc))


def _electrode_count(L):
    """Sets the electrode count of a dn.json file to L, with centres and
    impedances of that length where it has one."""
    n = max(L, 0)
    return _electrodes(L=L, centers=[2 * np.pi * l / L for l in range(n)],
                       contact_impedances=[0.01] * n)


def _two_electrodes(path):
    # every array consistent with L = 2, which ElectrodeLayout refuses
    doc = json.loads(path.read_text())
    doc["electrodes"].update(L=2, centers=[0.0, np.pi],
                             contact_impedances=[0.01, 0.01])
    doc["patterns"].update(L=2, T=[[1.0], [-1.0]])
    doc.update(dn_row_major=[[1.0]], nd_row_major=[[1.0]])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("entries", [
    None,                                       # no entries at all
    {"dn_row_major": "abc"},
    {"dn_row_major": np.eye(3).tolist()},       # not (L-1) x (L-1)
    {"config_sha256": 5},
    _electrodes(radius=-1.0),
    _electrodes(radius=float("nan")),
    _electrodes(radius=0.8),                    # off the unit circle
    _shifted_centers,
    _electrodes(angular_width=-0.1),
    _electrodes(angular_width=2 * np.pi / 16),  # arcs that touch
    _electrodes(contact_impedances=[0.01] * 15 + [0.02]),
    _electrodes(contact_impedances=[0.0] * 16),
    _electrodes(contact_impedances=[-1.0] * 16),
    _electrodes(contact_impedances=[float("nan")] * 16),
    _electrodes(angular_width=float("nan")),
    _electrode_count(0),
    _electrode_count(-2),
    _electrode_count(15),
    _two_electrodes,
    _document("[1, 2]"),
    _document("null"),
    _literal("L", "1e400", block="electrodes"),
    _swapped_patterns,
    _zero_pattern,
], ids=["empty", "dn-string", "dn-3x3", "stamp-int", "radius-negative",
        "radius-nan", "radius-0.8", "centers-shifted", "width-negative",
        "width-full", "impedances-unequal", "impedance-zero",
        "impedance-negative", "impedance-nan", "width-nan", "L-0",
        "L-negative", "L-odd", "two-electrodes", "document-list", "document-null", "L-1e400",
        "patterns-swapped", "patterns-zero-column"])
def test_malformed_dn_exit_2(workdir, capsys, entries):
    _simulate(workdir)
    path = workdir / "out" / "dn.json"
    if entries is None:
        path.write_text('{"format": "anisoeit-dn"}')
    elif callable(entries):
        entries(path)
    else:
        _edit_json(path, **entries)
    capsys.readouterr()
    assert main(["reconstruct", "--config", "cfg.json"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "dn.json" in record["message"]
    assert record["warnings"] == []


def test_scaled_patterns_reconstruct_identically(workdir):
    # the DN matrix is taken in the normalized basis, so patterns scaled
    # by a positive factor, as earlier versions wrote them, change nothing
    _simulate(workdir)
    out = workdir / "out"

    def outputs():
        assert main(["reconstruct", "--config", "cfg.json"]) == 0
        return {p.name: sha(p) for p in sorted(out.iterdir())
                if p.name != "dn.json"}

    before = outputs()
    doc = json.loads((out / "dn.json").read_text())
    doc["patterns"]["T"] = (3.0 * np.array(doc["patterns"]["T"])).tolist()
    (out / "dn.json").write_text(json.dumps(doc))
    assert outputs() == before


def _nan_at_centre(path):
    grid = path.with_name("recon_R2.bin")
    a = np.fromfile(grid)
    g = math.isqrt(a.size)
    a[(g // 2) * g + g // 2] = np.nan
    a.tofile(grid)


def _section_off_grid(path):
    # a cross-section that is not the grid's middle column
    _edit_json(path, cross_section=[5.0] * json.loads(
        path.read_text())["grid"])


def _zero_section_x(path):
    _edit_json(path, cross_section_x=[0.0] * json.loads(
        path.read_text())["grid"])


@pytest.mark.parametrize("entries", [
    None,                                       # no entries at all
    {"cross_section": "abc"},
    {"cross_section_x": [0.0]},                 # shorter than the values
    _nan_at_centre,                             # in the grid file
    {"grid_axis_minmax": [5, 6]},
    {"grid_axis_minmax": [-1, float("nan")]},
    _zero_section_x,                            # right length, off the axis
    _section_off_grid,
    _document("[1, 2]"),
    _document("null"),
    _literal("grid", "1e400"),
    _literal("lattice", "1e400"),
    # 2**45 float64 values are 256 TiB, past any address space: the grid
    # file's size must be checked before an axis of that length is built
    {"grid": 2 ** 45},
    {"A0": [[1.0, 0.0], [0.0, float("nan")]]},
], ids=["empty", "section-string", "section-x-short", "grid-nan",
        "axis-shifted", "axis-nan", "section-x-zero", "section-off-grid",
        "document-list", "document-null", "grid-1e400", "lattice-1e400",
        "grid-2**45", "A0-nan"])
def test_malformed_recon_exit_2(workdir, capsys, entries):
    path = workdir / "out" / "recon_R2.json"
    if entries is None:
        write_config(workdir / "cfg.json", phantom="A1", target_h=0.1)
        path.parent.mkdir()
        path.write_text('{"format": "anisoeit-recon"}')
    else:
        _simulate(workdir)
        assert main(["reconstruct", "--config", "cfg.json"]) == 0
        if callable(entries):
            entries(path)
        else:
            _edit_json(path, **entries)
    capsys.readouterr()
    assert main(["evaluate", "--config", "cfg.json",
                 "--recon", str(path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "recon_R2.json" in record["message"]


def test_config_rejects_unknown_phantom(workdir):
    (workdir / "cfg.json").write_text('{"phantom": "B7"}')
    with pytest.raises(ConfigError):
        load_config(workdir / "cfg.json")


# a fresh process runs one CLI command and reports the modules it loaded
_MODULES_AFTER_CLI = """\
import json, runpy, sys
sys.argv = ["anisoeit", *sys.argv[1:]]
try:
    runpy.run_module("anisoeit.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


# the package modules each command loads: only what it runs
_COMMAND_MODULES = {
    "simulate": ["atomic", "config", "forward", "mesh", "phantoms"],
    "map": ["atomic", "beltrami", "config", "phantoms"],
    "reconstruct": ["atomic", "beltrami", "calderon", "config", "forward",
                    "mesh", "phantoms"],
    "evaluate": ["atomic", "calderon", "config", "phantoms"],
}


def test_pipeline_commands_skip_sparse_and_mesh_stack(workdir):
    # no command loads a scipy package, numpy.fft or numpy.ma: the mesher
    # is closed-form, the forward solve is a dense front Cholesky that
    # calls scipy's BLAS and LAPACK wrappers from their two extension
    # modules alone, and the Beltrami series is summed mode by mode in
    # closed form.  Each command loads exactly the package modules it
    # runs, and numpy.polynomial only where the Beltrami series is summed
    # (map)
    write_config(workdir / "cfg.json", phantom="A3", target_h=0.2, L=8,
                 lattice=9, output_grid=21)
    env = _env_with_package()
    wrappers = ["scipy.linalg._fblas", "scipy.linalg._flapack"]
    for argv in (["simulate"], ["map"], ["reconstruct"],
                 ["evaluate", "--recon", "out/recon_R2.json"]):
        run = subprocess.run(
            [sys.executable, "-c", _MODULES_AFTER_CLI, *argv,
             "--config", "cfg.json"],
            capture_output=True, text=True, env=env, check=True)
        code, modules = json.loads(run.stdout.splitlines()[-1])
        assert code == 0, (argv, run.stderr)
        heavy = [m for m in modules if m not in wrappers and (
            m.split(".")[0] == "scipy" or m in ("numpy.fft", "numpy.ma"))]
        assert heavy == [], (argv[0], heavy[:5])
        assert [m for m in modules if m in wrappers] == (
            wrappers if argv[0] == "simulate" else []), argv[0]
        assert [m for m in modules if m.split(".")[0] == "anisoeit"] == [
            "anisoeit", *(f"anisoeit.{m}" for m in _COMMAND_MODULES[argv[0]])]
        assert ("numpy.polynomial" in modules) == (argv[0] == "map"), argv[0]


def test_import_timer_names_every_module_a_command_loads(workdir):
    # `python -X importtime -m anisoeit.cli <command>` profiles exactly the
    # package modules the command loads: the import timer sees import
    # statements, not the importlib call of the lazy namespace, so the
    # commands import their names from the modules themselves
    write_config(workdir / "cfg.json", phantom="A3", target_h=0.2, L=8,
                 lattice=9, output_grid=21)
    for argv in (["simulate"], ["map"], ["reconstruct"],
                 ["evaluate", "--recon", "out/recon_R2.json"]):
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "anisoeit.cli", *argv,
             "--config", "cfg.json"], capture_output=True, text=True,
            env=_env_with_package(), check=True)
        timed = sorted(line.rsplit("|", 1)[-1].strip()
                       for line in run.stderr.splitlines()
                       if line.startswith("import time:"))
        assert [m for m in timed if m.split(".")[0] == "anisoeit"] == [
            "anisoeit", *(f"anisoeit.{m}" for m in _COMMAND_MODULES[argv[0]])
        ], argv[0]


def test_package_import_loads_no_submodule():
    # a fresh process: `import anisoeit` loads no submodule and no numpy,
    # and anisoeit.calderon then resolves with no prior import
    code = ("import json, sys, anisoeit; before = sorted(sys.modules); "
            "m = anisoeit.calderon; print(json.dumps([before, "
            "m is sys.modules['anisoeit.calderon'], "
            "anisoeit.fhat_grid is m.fhat_grid]))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env_with_package(), check=True)
    before, is_module, same_name = json.loads(run.stdout)
    assert [m for m in before if m.split(".")[0] in ("anisoeit", "numpy")] \
        == ["anisoeit"]
    assert is_module and same_name


def test_lazy_namespace_resolves_every_exported_name():
    import importlib
    assert sorted(anisoeit.__all__) == sorted([
        "Mesh", "ElectrodeLayout", "build_disk_mesh", "place_electrodes",
        "CEMSystem", "VoltageData", "DNMatrix", "trig_current_patterns",
        "assemble_cem_system", "solve_forward", "simulate_voltages",
        "dn_matrix", "save_voltages", "save_dn", "load_dn",
        "MuGrid", "QCMap", "BeltramiConvergenceError",
        "beltrami_coefficient", "extend_mu", "affine_map", "solve_beltrami",
        "pushforward_tensor", "save_qcmap",
        "FhatGrid", "ReconstructedField", "cgo_traces", "bilinear_form",
        "fhat_grid", "inverse_fourier", "reconstruct_field", "save_field",
        "load_field", "save_fhat",
        "PhantomSpec", "constant_tensor", "sigma_profile", "make_phantom",
        "phantom_by_name", "RunConfig", "ConfigError", "load_config"])
    for name in anisoeit.__all__:
        value = getattr(anisoeit, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("anisoeit."), name
        assert getattr(home, name) is value, name
    assert set(anisoeit.__all__) <= set(dir(anisoeit))
    assert {"calderon", "cli", "__version__"} <= set(dir(anisoeit))
    with pytest.raises(AttributeError, match="no_such_name"):
        anisoeit.no_such_name
    assert not hasattr(anisoeit, "no_such_name")
    star = {}
    exec("from anisoeit import *", star)
    assert set(star) - {"__builtins__"} == set(anisoeit.__all__)


# ---------------------------------------------------------------------------
# property: any JSON config, good or malformed, ends in exit 0, 2 or 3

# small valid values, so that every command stays fast
_VALID = {
    "phantom": st.one_of(
        st.sampled_from(["A1", "A2", "A3", "A4"]),
        st.fixed_dictionaries({
            "M": st.floats(0.5, 3.0),
            "A0": st.tuples(st.floats(0.5, 2.0), st.floats(-0.3, 0.3),
                            st.floats(0.5, 2.0)).map(
                lambda t: [[t[0], t[1]], [t[1], t[2]]])})),
    "target_h": st.floats(0.2, 0.4),
    "L": st.sampled_from([4, 6, 8]),
    # the whole of (0, 1), with values within 1e-14 of either end, where
    # arc ends or gaps round away and simulate exits 3
    "coverage": st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1e-14, exclude_min=True),
        st.floats(1.0 - 1e-14, 1.0, exclude_max=True)),
    "contact_impedance": st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e),
    "truncation_radii": st.lists(st.floats(0.5, 4.0), min_size=1, max_size=2),
    "lattice": st.sampled_from([3, 5, 7, 9]),
    "output_grid": st.sampled_from([11, 15, 21]),
    "noise": st.floats(0.0, 0.1),
    "seed": st.integers(0, 2 ** 31),
}
# the keys that keep a run small are always present unless made malformed
_ALWAYS = ("target_h", "L", "lattice", "output_grid")
# values no config key accepts, or accepts only to reject in validation
_MALFORMED = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "A9", "64"]),
    st.lists(st.integers(-2, 2), max_size=2), st.just({"M": 1}),
    st.sampled_from([float("nan"), float("inf"), -1.0, 0, -3, 1e300, 2.5]))
_NOT_A_CONFIG = ["", "{", "[]", "null", '"A1"', "{\"noise\": NaN"]


@st.composite
def _config_texts(draw):
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from(_NOT_A_CONFIG))
    doc = draw(st.fixed_dictionaries(
        {k: _VALID[k] for k in _ALWAYS},
        optional={k: v for k, v in _VALID.items() if k not in _ALWAYS}))
    bad = draw(st.lists(st.sampled_from([*_VALID, "outdir", "no_such_key"]),
                        max_size=2, unique=True))
    for key in bad:
        doc[key] = draw(_MALFORMED)
    return doc


def _check_finite_outputs(command, out):
    if command == "simulate":
        dn = load_dn(out / "dn.json")
        assert np.isfinite([*dn.dn.flat, *dn.nd.flat, dn.asymmetry]).all()
    elif command == "map":
        # map.bin is a 60-byte header, then n^2 complex128 samples of Phi
        phi = np.fromfile(out / "map.bin", dtype=np.complex128, offset=60)
        assert np.isfinite(phi).all()
    elif command == "reconstruct":
        for path in out.glob("recon_R*.json"):
            f = calderon.load_field(path)
            assert np.isfinite(f.a[f.mask]).all(), path.name
            assert np.isfinite(f.cross_section).all(), path.name
        for path in out.glob("fhat_R*.json"):
            doc = json.loads(path.read_text())
            values = np.fromfile(path.parent / doc["values_file"],
                                 dtype=np.complex128)
            assert np.isfinite(values).all(), path.name
    else:
        for path in out.glob("metrics_*.json"):
            assert np.isfinite(list(json.loads(path.read_text()).values())).all()


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_config_texts())
def test_any_config_exits_cleanly(doc):
    # exit 0, 2 or 3 only, never an exception out of main, and no
    # non-finite number in what an exit-0 command wrote; the run happens
    # in a scratch directory, since a malformed outdir may be any string
    outdir = doc.get("outdir", "out") if isinstance(doc, dict) else "out"
    out = Path(outdir if isinstance(outdir, str) else "out")
    if isinstance(doc, dict):
        doc = json.dumps(doc)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("cfg.json").write_text(doc)
            for command in ("simulate", "map", "reconstruct", "evaluate"):
                argv = [command, "--config", "cfg.json"]
                if command == "evaluate":
                    recons = sorted(out.glob("recon_R*.json"))
                    argv += ["--recon", str(recons[0] if recons
                                            else "none.json")]
                code = main(argv)
                assert code in (0, 2, 3), (command, code)
                if code == 0:
                    _check_finite_outputs(command, out)
        finally:
            os.chdir(cwd)
