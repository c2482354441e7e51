import hashlib
import json
import csv

import numpy as np
import pytest

from anisoeit.cli import main
from anisoeit.config import RunConfig, load_config, save_config, ConfigError
from anisoeit import calderon, load_dn, phantom_by_name


def write_config(path, **overrides):
    cfg = RunConfig(**overrides)
    cfg.validate()
    save_config(cfg, path)
    return cfg


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert main(["map", "--config", "b.json"]) == 0
    assert main(["reconstruct", "--config", "b.json"]) == 2



def test_map_provenance_mismatch_rejected(workdir, capsys):
    # data and config agree; only the map comes from another config
    write_config(workdir / "a.json", phantom="A1", target_h=0.1, outdir="out")
    write_config(workdir / "b.json", phantom="A1", target_h=0.1, seed=1,
                 outdir="out")
    assert main(["simulate", "--config", "b.json"]) == 0
    assert main(["map", "--config", "a.json"]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--config", "b.json"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config" and "map.bin" in record["message"]

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


def test_evaluate_rejects_phantom_mismatch(workdir):
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1,
                 truncation_radii=[2.0])
    for cmd in ("simulate", "map", "reconstruct"):
        assert main([cmd, "--config", "cfg.json"]) == 0
    assert main(["evaluate", "--config", "cfg.json",
                 "--recon", "out/recon_R2.json", "--phantom", "A3"]) == 2


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
])
def test_config_validation_exit_2(workdir, capsys, text):
    (workdir / "bad.json").write_text(text)
    for cmd in ("simulate", "map"):
        assert main([cmd, "--config", "bad.json"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
    assert not (workdir / "out").exists()


def test_exported_dataclass_type_hints_resolve():
    import dataclasses
    import typing
    import anisoeit
    classes = [v for v in vars(anisoeit).values()
               if isinstance(v, type) and dataclasses.is_dataclass(v)]
    assert RunConfig in classes
    for cls in classes:
        assert typing.get_type_hints(cls), cls.__name__


def test_numerical_failure_exit_3(workdir):
    write_config(workdir / "cfg.json", phantom="A3", qc_max_iter=1)
    assert main(["map", "--config", "cfg.json"]) == 3


def test_nonfinite_fhat_exit_3(workdir, capsys):
    # at R = 300 the probing traces overflow and every F-hat sample that
    # touches them is NaN; no reconstruction may be written from it
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1, qc_n=64,
                 truncation_radii=[300])
    for cmd in ("simulate", "map"):
        assert main([cmd, "--config", "cfg.json"]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--config", "cfg.json"]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "numerical"
    assert "Fhat" in record["message"] and "R=300" in record["message"]
    assert not list((workdir / "out").glob("recon_R300.*"))


def _simulate_and_map(workdir):
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1, qc_n=128)
    for cmd in ("simulate", "map"):
        assert main([cmd, "--config", "cfg.json"]) == 0


@pytest.mark.parametrize("size", [20, 100_000])
def test_truncated_map_exit_2(workdir, capsys, size):
    # 20 bytes cuts the header; 100,000 cuts the samples (262,204 bytes
    # at n = 128) at a length that is no whole number of them
    _simulate_and_map(workdir)
    path = workdir / "out" / "map.bin"
    path.write_bytes(path.read_bytes()[:size])
    capsys.readouterr()
    assert main(["reconstruct", "--config", "cfg.json"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "map.bin" in record["message"]
    assert str(size) in record["message"]


def test_malformed_dn_exit_2(workdir, capsys):
    _simulate_and_map(workdir)
    (workdir / "out" / "dn.json").write_text('{"format": "anisoeit-dn"}')
    capsys.readouterr()
    assert main(["reconstruct", "--config", "cfg.json"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "dn.json" in record["message"]


def test_malformed_recon_exit_2(workdir, capsys):
    write_config(workdir / "cfg.json", phantom="A1", target_h=0.1)
    (workdir / "recon.json").write_text('{"format": "anisoeit-recon"}')
    assert main(["evaluate", "--config", "cfg.json",
                 "--recon", "recon.json"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "recon.json" in record["message"]


def test_config_rejects_unknown_phantom(workdir):
    (workdir / "cfg.json").write_text('{"phantom": "B7"}')
    with pytest.raises(ConfigError):
        load_config(workdir / "cfg.json")
