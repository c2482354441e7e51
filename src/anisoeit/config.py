"""Run configuration: validation, canonical hashing, defaults.

A run config is a JSON document; unknown keys are rejected so typos
fail fast.  Every output file embeds the config's canonical SHA-256 so
downstream commands can refuse mixed provenance.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, asdict
from typing import Union, get_args, get_type_hints

import numpy as np

from .atomic import atomic_open


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max   # rejects NaN, inf, huge ints


@dataclass
class RunConfig:
    phantom: Union[str, dict] = "A1"
    # mesh
    radius: float = 1.0
    target_h: float = 0.05
    # electrodes
    L: int = 16
    coverage: float = 0.5
    contact_impedance: float = 0.01
    current_amplitude: float = 1.0
    # quasi-conformal map grid
    qc_n: int = 512
    qc_s: float = 4.0
    qc_r: float = 2.0
    qc_blend: float = 0.5
    qc_tol: float = 1e-10
    qc_max_iter: int = 200
    qc_pad: int = 2
    qc_initial_guess: str = "tmu"     # "tmu" (T[mu]) or "mu0" (constant)
    # reconstruction
    truncation_radii: list = field(default_factory=lambda: [2.0])
    lattice: int = 33
    output_grid: int = 101
    # noise
    noise: float = 0.0
    seed: int = 0
    outdir: str = "out"

    def validate(self) -> None:
        # fields hold their annotated types; float ones take any finite number
        for name, hint in get_type_hints(RunConfig).items():
            value, kinds = getattr(self, name), get_args(hint) or (hint,)
            want = ("a finite number" if float in kinds
                    else " or ".join(k.__name__ for k in kinds))
            if not (_finite_number(value) if float in kinds else
                    isinstance(value, kinds) and not isinstance(value, bool)):
                raise ConfigError(f"{name} must be {want}, got {value!r}")
        if isinstance(self.phantom, str):
            if self.phantom not in ("A1", "A2", "A3", "A4"):
                raise ConfigError(f"unknown phantom name {self.phantom!r}")
        else:
            if "M" not in self.phantom or "A0" not in self.phantom:
                raise ConfigError("custom phantom needs keys 'M' and 'A0'")
            M = self.phantom["M"]
            A0 = np.asarray(self.phantom["A0"], dtype=object)
            if not (_finite_number(M) and M > 0) or A0.shape != (2, 2) \
                    or not all(map(_finite_number, A0.flat)):
                raise ConfigError("custom phantom needs a positive number M "
                                  "and a 2x2 matrix of numbers A0")
            A0 = A0.astype(float)
            if not np.allclose(A0, A0.T) or np.linalg.eigvalsh(A0)[0] <= 0:
                raise ConfigError("phantom A0 must be symmetric positive definite")
        if self.radius <= 0 or not (0 < self.target_h < self.radius):
            raise ConfigError("need 0 < target_h < radius")
        if self.L < 4 or self.L % 2:
            raise ConfigError("electrode count L must be even and >= 4")
        if not (0 < self.coverage < 1):
            raise ConfigError("coverage must lie in (0, 1)")
        if self.contact_impedance <= 0:
            raise ConfigError("contact impedance must be positive")
        if self.qc_n < 64 or self.qc_n % 2:
            raise ConfigError("qc_n must be even and >= 64")
        if self.qc_s < 2 * self.qc_r:
            raise ConfigError("qc_s must be at least 2 * qc_r")
        if not (0 < self.qc_blend < self.qc_r):
            raise ConfigError("qc_blend must lie in (0, qc_r)")
        if self.qc_r - self.qc_blend < self.radius:
            raise ConfigError("domain must fit inside the constant-coefficient "
                              "radius qc_r - qc_blend")
        if self.qc_max_iter < 1:
            raise ConfigError("qc_max_iter must be at least 1")
        if self.qc_pad < 1:
            raise ConfigError("qc_pad must be at least 1")
        if self.qc_initial_guess not in ("tmu", "mu0"):
            raise ConfigError("qc_initial_guess must be 'tmu' or 'mu0'")
        if not self.truncation_radii:
            raise ConfigError("truncation_radii must be non-empty")
        for R in self.truncation_radii:
            if not (_finite_number(R) and R > 0):
                raise ConfigError("truncation radii must be positive numbers")
        if self.lattice < 3 or self.lattice % 2 == 0:
            raise ConfigError("lattice must be odd and >= 3")
        if self.output_grid < 11 or self.output_grid % 2 == 0:
            raise ConfigError("output_grid must be odd and >= 11")
        if self.noise < 0:
            raise ConfigError("noise level must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    cfg = RunConfig(**doc)
    cfg.validate()
    return cfg


def save_config(cfg: RunConfig, path) -> None:
    with atomic_open(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")
