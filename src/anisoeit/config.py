"""Run configuration: validation, canonical hashing, defaults.

A run config is a JSON document; unknown keys are rejected so typos
fail fast.  Every output file embeds the config's canonical SHA-256 so
downstream commands can refuse mixed provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, asdict
from typing import Union, get_args, get_type_hints

import numpy as np

from .phantoms import STOCK, check_spd


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


def radius_tag(R: float) -> str:
    """The tag that names a truncation radius's output files."""
    return "%g" % R


# the most mesh nodes a run may ask for, so that a tiny target_h is refused
# rather than filling memory: simulations with L = 32 peaked at 197 MB on
# 103,601 nodes (target_h = 0.006) and 424 MB on 232,313 (0.004)
MAX_MESH_NODES = 500_000


def mesh_nodes(target_h: float) -> float:
    """The node count of ``build_disk_mesh`` at ``target_h``, in closed
    form: about pi / (0.85 h^2) on its interior rings, spaced 0.85 h
    apart, and 2 pi / h on the boundary (26,190 against 26,377 at
    h = 0.012)."""
    return math.pi / 0.85 / target_h / target_h + 2 * math.pi / target_h


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max   # rejects NaN, inf, huge ints


@dataclass
class RunConfig:
    phantom: Union[str, dict] = "A1"
    # mesh of the unit disk
    target_h: float = 0.05
    # electrodes
    L: int = 16
    coverage: float = 0.5
    contact_impedance: float = 0.01
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
            if self.phantom not in STOCK:
                raise ConfigError(f"unknown phantom name {self.phantom!r}")
        else:
            if "M" not in self.phantom or "A0" not in self.phantom:
                raise ConfigError("custom phantom needs keys 'M' and 'A0'")
            unknown = set(self.phantom) - {"M", "A0"}
            if unknown:
                raise ConfigError(
                    f"unknown custom phantom keys {sorted(unknown)}")
            M = self.phantom["M"]
            A0 = np.asarray(self.phantom["A0"], dtype=object)
            if not (_finite_number(M) and M > 0) or A0.shape != (2, 2) \
                    or not all(map(_finite_number, A0.flat)):
                raise ConfigError("custom phantom needs a positive number M "
                                  "and a 2x2 matrix of numbers A0")
            try:
                check_spd(A0)
            except ValueError as exc:
                raise ConfigError("phantom A0 must be symmetric positive "
                                  f"definite: {exc}") from exc
        if not (0 < self.target_h < 1):
            raise ConfigError("need 0 < target_h < 1")
        nodes = mesh_nodes(self.target_h)
        if nodes > MAX_MESH_NODES:
            raise ConfigError(f"target_h={self.target_h:g} would make about "
                              f"{nodes:.3g} mesh nodes, above the cap of "
                              f"{MAX_MESH_NODES:,}")
        if self.L < 4 or self.L % 2:
            raise ConfigError("electrode count L must be even and >= 4")
        if not (0 < self.coverage < 1):
            raise ConfigError("coverage must lie in (0, 1)")
        if self.contact_impedance <= 0:
            raise ConfigError("contact impedance must be positive")
        if not self.truncation_radii:
            raise ConfigError("truncation_radii must be non-empty")
        tags = {}
        for R in self.truncation_radii:
            if not (_finite_number(R) and R > 0):
                raise ConfigError("truncation radii must be positive numbers")
            tag = radius_tag(R)
            if tag in tags:
                raise ConfigError(f"truncation radii {tags[tag]!r} and {R!r} "
                                  f"share the output tag {tag!r}")
            tags[tag] = R
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
