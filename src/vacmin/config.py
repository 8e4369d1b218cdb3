"""Experiment configuration: one YAML file per experiment.

Nested blocks mirror the pipeline: grid geometry at the top level, then
``potential``, ``boundary``, ``solver`` and ``analysis`` blocks. Configs
round-trip losslessly through to_dict/from_dict, and every emitted report
embeds the sha256 of the canonical serialization.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real

import numpy as np
import yaml

from .boundary import CONFIG_KEYS as BOUNDARY_KEYS
from .field import Grid
from .potentials import (CONFIG_KEYS as POTENTIAL_KEYS, Potential,
                         from_config as potential_from_config)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message carries the key path."""


def _reject_unknown(path: str, block: dict, known) -> None:
    unknown = set(block) - set(known)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown, key=str)[0]}: unknown key")


# a key whose default is an int is read as an integer
_SOLVER_DEFAULTS = {"tol": 1e-5, "max_iter": 50_000}
_ANALYSIS_DEFAULTS = {
    "radii": [],
    "eps": 0.1,
    "alpha": 1.0,
    "samples": 32,
    "sphere_points": 512,
    "tau": None,
    "c_m": 1.0,
    "delta_q_scale": 1e-3,
    "r": None,              # max-principle excursion radius
}


@dataclass
class ExperimentConfig:
    n: int
    m: int
    h: float
    r_max: float
    potential: dict
    boundary: dict
    solver: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    out: str = "out"
    seed: int = 0

    def __post_init__(self):
        for path, defaults in (("solver", _SOLVER_DEFAULTS),
                               ("analysis", _ANALYSIS_DEFAULTS)):
            block = getattr(self, path)
            if block is None:  # YAML's empty block
                block = {}
            if not isinstance(block, dict):
                raise ConfigError(f"{path}: expected a mapping")
            _reject_unknown(path, block, defaults)
            setattr(self, path, {**defaults, **block})
        self.validate()

    def validate(self) -> None:
        def need(cond, path, msg):
            if not cond:
                raise ConfigError(f"{path}: {msg}")

        def number(value, whole=False):
            # a finite real; an int read as a float must also fit a float
            if not isinstance(value, Real) or isinstance(value, bool):
                return False
            if whole and isinstance(value, Integral):
                return True
            try:
                return math.isfinite(value)
            except OverflowError:
                return False

        need(isinstance(self.potential, dict) and "family" in self.potential,
             "potential.family", "is required")
        family = self.potential["family"]
        need(isinstance(family, str) and family in POTENTIAL_KEYS,
             "potential.family", f"unknown family {family!r}")
        _reject_unknown("potential", self.potential,
                        {"family", *POTENTIAL_KEYS[family]})
        if family == "anisotropic":
            for key in ("coeffs", "powers"):
                need(key in self.potential, f"potential.{key}", "is required")
        need(isinstance(self.boundary, dict) and "tag" in self.boundary,
             "boundary.tag", "is required")
        tag = self.boundary["tag"]
        need(isinstance(tag, str) and tag in BOUNDARY_KEYS, "boundary.tag",
             "unknown tag")
        _reject_unknown("boundary", self.boundary,
                        {"tag", *BOUNDARY_KEYS[tag]})
        # the type each value is read as: int, float, or None for a point
        types = {"n": int, "m": int, "h": float, "r_max": float, "seed": int,
                 **{f"{path}.{k}": int if isinstance(v, int) else float
                    for path, defaults in (("solver", _SOLVER_DEFAULTS),
                                           ("analysis", _ANALYSIS_DEFAULTS))
                    for k, v in defaults.items()},
                 **{f"potential.{k}": t
                    for k, t in POTENTIAL_KEYS[family].items()},
                 **{f"boundary.{k}": t for k, t in BOUNDARY_KEYS[tag].items()}}
        values = {"n": self.n, "m": self.m, "h": self.h, "r_max": self.r_max,
                  "seed": self.seed,
                  **{f"{path}.{k}": v
                     for path in ("solver", "analysis", "potential",
                                  "boundary")
                     for k, v in getattr(self, path).items()
                     if k not in ("family", "tag")}}
        radii = values.pop("analysis.radii")
        for path, value in values.items():
            if types[path] is None:
                need(number(value) or isinstance(value, (list, tuple))
                     and len(value) > 0 and all(map(number, value)),
                     path, "expected a list of numbers")
                continue
            # a null analysis.tau or analysis.r is derived by the CLI
            need(number(value, whole=types[path] is int)
                 or value is None and path in ("analysis.tau", "analysis.r"),
                 path, "expected a number")
            need(types[path] is not int or isinstance(value, Integral), path,
                 "expected an integer")
        need(isinstance(radii, (list, tuple)) and all(map(number, radii)),
             "analysis.radii", "expected a list of numbers")
        need(isinstance(self.out, str), "out", "expected a string")
        need(self.out != "", "out", "must not be empty")
        need(self.n in (2, 3), "n", "must be 2 or 3")
        need(self.m >= 1, "m", "must be >= 1")
        need(self.h > 0, "h", "must be > 0")
        need(self.r_max > 0, "r_max", "must be > 0")
        need(self.r_max >= 4 * self.h, "r_max", "must be at least 4h")
        need(self.solver["tol"] > 0, "solver.tol", "must be > 0")
        need(self.solver["max_iter"] >= 1, "solver.max_iter", "must be >= 1")
        for r in self.analysis["radii"]:
            need(0 < r <= self.r_max, "analysis.radii",
                 f"radius {r} outside (0, r_max]")
        need(all(a < b for a, b in zip(radii, radii[1:])), "analysis.radii",
             "must be strictly increasing")
        need(self.analysis["eps"] > 0, "analysis.eps", "must be > 0")
        need(0 < self.analysis["alpha"] <= 1, "analysis.alpha",
             "must be in (0, 1]")
        need(self.analysis["samples"] >= 1, "analysis.samples",
             "must be >= 1")
        need(self.analysis["sphere_points"] >= 8, "analysis.sphere_points",
             "must be >= 8")
        need(self.analysis["c_m"] > 0, "analysis.c_m", "must be > 0")
        need(self.analysis["delta_q_scale"] >= 0, "analysis.delta_q_scale",
             "must be >= 0")
        # the ranges the boundary generators need, checked here to name
        # their key: numpy would broadcast a short direction
        bnd = self.boundary
        if "direction" in bnd:
            need(np.size(bnd["direction"]) == self.m, "boundary.direction",
                 f"must have m = {self.m} entries")
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(np.asarray(bnd["direction"], float))
            need(0 < norm < math.inf, "boundary.direction",
                 "must have a positive, finite length")
        need(bnd.get("terms", 1) >= 1, "boundary.terms", "must be >= 1")
        need(bnd.get("bandlimit", 0) >= 0, "boundary.bandlimit",
             "must be >= 0")
        # the ranges Potential enforces, checked here to name their key
        pot = self.potential
        need(pot.get("q", 2) >= 2, "potential.q", "must be >= 2")
        for key in ("lower_radius", "monot_radius"):
            need(pot.get(key, 1.0) > 0, f"potential.{key}", "must be > 0")
        if family == "anisotropic":
            for key in ("coeffs", "powers"):
                need(np.size(pot[key]) == np.size(pot.get("zero", 0.0)),
                     f"potential.{key}",
                     "must match the dimension of potential.zero")
            powers = np.asarray(pot["powers"])
            need(np.all(powers >= 2) and np.allclose(powers % 2, 0),
                 "potential.powers", "must be even integers >= 2")

    # -- construction helpers ------------------------------------------------

    def make_grid(self) -> Grid:
        return Grid(self.n, self.h, self.r_max)

    def make_potential(self) -> Potential:
        pot = potential_from_config(self.potential)
        if pot.m != self.m:
            raise ConfigError(f"potential.zero: dimension {pot.m} != m={self.m}")
        return pot

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("top level: expected a mapping")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown key")
        missing = [k for k in ("n", "m", "h", "r_max", "potential", "boundary")
                   if k not in d]
        if missing:
            raise ConfigError(f"{missing[0]}: missing required key")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_yaml(cls, path: str) -> "ExperimentConfig":
        with open(path) as f:
            try:
                raw = yaml.safe_load(f)
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(raw)

    def sha256(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
