"""CLI subcommands, config handling, determinism of emitted artifacts."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest
import yaml

from conftest import vacmin_env
from vacmin.boundary import random_smooth
from vacmin.cli import _COMMANDS, _source_sha256, main
from vacmin.competitor import boundary_within
from vacmin.config import ConfigError, ExperimentConfig
from vacmin.field import BOUNDARY, EXTERIOR, VectorField, load_field

BASE = {
    "n": 2,
    "m": 2,
    "h": 0.1,
    "r_max": 3.0,
    "potential": {"family": "power", "zero": [0.0, 0.0], "q": 4},
    "boundary": {"tag": "angular", "magnitude": 0.6, "windings": 1},
    "solver": {"tol": 1.0e-5, "max_iter": 20000},
    "analysis": {"radii": [0.75, 1.25], "eps": 0.02, "sphere_points": 256},
    "seed": 3,
}


def write_cfg(tmp_path, name="exp.yaml", **overrides):
    """BASE with overrides; a block is merged into BASE's, except a
    potential or boundary block, which replaces it (its keys depend on the
    family or the tag)."""
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and key not in ("potential", "boundary"):
            cfg[key] = {**cfg.get(key, {}), **val}
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run_cli(cmd, cfg_path, out_dir, *extra):
    return main([cmd, "--config", cfg_path, "--out", str(out_dir), *extra])


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(BASE)))
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True))
    again = ExperimentConfig.from_yaml(str(p))
    assert again.to_dict() == cfg.to_dict()
    assert again.sha256() == cfg.sha256()


def test_config_validation_messages():
    bad = json.loads(json.dumps(BASE))
    bad["h"] = -1.0
    with pytest.raises(ConfigError, match="h"):
        ExperimentConfig.from_dict(bad)
    bad2 = json.loads(json.dumps(BASE))
    bad2["analysis"] = {"radii": [99.0]}
    with pytest.raises(ConfigError, match="radii"):
        ExperimentConfig.from_dict(bad2)
    bad3 = json.loads(json.dumps(BASE))
    bad3["extra_key"] = 1
    with pytest.raises(ConfigError, match="extra_key"):
        ExperimentConfig.from_dict(bad3)
    bad4 = json.loads(json.dumps(BASE))
    del bad4["potential"]
    with pytest.raises(ConfigError, match="potential"):
        ExperimentConfig.from_dict(bad4)


def test_config_error_exit_code(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("n: 7\n")
    assert main(["minimize", "--config", str(p)]) == 2
    q = tmp_path / "broken.yaml"
    q.write_text("n: [unclosed\n")
    assert main(["minimize", "--config", str(q)]) == 2


def test_unknown_solver_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, solver={"max_iters": 3})
    assert run_cli("minimize", cfg, tmp_path / "out") == 2
    assert "solver.max_iters" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"^solver\.max_iters: unknown key$"):
        ExperimentConfig.from_dict({**BASE, "solver": {"max_iters": 3}})


@pytest.mark.parametrize("key,block,path", [
    ("potential", {"family": "power", "qq": 4}, "potential.qq"),
    ("potential", {"family": "quadratic", "q": 4}, "potential.q"),
    ("analysis", {"epss": 0.1}, "analysis.epss"),
    ("potential", {"family": "power", "q": 4, "a": 0.5}, "potential.a"),
    ("boundary", {"tag": "angular", "magnitud": 0.6}, "boundary.magnitud"),
    ("boundary", {"tag": "constant", "windings": 2}, "boundary.windings"),
])
def test_unknown_block_key_rejected(tmp_path, capsys, key, block, path):
    # a misspelt or foreign key must not fall back to a default silently
    cfg = json.loads(json.dumps(BASE))
    cfg[key] = block
    p = tmp_path / "exp.yaml"
    p.write_text(yaml.safe_dump(cfg))
    assert run_cli("minimize", str(p), tmp_path / "out") == 2
    assert path in capsys.readouterr().err
    with pytest.raises(ConfigError, match=rf"^{path}: unknown key$"):
        ExperimentConfig.from_dict(cfg)
    assert not (tmp_path / "out" / "solve.json").exists()


@pytest.mark.parametrize("overrides,message", [
    ({"solver": {"tol": "x"}}, "solver.tol: expected a number"),
    ({"h": "0.1"}, "h: expected a number"),
    ({"analysis": {"eps": [1]}}, "analysis.eps: expected a number"),
    ({"solver": {"max_iter": True}}, "solver.max_iter: expected a number"),
    ({"analysis": {"radii": [1.0, "2"]}},
     "analysis.radii: expected a list of numbers"),
    ({"boundary": {"tag": "unknown"}}, "boundary.tag: unknown tag"),
    # integer keys: a fractional value must not be truncated
    ({"boundary": {"tag": "angular", "magnitude": 0.6, "windings": 1.5}},
     "boundary.windings: expected an integer"),
    ({"solver": {"max_iter": 2.5}}, "solver.max_iter: expected an integer"),
    ({"analysis": {"sphere_points": 100.7}},
     "analysis.sphere_points: expected an integer"),
    ({"analysis": {"samples": 3.5}}, "analysis.samples: expected an integer"),
    ({"boundary": {"tag": "random", "seed": 1.5}},
     "boundary.seed: expected an integer"),
    ({"seed": 0.5}, "seed: expected an integer"),
    # potential values
    ({"potential": {"family": "power", "q": "x"}},
     "potential.q: expected a number"),
    ({"potential": {"family": "quadratic", "zero": [0.0, "0"]}},
     "potential.zero: expected a list of numbers"),
    ({"potential": {"family": "quadratic", "monot_radius": [2.0]}},
     "potential.monot_radius: expected a number"),
    ({"potential": {"family": "power", "q": 4, "lower_radius": None}},
     "potential.lower_radius: expected a number"),
    ({"potential": {"family": "anisotropic", "zero": [0.0, 0.0],
                    "coeffs": {"a": 1}, "powers": [2, 4]}},
     "potential.coeffs: expected a list of numbers"),
    ({"potential": {"family": "anisotropic", "zero": [0.0, 0.0],
                    "coeffs": [1.0, 1.0], "powers": []}},
     "potential.powers: expected a list of numbers"),
    ({"potential": {"family": "anisotropic", "zero": [0.0, 0.0],
                    "powers": [2, 4]}},
     "potential.coeffs: is required"),
    ({"boundary": {"tag": "radial-profile", "direction": "x"}},
     "boundary.direction: expected a list of numbers"),
    # an integral float is not an integer either: not every reader casts
    ({"n": 2.0}, "n: expected an integer"),
    ({"seed": 1.0}, "seed: expected an integer"),
    ({"solver": {"max_iter": 20000.0}},
     "solver.max_iter: expected an integer"),
    # values out of range
    ({"analysis": {"sphere_points": 4}},
     "analysis.sphere_points: must be >= 8"),
    ({"analysis": {"samples": 0}}, "analysis.samples: must be >= 1"),
    ({"potential": {"family": "power", "zero": [0.0, 0.0], "q": 1}},
     "potential.q: must be >= 2"),
    ({"potential": {"family": "power", "zero": [0.0, 0.0], "q": 4,
                    "lower_radius": -1.0}},
     "potential.lower_radius: must be > 0"),
    ({"potential": {"family": "quadratic", "zero": [0.0, 0.0],
                    "monot_radius": 0}},
     "potential.monot_radius: must be > 0"),
    ({"potential": {"family": "anisotropic", "zero": [0.0, 0.0],
                    "coeffs": [1.0, 1.0], "powers": [3, 2]}},
     "potential.powers: must be even integers >= 2"),
    ({"potential": {"family": "anisotropic", "zero": [0.0, 0.0],
                    "coeffs": [1.0], "powers": [2, 4]}},
     "potential.coeffs: must match the dimension of potential.zero"),
    ({"potential": {"family": "anisotropic", "zero": [0.0, 0.0],
                    "coeffs": [1.0, 1.0], "powers": [2, 4, 4]}},
     "potential.powers: must match the dimension of potential.zero"),
    ({"analysis": {"radii": [1.0, 0.5, 0.75]}},
     "analysis.radii: must be strictly increasing"),
    ({"analysis": {"c_m": -1}}, "analysis.c_m: must be > 0"),
    ({"analysis": {"delta_q_scale": -1000}},
     "analysis.delta_q_scale: must be >= 0"),
    # non-finite numbers are not numbers
    ({"r_max": float("inf")}, "r_max: expected a number"),
    ({"potential": {"family": "power", "zero": [0.0, 0.0],
                    "q": float("inf")}},
     "potential.q: expected a number"),
    ({"potential": {"family": "quadratic", "zero": [float("nan"), 0.0]}},
     "potential.zero: expected a list of numbers"),
    # a non-mapping block or a non-string out is not read as the default
    ({"solver": 0}, "solver: expected a mapping"),
    ({"solver": False}, "solver: expected a mapping"),
    ({"solver": ""}, "solver: expected a mapping"),
    ({"analysis": []}, "analysis: expected a mapping"),
    ({"out": None}, "out: expected a string"),
    ({"out": 3}, "out: expected a string"),
    ({"out": ""}, "out: must not be empty"),
    # an int read as a float must fit a float
    ({"r_max": 10 ** 400}, "r_max: expected a number"),
    ({"solver": {"tol": -10 ** 400}}, "solver.tol: expected a number"),
    ({"potential": {"family": "power", "zero": [0.0, 0.0], "q": 10 ** 400}},
     "potential.q: expected a number"),
    ({"potential": {"family": "quadratic", "zero": [10 ** 400, 0.0]}},
     "potential.zero: expected a list of numbers"),
    ({"analysis": {"radii": [0.75, 10 ** 400]}},
     "analysis.radii: expected a list of numbers"),
    # boundary values numpy would broadcast or fail on without the key
    ({"boundary": {"tag": "radial-profile", "direction": [1.0]}},
     "boundary.direction: must have m = 2 entries"),
    ({"boundary": {"tag": "radial-profile", "direction": [1, 0, 0]}},
     "boundary.direction: must have m = 2 entries"),
    ({"boundary": {"tag": "radial-profile", "direction": [0, 0]}},
     "boundary.direction: must have a positive, finite length"),
    ({"boundary": {"tag": "radial-profile", "direction": [1e300, 1e300]}},
     "boundary.direction: must have a positive, finite length"),
    ({"boundary": {"tag": "random", "terms": -1}},
     "boundary.terms: must be >= 1"),
    ({"boundary": {"tag": "random", "terms": 0}},
     "boundary.terms: must be >= 1"),
    ({"boundary": {"tag": "random", "bandlimit": -2}},
     "boundary.bandlimit: must be >= 0"),
])
def test_bad_value_names_its_key_path(tmp_path, capsys, overrides, message):
    # a bad value names its key path, not a comparison error, and is
    # rejected before anything is solved or written
    cfg = write_cfg(tmp_path, **overrides)
    assert run_cli("minimize", cfg, tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_out_is_rejected_without_an_out_flag(tmp_path, capsys,
                                                  monkeypatch):
    # with no --out the config's out is the output directory
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, out="")
    assert main(["minimize", "--config", cfg]) == 2
    assert "config error: out: must not be empty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.yaml"]


def test_seed_takes_an_int_beyond_float_range():
    # the seed is read as an int, which numpy's generators take at any size
    cfg = ExperimentConfig.from_dict({**BASE, "seed": 10 ** 400})
    assert cfg.seed == 10 ** 400


def test_null_block_reads_as_its_defaults():
    # YAML reads an empty block as null
    cfg = ExperimentConfig.from_dict({**BASE, "solver": None,
                                      "analysis": None})
    default = ExperimentConfig.from_dict({**BASE, "solver": {},
                                          "analysis": {}})
    assert cfg.to_dict() == default.to_dict()


# ---------------------------------------------------------------------------
# subcommands


def test_minimize_emits_field_and_report(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_cli("minimize", cfg, out) == 0
    report = json.loads((out / "solve.json").read_text())
    assert report["solve"]["converged"]
    assert "config_sha256" in report
    assert "wall_time" not in report["solve"]  # volatile data stays out
    from vacmin.field import load_field
    u = load_field(str(out / "field.bin"))
    assert u.m == 2


def test_minimize_constant_boundary_trivial(tmp_path):
    cfg = write_cfg(tmp_path, boundary={"tag": "constant"})
    out = tmp_path / "out"
    assert run_cli("minimize", cfg, out) == 0
    report = json.loads((out / "solve.json").read_text())
    assert report["solve"]["energy"] == 0.0
    assert report["solve"]["iterations"] == 0


def test_every_subcommand_writes_strict_json_on_constant_data(tmp_path):
    # a zero field: zero energies have no log-log exponent, which must not
    # reach the JSON as NaN, a value strict parsers reject
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({
        "n": 2, "m": 2, "h": 0.2, "r_max": 3.0,
        "potential": {"family": "power", "zero": [0.0, 0.0], "q": 4},
        "boundary": {"tag": "constant"}}))
    out = tmp_path / "out"
    assert len(_COMMANDS) == 8
    for cmd in _COMMANDS:
        assert run_cli(cmd, str(path), out) == 0, cmd

    def reject(name):
        raise ValueError(f"non-finite number {name}")

    written = sorted(out.glob("*.json"))
    assert written
    for p in written:
        json.loads(p.read_text(), parse_constant=reject)
    rep = json.loads((out / "energy_profile.json").read_text())
    assert rep["diagnostic"]["fitted_exponent"] is None


def test_solver_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, solver={"tol": 1.0e-12, "max_iter": 3})
    assert run_cli("minimize", cfg, tmp_path / "out") == 3


def test_bootstrap_report(tmp_path):
    cfg = write_cfg(tmp_path, potential={"family": "quadratic",
                                         "zero": [0.0, 0.0]})
    out = tmp_path / "out"
    assert run_cli("bootstrap", cfg, out) == 0
    rep = json.loads((out / "bootstrap.json").read_text())
    assert rep["fixed_point"] == pytest.approx(0.5, abs=1e-12)
    assert rep["closed_form"] == pytest.approx(0.5)


def test_energy_profile_csv(tmp_path):
    cfg = write_cfg(tmp_path, analysis={"radii": [1.0, 1.5, 2.0, 2.5]})
    out = tmp_path / "out"
    assert run_cli("energy-profile", cfg, out) == 0
    lines = (out / "energy_profile.csv").read_text().strip().splitlines()
    assert lines[0] == "R,E,E_norm,E_norm_tau"
    assert len(lines) == 5
    rep = json.loads((out / "energy_profile.json").read_text())
    assert "diagnostic" in rep


def test_bad_discs_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_cli("bad-discs", cfg, out) == 0
    rep = json.loads((out / "bad_discs.json").read_text())
    assert len(rep["reports"]) == 2
    for r in rep["reports"]:
        assert r["offdisc_sup"] <= r["eps"]
    assert (out / "sphere_samples_0.csv").exists()


def test_bad_discs_rejects_radius_before_solving(tmp_path, capsys,
                                                 monkeypatch):
    # R = 1.5 is a valid profile radius (<= r_max = 3) but the good-radius
    # scan needs 2R + h <= r_max; the first radius alone would pass
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the radii")

    monkeypatch.setattr("vacmin.cli._solve", no_solve)
    cfg = write_cfg(tmp_path, analysis={"radii": [0.75, 1.5]})
    out = tmp_path / "out"
    assert run_cli("bad-discs", cfg, out) == 2
    assert "analysis.radii" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("potential,analysis,message", [
    (BASE["potential"], {"r": 0.6}, "need r in (0, r0/2)"),
    (BASE["potential"], {"r": 0.0}, "need r in (0, r0/2)"),
    ({"family": "anisotropic", "zero": [0.0, 0.0], "coeffs": [-1.0, 1.0],
      "powers": [2, 4]}, {}, "nondecreasing radial sections"),
])
def test_max_principle_rejects_bad_input_before_solving(
        tmp_path, capsys, monkeypatch, potential, analysis, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("read or solved before checking the input")

    for name in ("_solve", "minimize", "load_field"):
        monkeypatch.setattr(f"vacmin.cli.{name}", no_solve)
    cfg = write_cfg(tmp_path, potential=potential, analysis=analysis)
    out = tmp_path / "out"
    assert run_cli("max-principle", cfg, out) == 2
    err = capsys.readouterr().err
    assert message in err
    # the default r is in range, so a bad r is always a set analysis.r
    path = "analysis.r" if analysis else "potential"
    assert err.startswith(f"config error: {path}: ")
    assert not out.exists() or not any(out.iterdir())


def test_competitor_rejects_small_ball_before_solving(tmp_path, capsys,
                                                      monkeypatch):
    # the annulus competitor sits at s_r = r_max - 2h and needs
    # s_r >= 1 + 2h: 1.0 < 1.2 here
    def no_solve(*args, **kwargs):
        raise AssertionError("read or solved before checking r_max")

    for name in ("_solve", "minimize", "load_field"):
        monkeypatch.setattr(f"vacmin.cli.{name}", no_solve)
    cfg = write_cfg(tmp_path, r_max=1.2, analysis={"radii": [0.5, 1.0]})
    out = tmp_path / "out"
    assert run_cli("competitor", cfg, out) == 2
    assert capsys.readouterr().err.startswith("config error: r_max: ")
    assert not out.exists() or not any(out.iterdir())


def test_competitor_rejects_zero_magnitude_before_solving(tmp_path, capsys,
                                                         monkeypatch):
    # the truncation and shell competitors cap the modulus at |magnitude|,
    # which must be positive
    def no_solve(*args, **kwargs):
        raise AssertionError("read or solved before checking the magnitude")

    for name in ("_solve", "minimize", "load_field"):
        monkeypatch.setattr(f"vacmin.cli.{name}", no_solve)
    cfg = write_cfg(tmp_path, boundary={"tag": "angular", "magnitude": 0.0})
    out = tmp_path / "out"
    assert run_cli("competitor", cfg, out) == 2
    assert capsys.readouterr().err.startswith(
        "config error: boundary.magnitude: ")
    assert not out.exists() or not any(out.iterdir())


def test_competitor_caps_at_the_modulus_of_a_negative_magnitude(tmp_path):
    # magnitude -0.6 flips the data's sign; their modulus is still 0.6
    cfg = write_cfg(tmp_path, h=0.2, r_max=4.0,
                    boundary={"tag": "angular", "magnitude": -0.6})
    out = tmp_path / "out"
    assert run_cli("competitor", cfg, out) == 0
    reports = json.loads((out / "competitors.json").read_text())["reports"]
    assert [r["tag"] for r in reports] == ["annulus", "truncation",
                                           "constant-r-shell"]
    assert all(r["admissible"] for r in reports)
    assert reports[1]["params"]["r"] == 0.6


@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_min_truncation_reads_no_exterior_node(tmp_path, seed):
    # the exterior padding holds boundary-function values that no energy
    # reads; with these data the cube's max exceeds the interior and ring
    # max, which is the boundary sup, so the level is that sup and the
    # comparison is trivial
    cfg = write_cfg(tmp_path, m=1, r_max=2.0, seed=seed,
                    potential={"family": "quadratic", "zero": [0.0]},
                    boundary={"tag": "random"})
    out = tmp_path / "out"
    assert run_cli("competitor", cfg, out) == 0
    rep = json.loads((out / "competitors.json").read_text())["reports"][-1]
    u = load_field(str(out / "field.bin"))
    mask = u.grid.mask
    bsup = u.values[0][mask == BOUNDARY].max()
    assert u.values.max() > u.values[0][mask != EXTERIOR].max() == bsup
    assert rep["tag"] == "min-truncation"
    assert rep["params"]["level"] == bsup
    assert rep["difference"] == 0.0
    assert rep["note"] == ("interior never exceeds boundary; comparison is "
                           "trivial")


M1 = {"m": 1, "potential": {"family": "power", "zero": [0.0], "q": 4}}


@pytest.mark.parametrize("boundary,extra", [
    ({"tag": "angular", "magnitude": 0.6, "windings": 1}, {}),
    ({"tag": "angular", "magnitude": -0.6, "windings": 1}, {}),
    ({"tag": "angular", "magnitude": 0.6, "windings": 1}, M1),
    ({"tag": "radial-profile", "magnitude": 0.3}, {}),
    ({"tag": "radial-profile", "magnitude": -0.3}, {}),
    ({"tag": "random", "magnitude": 2.0}, {}),
], ids=["angular", "angular-negative", "angular-m1", "radial-profile",
        "radial-profile-negative", "random"])
def test_max_principle_rejects_data_beyond_r_before_solving(
        tmp_path, capsys, monkeypatch, boundary, extra):
    # the data's modulus on the boundary nodes exceeds the default
    # r = r0/4 = 0.25 (a negative magnitude flips the data's sign, not its
    # modulus), so the command stops before it reads, solves or writes
    def no_solve(*args, **kwargs):
        raise AssertionError("read or solved before checking the data")

    for name in ("_solve", "minimize", "load_field"):
        monkeypatch.setattr(f"vacmin.cli.{name}", no_solve)
    cfg = write_cfg(tmp_path, boundary=boundary, **extra)
    out = tmp_path / "out"
    assert run_cli("max-principle", cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: boundary.magnitude: boundary data "
                          "exceeds r: sup |g - zero| = ")
    assert err.rstrip().endswith("> 0.25")
    assert not out.exists() or not any(out.iterdir())


def test_max_principle_checks_the_data_not_the_magnitude(tmp_path):
    # random data stay below their magnitude, here under r = 0.25 although
    # the magnitude is not: the check reads the data on the boundary nodes
    cfg = write_cfg(tmp_path, boundary={"tag": "random", "magnitude": 0.3})
    c = ExperimentConfig.from_yaml(cfg)
    grid, pot = c.make_grid(), c.make_potential()
    g = VectorField.from_function(grid, random_smooth(pot, 0.3, seed=c.seed),
                                  m=pot.m)
    assert boundary_within(g, pot.zero, 0.25) <= 0.25
    out = tmp_path / "out"
    assert run_cli("max-principle", cfg, out) in (0, 4)
    report = json.loads((out / "max_principle.json").read_text())
    assert report["verdict"]["boundary_sup"] <= 0.25


def test_monotonicity_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, analysis={"radii": [0.5, 1.0, 1.5, 2.0, 2.5]})
    out = tmp_path / "out"
    assert run_cli("monotonicity", cfg, out) == 0
    rep = json.loads((out / "monotonicity.json").read_text())
    assert rep["monotonicity"]["weak_violations"] == []


def test_competitor_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_cli("competitor", cfg, out) == 0
    rep = json.loads((out / "competitors.json").read_text())
    dq = rep["delta_q"]
    for r in rep["reports"]:
        if r["admissible"]:
            assert r["difference"] >= -dq


def test_max_principle_subcommand(tmp_path):
    cfg = write_cfg(tmp_path,
                    boundary={"tag": "random", "magnitude": 0.25, "seed": 5},
                    analysis={"r": 0.25},
                    solver={"tol": 1.0e-6, "max_iter": 40000})
    out = tmp_path / "out"
    assert run_cli("max-principle", cfg, out) == 0
    rep = json.loads((out / "max_principle.json").read_text())
    assert rep["verdict"]["holds"]


def test_verify_potential_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_cli("verify-potential", cfg, out) == 0
    rep = json.loads((out / "potential_assumptions.json").read_text())
    assert rep["positive_ok"] and rep["lower_bound_ok"]
    # invalid potential reports failure through the exit code
    bad = write_cfg(tmp_path, name="bad.yaml",
                    potential={"family": "anisotropic", "zero": [0.0, 0.0],
                               "coeffs": [-1.0, 1.0], "powers": [2, 4]})
    assert run_cli("verify-potential", bad, tmp_path / "out2") == 4


def test_seed_override_changes_hash(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("bootstrap", cfg, out1) == 0
    assert run_cli("bootstrap", cfg, out2, "--seed", "99") == 0
    h1 = json.loads((out1 / "bootstrap.json").read_text())["config_sha256"]
    h2 = json.loads((out2 / "bootstrap.json").read_text())["config_sha256"]
    assert h1 != h2


# ---------------------------------------------------------------------------
# determinism


def _tree_digest(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def test_radial_profile_minimize_converges_and_reruns_identically(tmp_path):
    cfg = write_cfg(tmp_path, boundary={"tag": "radial-profile",
                                        "magnitude": 0.6,
                                        "direction": [1.0, 1.0]})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("minimize", cfg, out1) == 0
    assert run_cli("minimize", cfg, out2) == 0
    assert json.loads((out1 / "solve.json").read_text())["solve"]["converged"]
    assert _tree_digest(out1) == _tree_digest(out2)


@pytest.mark.parametrize("cmd", ["minimize", "energy-profile", "bad-discs",
                                 "competitor"])
def test_rerun_is_byte_identical(tmp_path, cmd):
    cfg = write_cfg(tmp_path, analysis={"radii": [0.75, 1.25]})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(cmd, cfg, out1) == 0
    assert run_cli(cmd, cfg, out2) == 0
    assert _tree_digest(out1) == _tree_digest(out2)


def run_cli_subprocess(cmd, cfg_path, out_dir, **env):
    """Run the CLI in a fresh interpreter that imports the vacmin under
    test, in this environment updated by ``env`` (None unsets a name)."""
    r = subprocess.run(
        [sys.executable, "-m", "vacmin.cli", cmd,
         "--config", cfg_path, "--out", str(out_dir)],
        capture_output=True, text=True, env=vacmin_env(**env))
    assert r.returncode == 0, r.stderr


def test_rerun_byte_identical_subprocess(tmp_path):
    # separate interpreter runs, same artifacts
    cfg = write_cfg(tmp_path)
    outs = []
    for name in ("s1", "s2"):
        run_cli_subprocess("minimize", cfg, tmp_path / name)
        outs.append(_tree_digest(tmp_path / name))
    assert outs[0] == outs[1]


def run_under_blas_threads(cmd, cfg_path, tmp_path):
    """The out directories of ``cmd`` run with the default BLAS thread
    count and with one thread."""
    outs = [tmp_path / "default", tmp_path / "one"]
    for out, threads in zip(outs, (None, "1")):
        run_cli_subprocess(cmd, cfg_path, out, OPENBLAS_NUM_THREADS=threads)
    return outs


def test_minimize_independent_of_blas_threads(tmp_path):
    # the solver's reductions are single-threaded numpy, so the BLAS thread
    # count cannot change an iterate; r_max=4 makes the arrays large enough
    # for a threaded BLAS reduction to split them
    cfg = write_cfg(tmp_path, r_max=4.0)
    outs = run_under_blas_threads("minimize", cfg, tmp_path)
    for name in ("field.bin", "solve.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_minimize_3d_independent_of_blas_threads(tmp_path):
    # the multigrid preconditioner makes no BLAS call, so the thread count
    # cannot change an iterate
    cfg = write_cfg(tmp_path, n=3, h=0.2, r_max=4.0,
                    solver={"tol": 1.0e-6})
    outs = run_under_blas_threads("minimize", cfg, tmp_path)
    report = json.loads((outs[0] / "solve.json").read_text())["solve"]
    assert report["converged"]
    for name in ("field.bin", "solve.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_bad_discs_independent_of_blas_threads(tmp_path):
    # the covering's cosines and sums are numpy loops, not BLAS calls, so
    # the thread count cannot move a center or a covered flag
    cfg = write_cfg(tmp_path, r_max=4.0,
                    analysis={"radii": [0.75, 1.25], "eps": 0.005,
                              "sphere_points": 2048})
    outs = run_under_blas_threads("bad-discs", cfg, tmp_path)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["bad_discs.json", "field.bin", "field.bin.json",
                     "solve.json", "sphere_samples_0.csv",
                     "sphere_samples_1.csv"]
    reports = json.loads((outs[0] / "bad_discs.json").read_text())["reports"]
    assert all(r["count"] > 0 for r in reports)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("cmd", ["bad-discs", "monotonicity", "competitor",
                                 "minimize", "energy-profile",
                                 "max-principle"])
def test_unconverged_solve_says_why(tmp_path, capsys, cmd):
    # with r = 0.6, max-principle solves the config's own data (magnitude
    # 0.6) here
    cfg = write_cfg(tmp_path, solver={"max_iter": 3}, **EXPERIMENT)
    out = tmp_path / "out"
    assert run_cli(cmd, cfg, out) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"{cmd}: solve did not converge: iterations=3 ")
    assert "residual=" in err[0] and "tol=1e-05" in err[0]
    # the unconverged solve is saved as minimize saves it
    assert sorted(p.name for p in out.iterdir()) == [
        "field.bin", "field.bin.json", "solve.json"]
    assert json.loads((out / "solve.json").read_text())["solve"][
        "converged"] is False


def test_unconverged_solve_of_default_data_leaves_no_field(tmp_path, capsys):
    # without boundary.magnitude, max-principle solves data of magnitude
    # analysis.r, which is not the config's own and is not saved
    cfg = write_cfg(tmp_path, boundary={"tag": "angular", "windings": 1},
                    solver={"max_iter": 3})
    out = tmp_path / "out"
    assert run_cli("max-principle", cfg, out) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("max-principle: solve did not converge: ")
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# one solve per experiment

# boundary.magnitude is set, so max-principle reads the saved field too
EXPERIMENT = {"potential": {"family": "power", "zero": [0.0, 0.0], "q": 4,
                            "monot_radius": 2.0},
              "analysis": {"r": 0.6}}


def count_solves(monkeypatch):
    import vacmin.cli
    calls = []
    solve = vacmin.cli.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr("vacmin.cli.minimize", counted)
    return calls


def test_experiment_solves_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, **EXPERIMENT)
    out = tmp_path / "experiment"
    calls = count_solves(monkeypatch)
    for cmd in _COMMANDS:
        assert run_cli(cmd, cfg, out) == 0, cmd
    assert len(calls) == 1
    side = json.loads((out / "field.bin.json").read_text())
    report = json.loads((out / "solve.json").read_text())
    assert len(side["solve_sha256"]) == 64 and "config_sha256" not in side
    assert side["solve"] == report["solve"]
    # each subcommand alone solves for itself and writes the same bytes
    tree = _tree_digest(out)
    for cmd in list(_COMMANDS)[1:]:
        alone = tmp_path / cmd
        assert run_cli(cmd, cfg, alone) == 0, cmd
        for name, digest in _tree_digest(alone).items():
            assert tree.get(name) == digest, (cmd, name)


@pytest.mark.parametrize("spoil", ["foreign", "pre-change", "flipped-byte",
                                   "unknown-solve-key"])
def test_unusable_saved_field_is_solved_again(tmp_path, monkeypatch, spoil):
    cfg = write_cfg(tmp_path)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert run_cli("energy-profile", cfg, fresh) == 0
    if spoil == "foreign":
        # its sidecar carries the sha256 of the solve with seed 99
        assert run_cli("minimize", cfg, out, "--seed", "99") == 0
    else:
        assert run_cli("minimize", cfg, out) == 0
        side_path = out / "field.bin.json"
        side = json.loads(side_path.read_text())
        if spoil == "pre-change":
            del side["solve_sha256"], side["solve"]
        elif spoil == "unknown-solve-key":
            side["solve"]["iterations_total"] = side["solve"]["iterations"]
        else:
            blob = bytearray((out / "field.bin").read_bytes())
            blob[-1] ^= 1
            (out / "field.bin").write_bytes(bytes(blob))
        side_path.write_text(json.dumps(side))
    calls = count_solves(monkeypatch)
    assert run_cli("energy-profile", cfg, out) == 0
    assert len(calls) == 1
    assert _tree_digest(out) == _tree_digest(fresh)


def test_source_digest_covers_every_module(tmp_path):
    # the digest of a copy of the package is the one the key hashes, and
    # one comment line in a module outside the solver changes it
    import vacmin.cli
    copy = tmp_path / "vacmin"
    shutil.copytree(os.path.dirname(vacmin.cli.__file__), copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert _source_sha256(str(copy)) == vacmin.cli.SOURCE_SHA256
    with open(copy / "boundary.py", "a") as f:
        f.write("# a comment\n")
    assert _source_sha256(str(copy)) != vacmin.cli.SOURCE_SHA256


@pytest.mark.parametrize("saved_by", ["unversioned", "older-solver"])
def test_field_of_another_solver_is_solved_again(tmp_path, monkeypatch,
                                                 saved_by):
    # the key hashes the digest of vacmin's source with the solve inputs,
    # so a field saved under a key without it, or by other source, is
    # solved again, and the result is what a fresh directory gets
    import vacmin.cli
    cfg = write_cfg(tmp_path)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert run_cli("energy-profile", cfg, fresh) == 0
    if saved_by == "older-solver":
        monkeypatch.setattr(vacmin.cli, "SOURCE_SHA256",
                            hashlib.sha256(b"older source").hexdigest())
    assert run_cli("minimize", cfg, out) == 0
    monkeypatch.undo()
    if saved_by == "unversioned":
        c = ExperimentConfig.from_yaml(cfg)
        inputs = {"n": c.n, "m": c.m, "h": c.h, "r_max": c.r_max,
                  "potential": c.potential,
                  "boundary": {"seed": c.seed, **c.boundary},
                  "solver": c.solver}
        side_path = out / "field.bin.json"
        side = json.loads(side_path.read_text())
        side["solve_sha256"] = hashlib.sha256(
            json.dumps(inputs, sort_keys=True).encode()).hexdigest()
        side_path.write_text(json.dumps(side))
    calls = count_solves(monkeypatch)
    assert run_cli("energy-profile", cfg, out) == 0
    assert len(calls) == 1
    assert _tree_digest(out) == _tree_digest(fresh)
    assert run_cli("energy-profile", cfg, out) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("edit", ["numpy", "simd_baseline", "blas"])
def test_field_saved_under_another_numpy_build_is_solved_again(
        tmp_path, monkeypatch, edit):
    # the key hashes numpy's version, SIMD baseline and BLAS with the solve
    # inputs, and the sidecar records them: a field saved under a build
    # that differs in any one of them is solved again, and the result is
    # what a fresh directory gets
    import vacmin.cli
    build = vacmin.cli.NUMPY_BUILD
    assert sorted(build) == ["blas", "numpy", "simd_baseline"]
    cfg = write_cfg(tmp_path)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert run_cli("energy-profile", cfg, fresh) == 0
    assert json.loads((fresh / "field.bin.json").read_text())[
        "build"] == build
    other = {**build, edit: ["another", "build"]}
    monkeypatch.setattr(vacmin.cli, "NUMPY_BUILD", other)
    assert run_cli("minimize", cfg, out) == 0
    monkeypatch.undo()
    side = json.loads((out / "field.bin.json").read_text())
    assert side["build"] == other
    calls = count_solves(monkeypatch)
    assert run_cli("energy-profile", cfg, out) == 0
    assert len(calls) == 1
    assert _tree_digest(out) == _tree_digest(fresh)
    assert run_cli("energy-profile", cfg, out) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("cmd,module,name,exc", [
    ("bad-discs", "discs", "bad_disc_pipeline", "ClearingOutViolated"),
    ("monotonicity", "monotonicity", "monotone_quantities", "NotASolution"),
])
def test_invariant_violation_in_a_subcommand_exits_4(
        tmp_path, capsys, monkeypatch, cmd, module, name, exc):
    # both exceptions derive from InvariantViolation, which main catches
    # before ValueError (NotASolution is one)
    import importlib

    from vacmin.field import InvariantViolation
    mod = importlib.import_module(f"vacmin.{module}")
    error = getattr(mod, exc)
    assert issubclass(error, InvariantViolation)

    def violated(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(mod, name, violated)
    assert run_cli(cmd, write_cfg(tmp_path), tmp_path / "out") == 4
    assert capsys.readouterr().err == "invariant violation: planted\n"


def test_saved_unconverged_field_exits_3(tmp_path, capsys, monkeypatch):
    # a saved field whose sidecar records an unconverged solve is read, not
    # solved again, and fails as a fresh unconverged solve does
    cfg = write_cfg(tmp_path, solver={"max_iter": 3})
    out = tmp_path / "out"
    assert run_cli("minimize", cfg, out) == 3
    capsys.readouterr()
    calls = count_solves(monkeypatch)
    assert run_cli("energy-profile", cfg, out) == 3
    assert len(calls) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("energy-profile: solve did not converge: "
                             "iterations=3 ")
    assert sorted(p.name for p in out.iterdir()) == [
        "field.bin", "field.bin.json", "solve.json"]


@pytest.mark.parametrize("overrides,solves", [
    ({"h": 0.15}, 1),
    ({"r_max": 2.5}, 1),
    ({"potential": {"family": "power", "zero": [0.0, 0.0], "q": 6}}, 1),
    ({"boundary": {"tag": "angular", "magnitude": 0.6, "windings": 2}}, 1),
    ({"solver": {"tol": 1.0e-6}}, 1),
    ({"seed": 4}, 1),
    # the solve reads no analysis key and not the config's out
    ({"analysis": {"radii": [0.5, 1.0, 1.5]}}, 0),
    ({"analysis": {"eps": 0.05}}, 0),
    ({"out": "elsewhere"}, 0),
], ids=["h", "r_max", "potential.q", "boundary.windings", "solver.tol",
        "seed", "analysis.radii", "analysis.eps", "out"])
def test_saved_field_is_keyed_by_the_solve_inputs(tmp_path, monkeypatch,
                                                  overrides, solves):
    out = tmp_path / "out"
    assert run_cli("minimize", write_cfg(tmp_path), out) == 0
    edited = write_cfg(tmp_path, name="edited.yaml", **overrides)
    calls = count_solves(monkeypatch)
    assert run_cli("energy-profile", edited, out) == 0
    assert len(calls) == solves


def test_max_principle_reads_a_field_of_its_own_data(tmp_path, monkeypatch):
    # without boundary.magnitude, max-principle solves data of magnitude
    # analysis.r: a saved field of exactly those data is read, and a solve
    # of other data is not saved over it
    own = write_cfg(tmp_path, **EXPERIMENT)
    out = tmp_path / "out"
    assert run_cli("minimize", own, out) == 0
    assert run_cli("max-principle", own, tmp_path / "own") == 0
    saved = {name: (out / name).read_bytes()
             for name in ("field.bin", "field.bin.json", "solve.json")}
    calls = count_solves(monkeypatch)
    unset = {"tag": "angular", "windings": 1}
    same = write_cfg(tmp_path, name="same.yaml", **EXPERIMENT, boundary=unset)
    assert run_cli("max-principle", same, out) == 0
    assert len(calls) == 0

    def verdict(root):
        return json.loads((root / "max_principle.json").read_text())["verdict"]

    assert verdict(out) == verdict(tmp_path / "own")
    other = write_cfg(tmp_path, name="other.yaml", boundary=unset,
                      **{**EXPERIMENT, "analysis": {"r": 0.5}})
    assert run_cli("max-principle", other, out) == 0
    assert len(calls) == 1
    assert verdict(out)["r"] == 0.5
    for name, blob in saved.items():
        assert (out / name).read_bytes() == blob, name


def test_only_the_cli_calls_minimize():
    import ast
    import inspect
    import pathlib

    import vacmin
    from vacmin.competitor import max_principle_check

    callers = []
    for path in sorted(pathlib.Path(vacmin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "minimize" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                callers.append(path.name)
    assert set(callers) == {"cli.py"}
    params = inspect.signature(max_principle_check).parameters
    assert "tol" not in params and "max_iter" not in params
