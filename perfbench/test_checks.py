"""The benchmark's output checks accept real outputs and reject corrupted ones.

Each case in the ``*_CASES`` tables corrupts one output of a real run in one
way and names the check that must reject it. ``test_every_check_can_fail``
keeps the tables complete: a check with no corruption case would be a check
that was never seen to fail.

Run:  python -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
import shutil
import struct

import numpy as np
import pytest
import yaml

import checks
import run

run.import_vacmin()

from vacmin import monotonicity  # noqa: E402

# a coarse version of the solve-3d config: same potential, data and tol,
# large enough for the analysis-3d radii, small enough to solve in a second
SMALL_3D = {**run.SOLVE_3D, "h": 0.4}


def _write_config(path, cfg):
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    return path


@pytest.fixture(scope="module")
def solved3d(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("solve3d"))
    cfg = _write_config(os.path.join(out, "config.yaml"),
                        {**SMALL_3D, "out": out})
    assert run.cli(["minimize", "--config", cfg, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def experiment2d(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("experiment2d"))
    cfg = _write_config(os.path.join(out, "config.yaml"),
                        run.config_for("experiment-2d", 0, out))
    work = os.path.join(out, "job")
    for cmd in run.EXPERIMENT_COMMANDS:
        assert run.cli([cmd, "--config", cfg, "--out", work]) == 0, cmd
    return work


@pytest.fixture(scope="module")
def analysis(solved3d):
    bench = run.Analysis3D(0, solved3d)
    assert bench.setup_fails == []
    res, rc = bench.job(0)
    assert rc == 0
    return bench, res


def _names(fails):
    return {f.split(":")[0] for f in fails}


# ---------------------------------------------------------------------------
# corruption helpers


def _copy(src, tmp_path):
    dst = str(tmp_path / "out")
    shutil.copytree(src, dst)
    return dst


def _rewrite_field(out, fn, update_sidecar=True):
    """Apply fn to the field values in out/field.bin, keeping the header."""
    path = os.path.join(out, "field.bin")
    fld = checks.read_field(path)
    values = fn(fld, fld.values.copy())
    payload = np.moveaxis(values, 0, -1).astype("<f8").tobytes(order="C")
    with open(path, "rb") as f:
        header = f.read(struct.calcsize(checks._HEADER))
    with open(path, "wb") as f:
        f.write(header + payload)
    if update_sidecar:
        with open(path + ".json") as f:
            side = json.load(f)
        side["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        with open(path + ".json", "w") as f:
            json.dump(side, f)


def _edit_json(out, name, fn):
    path = os.path.join(out, name)
    with open(path) as f:
        rec = json.load(f)
    fn(rec)
    with open(path, "w") as f:
        json.dump(rec, f)


def _edit_csv(out, name, fn):
    path = os.path.join(out, name)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    fn(rows)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _interior_node(fld, values):
    idx = tuple(np.argwhere(fld.interior)[len(np.argwhere(fld.interior)) // 3])
    values[(0,) + idx] += 1e-3
    return values


def _boundary_node(fld, values):
    values[(1,) + tuple(np.argwhere(fld.boundary)[0])] += 1e-6
    return values


# ---------------------------------------------------------------------------
# cases: check expected to reject -> corruption of a real output


def check_minimize(out):
    return checks.check_minimize_output(out, run.Q, run.MAGNITUDE, run.TOL)


def check_experiment(out):
    return checks.check_experiment_output(
        out, run.EXPERIMENT_2D["analysis"]["eps"], run.MAGNITUDE)


def _to_ramp(out):
    def ramp(fld, values):
        return checks.ramp_field(fld, run.MAGNITUDE)
    _rewrite_field(out, ramp)
    fld = checks.read_field(os.path.join(out, "field.bin"))
    energy = checks.edge_energy(fld, fld.values,
                                lambda v: checks.power_w(v, run.Q))
    _edit_json(out, "solve.json",
               lambda r: r["solve"].update(energy=energy))


def _flip_hot_to_uncovered(rows):
    hot = next(r for r in rows if r["covered"] == "1"
               and float(r["e"]) > run.EXPERIMENT_2D["analysis"]["eps"])
    hot["covered"] = "0"


def _mark_cold_covered(rows):
    cold = next(r for r in rows if r["covered"] == "0")
    cold["covered"] = "1"


def _zero_values(rows):
    for r in rows:
        r["e"] = "0.0"


def _weak_drop(rows):
    rows[-1]["f_weak_norm"] = repr(float(rows[0]["f_weak_norm"]) / 2.0)


def _lower_competitor(rec):
    r = rec["reports"][0]
    r["energy_competitor"] = r["energy_u"] - 1.0


def _change_one_byte(out):
    path = os.path.join(out, "energy_profile.csv")
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    blob[-2] = ord("0") if blob[-2] != ord("0") else ord("1")
    with open(path, "wb") as f:
        f.write(bytes(blob))


MINIMIZE_CASES = {
    "field_sha256": lambda out: _rewrite_field(out, _interior_node,
                                               update_sidecar=False),
    "el_residual": lambda out: _rewrite_field(out, _interior_node),
    "boundary_data": lambda out: _rewrite_field(out, _boundary_node),
    "energy_matches_report": lambda out: _edit_json(
        out, "solve.json",
        lambda r: r["solve"].update(energy=r["solve"]["energy"] * 1.01)),
    "energy_below_ramp": _to_ramp,
}

EXPERIMENT_CASES = {
    "bessel_closed_form": lambda out: _rewrite_field(
        out, lambda fld, v: 1.1 * v),
    "bootstrap_fixed_point": lambda out: _edit_json(
        out, "bootstrap.json", lambda r: r.update(fixed_point=0.5 + 1e-9)),
    "competitors_not_below": lambda out: _edit_json(
        out, "competitors.json", _lower_competitor),
    "uncovered_below_eps": lambda out: _edit_csv(
        out, "sphere_samples_2.csv", _flip_hot_to_uncovered),
    "covered_is_disc_union": lambda out: _edit_csv(
        out, "sphere_samples_0.csv", _mark_cold_covered),
    "center_ball_energy": lambda out: _edit_csv(
        out, "sphere_samples_2.csv", _zero_values),
    "weak_nondecreasing": lambda out: _edit_csv(
        out, "monotonicity.csv", _weak_drop),
}


def _drop_last(seq):
    seq[-1] = seq[0] - 1.0


ANALYSIS_CASES = {
    "monotone_within_tol": lambda res: _drop_last(res[1].weak),
    "competitors_not_below": lambda res: setattr(
        res[3][0], "energy_competitor", res[3][0].energy_u - 1.0),
    "profile_nondecreasing": lambda res: res[4].energies.reverse(),
    "comparison_above": lambda res: res.__setitem__(5, res[4].energies[0]),
    "uncovered_below_eps": lambda res: res[0][0].covered.__setitem__(
        int(np.argmax(res[0][0].values)), False),
    "center_ball_energy": lambda res: res[0][0].values.__imul__(0.0),
}


def test_minimize_output_passes(solved3d):
    assert check_minimize(solved3d) == []


@pytest.mark.parametrize("name", sorted(MINIMIZE_CASES))
def test_minimize_corruption_rejected(solved3d, tmp_path, name):
    out = _copy(solved3d, tmp_path)
    MINIMIZE_CASES[name](out)
    assert name in _names(check_minimize(out))


def test_experiment_output_passes(experiment2d):
    assert check_experiment(experiment2d) == []


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CASES))
def test_experiment_corruption_rejected(experiment2d, tmp_path, name):
    out = _copy(experiment2d, tmp_path)
    EXPERIMENT_CASES[name](out)
    assert name in _names(check_experiment(out))


def test_artifacts_identical_rejects_one_byte(experiment2d, tmp_path):
    reference = checks.file_digests(experiment2d)
    out = _copy(experiment2d, tmp_path)
    assert checks.check_identical(checks.file_digests(out), reference) == []
    _change_one_byte(out)
    fails = checks.check_identical(checks.file_digests(out), reference)
    assert "artifacts_identical" in _names(fails)


def test_volatile_record_is_skipped(experiment2d, tmp_path):
    reference = checks.file_digests(experiment2d)
    out = _copy(experiment2d, tmp_path)
    with open(os.path.join(out, "run.json"), "w") as f:
        json.dump({"volatile": True, "wall_time": 1.0}, f)
    assert checks.check_identical(checks.file_digests(out), reference) == []


def test_analysis_output_passes(analysis):
    bench, res = analysis
    assert bench.check(0, res) == []


@pytest.mark.parametrize("name", sorted(ANALYSIS_CASES))
def test_analysis_corruption_rejected(analysis, name):
    bench, res = analysis
    bad = list(copy.deepcopy(res))
    ANALYSIS_CASES[name](bad)
    assert name in _names(bench.check(0, tuple(bad)))


def test_trace_identity_rejects_perturbed_tensor(analysis, monkeypatch):
    bench, res = analysis
    real = monotonicity.stress_tensor

    def perturbed(u, pot):
        t = real(u, pot)
        t.values[0, 0, 3, 3, 3] += 1e-6
        return t

    monkeypatch.setattr(monotonicity, "stress_tensor", perturbed)
    assert "stress_trace_identity" in _names(bench.check(0, res))


def test_every_check_can_fail():
    covered = (set(MINIMIZE_CASES) | set(EXPERIMENT_CASES)
               | set(ANALYSIS_CASES)
               | {"artifacts_identical", "stress_trace_identity"})
    assert covered == set(checks.CHECKS)


def test_read_field_matches_program(solved3d):
    """The benchmark's reader and mask agree with vacmin's own."""
    from vacmin.field import INTERIOR, load_field
    fld = checks.read_field(os.path.join(solved3d, "field.bin"))
    u = load_field(os.path.join(solved3d, "field.bin"))
    assert np.array_equal(fld.values, u.values)
    assert np.array_equal(fld.interior, u.grid.mask == INTERIOR)
    assert np.array_equal(fld.boundary, u.grid.mask == 2)


def test_benchmark_json_lists_measured_metrics():
    """Every metric BENCHMARK.json declares is one run.py measures, in the
    unit run.py gives it, and every declared workload exists."""
    import tracing
    with open(run.SPEC) as f:
        spec = json.load(f)
    layer = (set(tracing.job_layer_metrics([], 0))
             | set(tracing.per_call_ms([])) | {"trace.overhead_ratio"})
    assert {m["name"] for m in spec["per_layer"]} <= layer
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit(m["name"]), m["name"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
