"""vacmin benchmark: one named workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. The
seed reaches the program only through the generated experiment config.

Set-up is measured in fresh processes (this file with ``--setup-probe``):
the time from process start to the point where the first job could run,
taken three times, median reported. Jobs then run back to back in this
process until ``--seconds`` have passed, each checked by ``checks.py``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics from spans recorded by
``tracing.py`` on every other job (the jobs between run untraced and give
``trace.overhead_ratio``). Everything else a run produces goes to
``perfbench/out/``: the environment record, per-job timings and, when
traced, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3

MAGNITUDE = 0.6
TOL = 1e-6
Q = 4
SOLVE_3D = {
    "n": 3, "m": 2, "h": 0.2, "r_max": 4.0,
    "potential": {"family": "power", "zero": [0.0, 0.0], "q": Q},
    "boundary": {"tag": "angular", "magnitude": MAGNITUDE, "windings": 1},
    "solver": {"tol": TOL, "max_iter": 50_000},
}
EXPERIMENT_2D = {
    "n": 2, "m": 2, "h": 0.1, "r_max": 6.0,
    "potential": {"family": "quadratic", "zero": [0.0, 0.0],
                  "monot_radius": 2.0},
    "boundary": {"tag": "angular", "magnitude": MAGNITUDE, "windings": 1},
    "solver": {"tol": TOL, "max_iter": 50_000},
    "analysis": {"radii": [2.0, 2.25, 2.9], "eps": 3e-4, "r": 0.6},
}
EXPERIMENT_COMMANDS = ("minimize", "energy-profile", "bad-discs",
                       "monotonicity", "max-principle", "competitor",
                       "bootstrap", "verify-potential")

# analysis-3d: the covering at three base radii, eps chosen so that every
# radius places discs (10, 20 and 36 centers), K = 4096 sphere points
COVER_RADII = (1.0, 1.4, 1.8)
COVER_EPS = 0.01
COVER_K = 4096
MONO_RADII = tuple(0.5 * k for k in range(1, 8))
PROFILE_RADII = tuple(0.5 * k for k in range(1, 9))
POHOZAEV_R = 3.0
COMPARISON_R = 3.5
C_M = 1.0

def config_for(workload: str, seed: int, out: str) -> dict:
    base = EXPERIMENT_2D if workload == "experiment-2d" else SOLVE_3D
    return {**base, "out": out, "seed": int(seed)}


def import_vacmin() -> None:
    """Import the program from this checkout's ``src/``, nowhere else."""
    sys.path.insert(0, SRC)
    import vacmin
    import vacmin.cli  # noqa: F401 - imports every layer
    where = os.path.realpath(os.path.dirname(vacmin.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"vacmin imported from {where}, not {SRC}")


def write_config(workload: str, seed: int, run_dir: str) -> str:
    import yaml
    path = os.path.join(run_dir, "config.yaml")
    with open(path, "w") as f:
        yaml.safe_dump(config_for(workload, seed, run_dir), f)
    return path


def cli(argv) -> int:
    """vacmin's CLI in this process, its progress lines swallowed."""
    import vacmin.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return vacmin.cli.main(argv)


def setup_probe(workload: str, seed: int, run_dir: str) -> None:
    """Everything a run does before its first job; prints 'ready' then."""
    import_vacmin()
    cfg = write_config(workload, seed, run_dir)
    if workload == "analysis-3d":
        rc = cli(["minimize", "--config", cfg, "--out", run_dir])
        if rc != 0:
            raise SystemExit(f"set-up solve exited {rc}")
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, run_dir: str) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               run_dir, "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait()
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# workloads: set-up in this process, one job, its checks


class Solve3D:
    def __init__(self, seed, run_dir):
        self.cfg = write_config("solve-3d", seed, run_dir)
        self.run_dir = run_dir

    def job(self, i):
        out = os.path.join(self.run_dir, f"job-{i}")
        return out, cli(["minimize", "--config", self.cfg, "--out", out])

    def check(self, i, out):
        try:
            return checks.check_minimize_output(out, Q, MAGNITUDE, TOL)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Experiment2D:
    def __init__(self, seed, run_dir):
        self.cfg = write_config("experiment-2d", seed, run_dir)
        self.run_dir = run_dir
        self.reference = None

    def job(self, i):
        out = os.path.join(self.run_dir, f"job-{i}")
        for cmd in EXPERIMENT_COMMANDS:
            rc = cli([cmd, "--config", self.cfg, "--out", out])
            if rc != 0:
                return out, rc
        return out, 0

    def check(self, i, out):
        try:
            fails = checks.check_experiment_output(
                out, EXPERIMENT_2D["analysis"]["eps"], MAGNITUDE)
            digests = checks.file_digests(out)
            if self.reference is None:
                self.reference = digests
            return fails + checks.check_identical(digests, self.reference)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Analysis3D:
    """Set-up solves once (in the probes); jobs analyse that field."""

    def __init__(self, seed, run_dir):
        from vacmin import config, field
        cfg = write_config("analysis-3d", seed, run_dir)
        self.setup_fails = checks.check_minimize_output(
            run_dir, Q, MAGNITUDE, TOL)
        self.u = field.load_field(os.path.join(run_dir, "field.bin"))
        self.pot = config.ExperimentConfig.from_yaml(cfg).make_potential()
        fld = checks.read_field(os.path.join(run_dir, "field.bin"))
        self.energy = checks.edge_energy(
            fld, fld.values, lambda v: checks.power_w(v, Q))
        self.delta_q = checks.quadrature_slack(
            fld.h, 4.0 / 3.0 * math.pi * fld.r_max ** 3)
        self.w = checks.power_w(fld.values, Q)

    def job(self, i):
        from vacmin import competitor, discs, field, growth, monotonicity
        u, pot = self.u, self.pot
        e = field.energy_density(u, pot)
        covers = [discs.bad_disc_pipeline(e, r, COVER_EPS, K=COVER_K)
                  for r in COVER_RADII]
        mono = monotonicity.monotone_quantities(u, pot, MONO_RADII, c_m=C_M)
        poho = monotonicity.pohozaev_balance(u, pot, POHOZAEV_R)
        suite = competitor.standard_suite(u, pot, MAGNITUDE)
        prof = growth.energy_profile(u, pot, PROFILE_RADII)
        bound = growth.comparison_bound(u, pot, COMPARISON_R)
        return (covers, mono, poho, suite, prof, bound), 0

    def check(self, i, res):
        from vacmin import monotonicity
        covers, mono, _, suite, prof, bound = res
        fails = []
        for c in covers:
            fails += checks.check_uncovered(c.values, c.covered, c.eps)
            fails += checks.check_disc_union(c.points, c.covered, c.centers,
                                             c.good_radius)
            fails += checks.check_center_energy(c.points, c.values, c.centers,
                                                c.good_radius, c.mu)
        tol = C_M * self.u.grid.h
        seqs = [mono.weak] + ([mono.strong_f, mono.strong_e]
                              if mono.strong_applicable else [])
        for seq in seqs:
            fails += checks.check_monotone(seq, tol, "monotone_within_tol")
        tensor = monotonicity.stress_tensor(self.u, self.pot).values
        fails += checks.check_trace_identity(tensor, self.u.values,
                                             self.u.grid.h, self.w)
        fails += checks.check_competitors([r.to_dict() for r in suite],
                                          self.energy, self.delta_q)
        fails += checks.check_monotone(prof.energies, 0.0,
                                       "profile_nondecreasing")
        e_r = prof.energies[PROFILE_RADII.index(COMPARISON_R)]
        return fails + checks.check_comparison(bound, e_r, self.delta_q)


WORKLOADS = {"solve-3d": Solve3D, "experiment-2d": Experiment2D,
             "analysis-3d": Analysis3D}


# ---------------------------------------------------------------------------
# environment record


def openblas_runtime():
    """(config string, thread count) of the loaded OpenBLAS, if found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f
                           if "openblas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        # numpy's wheels prefix and suffix the symbols; a system build does not
        for pre, suf in (("scipy_", "64_"), ("", "")):
            threads = getattr(lib, f"{pre}openblas_get_num_threads{suf}", None)
            config = getattr(lib, f"{pre}openblas_get_config{suf}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), threads()
    return None, None


def environment() -> dict:
    import scipy
    import vacmin._kernels
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    blas_config, blas_threads = openblas_runtime()
    pattern = re.compile(r"THREAD|OPENBLAS|^OMP_|^MKL_|^NUMBA|^VACMIN|BLIS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "openblas_threads": blas_threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if pattern.search(k)},
        "numba_imports": numba_imports,
        "vacmin_numba_enabled": vacmin._kernels.NUMBA_ENABLED,
    }


# ---------------------------------------------------------------------------


def run_jobs(bench, seconds: float, tracer) -> list:
    """Jobs back to back until ``seconds`` have passed, each checked after
    its timing ends. With a tracer, every odd job is traced."""
    jobs = []
    start = time.perf_counter()
    min_jobs = 2 if tracer else 1  # a traced run needs one traced job
    while len(jobs) < min_jobs or time.perf_counter() - start < seconds:
        i = len(jobs)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.job = i
            tracer.install()
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            res, rc = bench.job(i)
        except Exception as exc:  # a job that raises is a failed job
            res, rc, error = None, -1, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        fails = []
        if rc == 0:
            try:
                fails = bench.check(i, res)
            except Exception as exc:  # unreadable output fails its job
                fails = [f"unreadable output: {type(exc).__name__}: {exc}"]
        jobs.append({"job": i, "traced": traced, "wall_s": t1 - t0,
                     "cpu_s": c1 - c0, "exit": rc, "error": error,
                     "check_failures": fails})
    return jobs


def layer_metrics(tracer, jobs) -> dict:
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    per_job = [tracing.job_layer_metrics(tracer.spans, j["job"])
               for j in traced]
    metrics = {k: statistics.median(m[k] for m in per_job)
               for k in per_job[0]}
    metrics.update(tracing.per_call_ms(tracer.spans))
    metrics["trace.overhead_ratio"] = (
        statistics.median(j["wall_s"] for j in traced)
        / statistics.median(j["wall_s"] for j in plain) - 1.0)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = os.path.join(
        OUT, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(run_dir)
    setup_times = measure_setup(workload, seed, run_dir)
    import_vacmin()

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.job = "setup"
        tracer.install()
    bench = WORKLOADS[workload](seed, run_dir)
    setup_fails = getattr(bench, "setup_fails", [])
    if tracer:
        tracer.uninstall()

    jobs = run_jobs(bench, seconds, tracer)
    if tracer:
        metrics = layer_metrics(tracer, jobs)
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
    else:
        metrics = {
            "job_s_p50": statistics.median(j["wall_s"] for j in jobs),
            "job_cpu_s_p50": statistics.median(j["cpu_s"] for j in jobs),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    env = environment()
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "environment": env,
                   "setup_s": setup_times, "setup_failures": setup_fails,
                   "jobs": jobs, "metrics": metrics}, f, indent=2)
    for name in os.listdir(run_dir):
        path = os.path.join(run_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif name not in ("result.json", "spans.jsonl"):
            os.remove(path)

    for msg in setup_fails:
        print(f"set-up: {msg}", file=sys.stderr)
    for j in jobs:
        for msg in j["check_failures"] + ([j["error"]] if j["error"] else []):
            print(f"job {j['job']}: {msg}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    # stdout carries the metrics BENCHMARK.json declares; result.json has all
    with open(SPEC) as f:
        declared = [m["name"] for m in
                    json.load(f)["per_layer" if trace else "end_to_end"]]
    failed = sum(1 for j in jobs if j["exit"] != 0 or j["check_failures"])
    correct = not setup_fails and not any(j["check_failures"] for j in jobs)
    return {"correct": correct, "attempted": len(jobs), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit(k)}
                        for k in declared}}


RATIOS = ("minimizer.trial_accept_ratio", "minimizer.cpu_per_wall",
          "kernels.share_of_solve", "trace.overhead_ratio")
E2E_UNITS = {"job_s_p50": "s", "job_cpu_s_p50": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in RATIOS:
        return "ratio"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_mb") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if not os.path.isdir(os.path.join(SRC, "vacmin")):
        print(f"vacmin sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
