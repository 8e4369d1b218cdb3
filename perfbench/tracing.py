"""Spans around calls into vacmin's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every name its callers
look it up by: the defining module, every ``vacmin`` module that imported
it with ``from ... import``, the package namespace, the CLI's command
table, and the class for methods. ``uninstall`` puts the originals back.
Each call records one span: name, parent span, job id, wall start/end,
process CPU start/end (all threads), and for a few calls a small result
summary. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

# (span name, module, attribute); "Class.attr" names a method
FUNCTIONS = (
    ("config.from_yaml", "vacmin.config", "ExperimentConfig.from_yaml"),
    ("minimizer.minimize", "vacmin.minimizer", "minimize"),
    ("minimizer.discrete_energy", "vacmin.minimizer", "discrete_energy"),
    ("kernels.energy_and_grad", "vacmin._kernels", "energy_and_grad"),
    ("kernels.energy_only", "vacmin._kernels", "energy_only"),
    ("kernels.energy_density", "vacmin._kernels", "energy_density"),
    ("potentials.value_field", "vacmin.potentials", "Potential.value_field"),
    ("potentials.grad_field", "vacmin.potentials", "Potential.grad_field"),
    ("potentials.verify_assumptions", "vacmin.potentials",
     "verify_assumptions"),
    ("boundary.initial_field", "vacmin.boundary", "initial_field"),
    ("field.grid", "vacmin.field", "Grid.__init__"),
    ("field.save_field", "vacmin.field", "save_field"),
    ("field.load_field", "vacmin.field", "load_field"),
    ("field.energy_density", "vacmin.field", "energy_density"),
    ("field.gradient_sq", "vacmin.field", "gradient_sq"),
    ("field.partial_derivatives", "vacmin.field", "partial_derivatives"),
    ("field.sample_sphere", "vacmin.field", "sample_sphere"),
    ("field.integrate_ball", "vacmin.field", "integrate_ball"),
    ("discs.bad_disc_pipeline", "vacmin.discs", "bad_disc_pipeline"),
    ("discs.select_good_radius", "vacmin.discs", "select_good_radius"),
    ("discs.holder_constant", "vacmin.discs", "holder_constant"),
    ("discs.sphere_holder_constant", "vacmin.discs",
     "sphere_holder_constant"),
    ("discs.greedy_bad_discs", "vacmin.discs", "greedy_bad_discs"),
    ("monotonicity.monotone_quantities", "vacmin.monotonicity",
     "monotone_quantities"),
    ("monotonicity.stress_tensor", "vacmin.monotonicity", "stress_tensor"),
    ("monotonicity.pohozaev_balance", "vacmin.monotonicity",
     "pohozaev_balance"),
    ("competitor.standard_suite", "vacmin.competitor", "standard_suite"),
    ("competitor.max_principle_check", "vacmin.competitor",
     "max_principle_check"),
    ("growth.energy_profile", "vacmin.growth", "energy_profile"),
    ("growth.comparison_bound", "vacmin.growth", "comparison_bound"),
)

CLI_COMMANDS = ("minimize", "energy-profile", "bad-discs", "monotonicity",
                "max-principle", "competitor", "bootstrap",
                "verify-potential")

# span record fields
NAME, PARENT, JOB, T0, T1, C0, C1, INFO = range(8)


def _solve_info(result):
    rep = result[1]
    return {"iterations": rep.iterations, "backtracks": rep.backtracks}


def _covering_info(result):
    return {"centers": result.count}


AFTER = {"minimizer.minimize": _solve_info,
         "discs.bad_disc_pipeline": _covering_info}

# calls whose tracemalloc peak is recorded (the dense K x K covering)
ALLOC_PEAK = ("discs.bad_disc_pipeline",)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []      # (container, key, original, is_mapping)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock, cpu = time.perf_counter, time.process_time
        after = AFTER.get(name)
        peak = name in ALLOC_PEAK

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.job, 0.0, 0.0,
                   0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            if peak:
                tracemalloc.start()
            rec[C0], rec[T0] = cpu(), clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1], rec[C1] = clock(), cpu()
                stack.pop()
                if peak:
                    rec[INFO] = {"peak_alloc_mb":
                                 tracemalloc.get_traced_memory()[1] / 2 ** 20}
                    tracemalloc.stop()
            if after is not None:
                rec[INFO] = {**(rec[INFO] or {}), **after(out)}
            return out

        return traced

    def _patch(self, container, key, new, is_mapping=False):
        old = container[key] if is_mapping else container.__dict__[key]
        self._patches.append((container, key, old, is_mapping))
        if is_mapping:
            container[key] = new
        else:
            setattr(container, key, new)

    def install(self) -> None:
        """Wrap every traced function at each of its lookup names."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "vacmin" or k.startswith("vacmin.")) and m]
        for span, modname, attr in FUNCTIONS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__))
                else:
                    new = self._wrap(span, raw)
                self._patch(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(span, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, new)
        table = sys.modules["vacmin.cli"]._COMMANDS
        for cmd in CLI_COMMANDS:
            self._patch(table, cmd, self._wrap(f"cli.{cmd}", table[cmd]),
                        is_mapping=True)

    def uninstall(self) -> None:
        for container, key, old, is_mapping in reversed(self._patches):
            if is_mapping:
                container[key] = old
            else:
                setattr(container, key, old)
        self._patches.clear()

    def write(self, path: str) -> None:
        keys = ("name", "parent", "job", "start", "end", "cpu_start",
                "cpu_end", "info")
        with open(path, "w") as f:
            for i, rec in enumerate(self.spans):
                f.write(json.dumps({"id": i, **dict(zip(keys, rec))}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _children_time(spans):
    """Total duration of each span's direct children."""
    kids = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            kids[rec[PARENT]] += rec[T1] - rec[T0]
    return kids


def job_layer_metrics(spans, job) -> dict:
    """Per-job totals and counts (and per-solve averages) for one job."""
    kids = _children_time(spans)
    mine = [(i, r) for i, r in enumerate(spans) if r[JOB] == job]
    count, total = {}, {}
    for _, r in mine:
        count[r[NAME]] = count.get(r[NAME], 0) + 1
        total[r[NAME]] = total.get(r[NAME], 0.0) + r[T1] - r[T0]
    solves = [(i, r) for i, r in mine if r[NAME] == "minimizer.minimize"]
    solve_ids = {i for i, _ in solves}
    in_solve = [r for _, r in mine if r[PARENT] in solve_ids]
    wall = sum(r[T1] - r[T0] for _, r in solves)
    iters = sum(r[INFO]["iterations"] for _, r in solves)
    trials = sum(1 for r in in_solve if r[NAME] == "kernels.energy_only")
    ns = max(len(solves), 1)
    out = {
        "cli.solves_per_job": len(solves),
        **{f"cli.{c}_s": total.get(f"cli.{c}", 0.0) for c in CLI_COMMANDS},
        "minimizer.solve_s": wall,
        "minimizer.iterations": iters / ns,
        "minimizer.backtracks":
            sum(r[INFO]["backtracks"] for _, r in solves) / ns,
        "minimizer.energy_evals": len(in_solve) / ns,
        "minimizer.trial_accept_ratio": iters / trials if trials else 0.0,
        "minimizer.iter_ms": 1e3 * wall / iters if iters else 0.0,
        "minimizer.self_ms_per_iter":
            1e3 * sum(r[T1] - r[T0] - kids[i] for i, r in solves) / iters
            if iters else 0.0,
        "minimizer.cpu_per_wall":
            sum(r[C1] - r[C0] for _, r in solves) / wall if wall else 0.0,
        "kernels.energy_and_grad_calls": count.get("kernels.energy_and_grad",
                                                   0),
        "kernels.energy_only_calls": count.get("kernels.energy_only", 0),
        "kernels.share_of_solve":
            sum(r[T1] - r[T0] for r in in_solve) / wall if wall else 0.0,
        "field.derivative_passes": sum(
            count.get(k, 0) for k in ("field.energy_density",
                                      "field.gradient_sq",
                                      "field.partial_derivatives")),
        "field.sample_sphere_calls": count.get("field.sample_sphere", 0),
        "discs.centers": sum(r[INFO]["centers"] for _, r in mine
                             if r[NAME] == "discs.bad_disc_pipeline"),
        "discs.peak_alloc_mb": max(
            [r[INFO]["peak_alloc_mb"] for _, r in mine
             if r[NAME] == "discs.bad_disc_pipeline"] or [0.0]),
        "competitor.discrete_energy_calls":
            count.get("minimizer.discrete_energy", 0),
    }
    for span in ("discs.bad_disc_pipeline", "discs.select_good_radius",
                 "discs.holder_constant", "discs.sphere_holder_constant",
                 "discs.greedy_bad_discs", "competitor.max_principle_check"):
        out[f"{span}_s"] = total.get(span, 0.0)
    return out


# metric name -> span name, for times per call over every traced call
PER_CALL_MS = {
    "config.from_yaml_ms": "config.from_yaml",
    "kernels.energy_and_grad_ms": "kernels.energy_and_grad",
    "kernels.energy_only_ms": "kernels.energy_only",
    "kernels.energy_density_ms": "kernels.energy_density",
    "potentials.value_field_ms": "potentials.value_field",
    "potentials.grad_field_ms": "potentials.grad_field",
    "potentials.verify_assumptions_ms": "potentials.verify_assumptions",
    "boundary.initial_field_ms": "boundary.initial_field",
    "field.grid_ms": "field.grid",
    "field.save_field_ms": "field.save_field",
    "field.load_field_ms": "field.load_field",
    "field.sample_sphere_ms": "field.sample_sphere",
    "field.integrate_ball_ms": "field.integrate_ball",
    "monotonicity.monotone_quantities_ms": "monotonicity.monotone_quantities",
    "monotonicity.stress_tensor_ms": "monotonicity.stress_tensor",
    "monotonicity.pohozaev_balance_ms": "monotonicity.pohozaev_balance",
    "competitor.standard_suite_ms": "competitor.standard_suite",
    "growth.energy_profile_ms": "growth.energy_profile",
    "growth.comparison_bound_ms": "growth.comparison_bound",
}


def per_call_ms(spans) -> dict:
    """Mean wall time per call over all traced spans (jobs and set-up)."""
    count, total = {}, {}
    for r in spans:
        count[r[NAME]] = count.get(r[NAME], 0) + 1
        total[r[NAME]] = total.get(r[NAME], 0.0) + r[T1] - r[T0]
    return {m: 1e3 * total[s] / count[s] if s in count else 0.0
            for m, s in PER_CALL_MS.items()}
