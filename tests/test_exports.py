"""The package namespace exports only names that exist, every library
definition has a caller, and importing the CLI loads nothing beyond numpy,
yaml and the standard library and runs none of the analysis layers."""

import ast
import collections
import json
import os
import subprocess
import sys

import vacmin
from conftest import vacmin_env


def test_every_exported_name_resolves():
    missing = [name for name in vacmin.__all__ if not hasattr(vacmin, name)]
    assert missing == []


# top-level definitions kept with no caller in src/ or perfbench/, and why
UNCALLED = {
    "clearing_out_violations": "the brute-force clearing-out check that the "
                               "covering tests compare the covering against",
    "positivity_check": "the stress positivity identity T + eI >= 0 of the "
                        "paper, checked on solved fields by the tests",
}


def _parsed(directory):
    trees = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as f:
                trees.append(ast.parse(f.read()))
    return trees


def _references(tree):
    """How often each name is read in tree: Name ids, Attribute attrs, and
    the source name of each ``from ... import`` whose local name is read."""
    refs = collections.Counter()
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            imports += node.names
    refs.update(a.name for a in imports if (a.asname or a.name) in refs)
    return refs


def test_every_src_definition_has_a_caller():
    # code that no subcommand, benchmark workload or other definition reaches
    # is dead weight: delete it, or move it to tests/ if tests use it
    src = os.path.dirname(os.path.abspath(vacmin.__file__))
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    trees = _parsed(src)
    read = sum(map(_references, trees + _parsed(bench)), collections.Counter())
    # a definition's reads of its own name (recursion) do not count
    uncalled = [
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in vacmin.__all__
        and read[node.name] == _references(node)[node.name]]
    assert sorted(uncalled) == sorted(UNCALLED)


def _fresh(statement, expr):
    """The JSON value of expr in a fresh interpreter that runs statement
    without writing bytecode."""
    r = subprocess.run(
        [sys.executable, "-B", "-c", f"{statement}; import json, sys, types; "
         f"print(json.dumps({expr}))"],
        capture_output=True, text=True, env=vacmin_env(), check=True)
    return json.loads(r.stdout)


def _top_level_modules(statement):
    """The top-level names in sys.modules after statement, as a set."""
    return {name.partition(".")[0]
            for name in _fresh(statement, "sorted(sys.modules)")}


def _run_vacmin_modules(statement):
    """The vacmin modules whose code has run after statement: those in
    sys.modules that no lazy loader still holds back."""
    return set(_fresh(statement, "sorted(k for k, m in sys.modules.items() "
                      "if k.startswith('vacmin') "
                      "and type(m) is types.ModuleType)"))


ANALYSIS = {"vacmin.competitor", "vacmin.discs", "vacmin.growth",
            "vacmin.monotonicity"}


def test_cli_import_loads_only_numpy_yaml_and_stdlib():
    # every process that runs vacmin pays for what importing the CLI
    # loads; scipy, in particular, is a test dependency only
    loaded = _top_level_modules("import vacmin.cli")
    allowed = (_top_level_modules("import numpy, yaml")
               | set(sys.stdlib_module_names) | {"vacmin"})
    assert loaded - allowed == set()
    assert "scipy" not in loaded
    # nor does it run the analysis layers, which minimize never reads; they
    # are in sys.modules and run on their first use
    assert ANALYSIS <= set(_fresh("import vacmin.cli", "sorted(sys.modules)"))
    ran = _run_vacmin_modules("import vacmin.cli")
    assert "vacmin.cli" in ran and "vacmin.minimizer" in ran
    assert ran & ANALYSIS == set()
    ran = _run_vacmin_modules(
        "import vacmin.cli; vacmin.cli.discs.bad_disc_pipeline")
    assert ran & ANALYSIS == {"vacmin.discs"}
    ran = _run_vacmin_modules(
        "import vacmin.cli; from vacmin import competitor; "
        "competitor.standard_suite")
    assert ran & ANALYSIS == {"vacmin.competitor", "vacmin.growth"}
