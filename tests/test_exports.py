"""The package namespace exports only names that exist, and importing the
CLI loads nothing beyond numpy, yaml and the standard library."""

import json
import subprocess
import sys

import vacmin
from conftest import vacmin_env


def test_every_exported_name_resolves():
    missing = [name for name in vacmin.__all__ if not hasattr(vacmin, name)]
    assert missing == []


def _top_level_modules(statement):
    """The top-level names in sys.modules of a fresh interpreter that runs
    statement without writing bytecode, as a set."""
    r = subprocess.run(
        [sys.executable, "-B", "-c", statement + "; import sys, json; "
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=vacmin_env(), check=True)
    return {name.partition(".")[0] for name in json.loads(r.stdout)}


def test_cli_import_loads_only_numpy_yaml_and_stdlib():
    # every process that runs vacmin pays for what importing the CLI
    # loads; scipy, in particular, is a test dependency only
    loaded = _top_level_modules("import vacmin.cli")
    allowed = (_top_level_modules("import numpy, yaml")
               | set(sys.stdlib_module_names) | {"vacmin"})
    assert loaded - allowed == set()
    assert "scipy" not in loaded
