"""The benchmark's tracer (perfbench/tracing.py) wraps vacmin functions by
name; every name it looks up must exist, and uninstall must restore them."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _module_names():
    return {k: dict(vars(m)) for k, m in sorted(sys.modules.items())
            if (k == "vacmin" or k.startswith("vacmin.")) and m}


def test_tracer_finds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import vacmin.cli  # noqa: F401 - imports every traced module
    import tracing

    before = _module_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _module_names() != before
    finally:
        tracer.uninstall()
    after = _module_names()
    assert all(after[mod][name] is val for mod, names in before.items()
               for name, val in names.items())
