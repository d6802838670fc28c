"""The names the benchmark's tracer looks up must exist.

Every untraced benchmark run calls `tracer.assert_untraced()`, which looks up
each (module, attribute) of `tracer.TARGETS`; a missing name makes every run
exit with status 2.  The tracer is loaded from its file, as the benchmark
does, without importing the rest of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("name, module, attr", _targets())
def test_every_traced_name_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr)), name
