"""Every attribute the traced benchmark wraps exists where it looks for it.

`perfbench/tracer.py` wraps conlab's functions from the outside by name; a
refactor that removes or moves one of those names would otherwise show up
only in the slow benchmark suite.
"""

import importlib.util
from pathlib import Path

import pytest

import conlab
import conlab.cli  # noqa: F401  (layer_targets reads conlab.cli)
import conlab.experiments  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("targets", ["layer_targets", "grid_boundary_targets"])
def test_traced_attributes_exist(targets):
    tracer = _load_tracer()
    missing = [
        f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
        for t in getattr(tracer, targets)(conlab)
        if t.attr not in vars(t.owner)
    ]
    assert missing == []
