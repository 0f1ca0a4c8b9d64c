"""Every callable ``bench/trace.py`` wraps still exists under the name it wraps.

The benchmark times each layer from outside the program: its tracer
replaces the targets named in ``bench.trace.LAYER_CALLS`` with timing
wrappers.  A renamed or deleted target would only show when a traced
benchmark run installs them; these checks find it without installing
anything, reading ``bench.trace`` only.
"""

import importlib
import inspect

import pytest

from bench.trace import LAYER_CALLS
from repro.serving.gateway import ScreeningGateway
from repro.serving.loadgen import FleetLoadGenerator, LoadProfile
from tests.conftest import corpus_signatures

TARGETS = [
    (name, module_name, path)
    for name, targets in LAYER_CALLS.items()
    for module_name, path, __ in targets
]


def resolve_owner(module_name, path):
    """The object holding the target, and the target's attribute name."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = inspect.getattr_static(owner, part)
    return owner, attr


@pytest.mark.parametrize(
    "name, module_name, path",
    TARGETS,
    ids=[f"{name}:{module_name}.{path}" for name, module_name, path in TARGETS],
)
def test_target_resolves(name, module_name, path):
    owner, attr = resolve_owner(module_name, path)
    target = inspect.getattr_static(owner, attr)
    assert callable(target), f"{name}: {module_name}.{path} is not callable"


def test_serving_match_sees_every_dispatched_batch(small_corpus, monkeypatch):
    ((module_name, path, units),) = LAYER_CALLS["serving.match"]
    owner, attr = resolve_owner(module_name, path)
    calls = []
    wrapped = inspect.getattr_static(owner, attr)

    def counting(*args, **kwargs):
        result = wrapped(*args, **kwargs)
        calls.append(units(args, kwargs, result))
        return result

    monkeypatch.setattr(owner, attr, counting)
    gateway = ScreeningGateway(corpus_signatures(small_corpus))
    profile = LoadProfile(mean_interarrival_ticks=0.5)
    events = FleetLoadGenerator(small_corpus, profile, seed=0).events(120)
    gateway.run(events)
    counters = gateway.metrics.counters
    assert len(calls) == counters["batches"] > 0
    assert sum(calls) == counters["admitted"]
