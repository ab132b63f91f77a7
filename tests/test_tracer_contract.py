"""The benchmark tracer (``perfbench/tracer.py``) wraps a few hot methods
by looking them up in their class's own ``__dict__``; a refactor that moves
one elsewhere must fail here, not in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_methods():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, cls, method) for module, cls, method, _ in tracer.METHODS]


@pytest.mark.parametrize("module, cls, method", traced_methods(),
                         ids=lambda value: value)
def test_traced_method_is_defined_on_its_own_class(module, cls, method):
    owner = getattr(importlib.import_module(f"softlogic.{module}"), cls)
    assert method in owner.__dict__


@pytest.mark.parametrize("kernel", ["squash", "squash_grad"])
def test_network_calls_the_public_squash_kernels(kernel):
    # The tracer's operators.squash.* metrics see only the public
    # functions; a private kernel in network.py would blank them.
    network = importlib.import_module("softlogic.network")
    operators = importlib.import_module("softlogic.operators")
    assert getattr(network, kernel) is getattr(operators, kernel)
