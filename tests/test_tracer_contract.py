"""The benchmark tracer (``perfbench/tracer.py``) wraps a few hot methods
by looking them up in their class's own ``__dict__``; a refactor that moves
one elsewhere must fail here, not in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
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


def test_every_dense_part_gathers_through_operands(monkeypatch):
    # The tracer's network.operands span times this gather; a dense part
    # that gathered inline would leave the span reading 0.
    network = importlib.import_module("softlogic.network")
    operands, calls = network.PairingTable.operands, []

    def counting(self, unit):
        calls.append(unit.shape)
        return operands(self, unit)

    monkeypatch.setattr(network.PairingTable, "operands", counting)
    net = network.build_network(4, 2, network.NetworkConfig(hidden_width=3, logic_parts=2))
    rng = np.random.default_rng(0)
    _, cache = net.forward(rng.uniform(-1.0, 1.0, size=(20, 4)))
    assert cache.gate_codes == [None, None]
    assert calls == [(20, 6), (20, 5)]
    # A few-valued batch takes part 0's table, which gathers level codes.
    calls.clear()
    _, cache = net.forward(rng.choice([-1.0, 1.0], size=(20, 4)))
    assert cache.gate_codes[0] is not None
    assert calls == [(20, 5)]
