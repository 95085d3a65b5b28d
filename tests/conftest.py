import numpy as np
import pytest

from actsense import EnergyTensor, ObservationSet


@pytest.fixture
def tiny_tensor():
    """2 homes x (aggregate + 2 appliances) x 3 months, fully observed."""
    rng = np.random.default_rng(42)
    breakdown = rng.uniform(1.0, 5.0, size=(2, 2, 3))
    readings = np.concatenate([breakdown.sum(axis=1, keepdims=True), breakdown],
                              axis=1)
    return EnergyTensor(readings=readings,
                        mask=np.ones_like(readings, dtype=bool),
                        appliance_names=("aggregate", "fridge", "hvac"),
                        aggregate_index=0)


def full_omega(tensor):
    return ObservationSet(np.ones(tensor.readings.shape, dtype=bool))


@pytest.fixture
def tiny_omega(tiny_tensor):
    return full_omega(tiny_tensor)


@pytest.fixture
def cond_calls(monkeypatch):
    """One entry per np.linalg.cond call, the SVD the condition guards skip."""
    calls = []
    real_cond = np.linalg.cond

    def counting_cond(*args, **kwargs):
        calls.append(1)
        return real_cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    return calls
