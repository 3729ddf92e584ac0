"""Shared fixtures: a hard network block and common model/data builders.

The whole suite must run offline (replay fixtures only), so any attempt to
open a socket fails loudly.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from plainbayes.data_io import Dataset, SimConfig, simulate_linear
from plainbayes.spec_schema import parse_model_json, validate_model

NETWORK_BLOCKED = {"active": False}


@pytest.fixture(autouse=True, scope="session")
def no_network():
    """Refuse every socket connection for the duration of the suite."""

    def guard(*args, **kwargs):
        raise RuntimeError("network access attempted during the offline test suite")

    original_connect = socket.socket.connect
    original_create = socket.create_connection
    socket.socket.connect = guard
    socket.create_connection = guard
    NETWORK_BLOCKED["active"] = True
    try:
        yield
    finally:
        socket.socket.connect = original_connect
        socket.create_connection = original_create
        NETWORK_BLOCKED["active"] = False


EXPERIMENT_MODEL_JSON = """
{
  "priors": {
    "alpha": {"distribution": "Uniform", "params": {"lower": -25, "upper": 25}},
    "beta": {"distribution": "Exponential", "params": {"lam": 0.5}},
    "sigma": {"distribution": "HalfNormal", "params": {"sigma": 15}}
  },
  "likelihood": {"distribution": "Normal", "formula": "alpha + beta * X"}
}
"""


@pytest.fixture(scope="session")
def experiment_dataset() -> Dataset:
    return simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100, seed=42))


@pytest.fixture(scope="session")
def experiment_model(experiment_dataset):
    spec = parse_model_json(EXPERIMENT_MODEL_JSON)
    return validate_model(spec, experiment_dataset.column_names())


@pytest.fixture()
def worker_pids(monkeypatch) -> list[int]:
    """Record, in the parent, the pid of each chain worker the sampler forks."""
    from plainbayes import sampler

    pids = []
    fork = sampler._fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(sampler, "_fork", recorded)
    return pids


@pytest.fixture()
def tiny_dataset() -> Dataset:
    return Dataset({"X": np.array([0.0]), "y": np.array([0.0])})
