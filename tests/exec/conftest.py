"""Shared fixtures for the executor-backend tests.

Same rationale as the simulation-layer conftest: ``resolve_n_jobs``
degrades oversized pools to the host's core count, so on a small CI box
every multi-worker test would silently run serial. Pin a roomy fake
core count so pool tests always exercise real concurrency.
"""

import os

import pytest

from repro.sim import runner


@pytest.fixture(autouse=True)
def _plenty_of_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(runner, "_DEGRADE_WARNED", False)
    monkeypatch.setattr(runner, "_BATCH_FALLBACK_WARNED", False)
