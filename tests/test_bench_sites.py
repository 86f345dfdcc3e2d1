"""The benchmark's traced run wraps program functions by the names their
callers look them up by; a renamed or deleted one must fail here, not only
in a traced benchmark pass."""

import importlib
from pathlib import Path

from twoteam import oracle

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    sites = [(owner, attr) for owner, attr, _ in layers._SITES]
    sites.append((oracle, "iter_profile_regrets"))  # wrapped as a generator
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing
