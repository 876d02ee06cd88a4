import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def sym_rand(rng, n, scale=1.0):
    """Random symmetric matrix (test helper)."""
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2.0


def count_calls(monkeypatch, fn):
    """Count calls to ``fn`` through every powmean module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "powmean" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls
