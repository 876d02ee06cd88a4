import ctypes
import glob
import os
import sys

import numpy as np
import pytest

from powmean import core


@pytest.fixture(autouse=True)
def fresh_decompositions():
    """Empty ``eig_sym``'s memo of recent decompositions before each test, so
    no call count depends on which tests ran before."""
    core._recent.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def sym_rand(rng, n, scale=1.0):
    """Random symmetric matrix (test helper)."""
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2.0


def count_calls(monkeypatch, fn, check=None):
    """Count calls to ``fn`` through every powmean module that binds it,
    passing each call's arguments to ``check`` first if given."""
    calls = []

    def counted(*args, **kwargs):
        if check is not None:
            check(*args, **kwargs)
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "powmean" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def blas_kernel() -> str:
    """The name of the kernel numpy's bundled OpenBLAS runs: the one it picked
    for this CPU ("SkylakeX" on AVX-512 hosts) or the one ``OPENBLAS_CORETYPE``
    selects; "unknown" for a numpy without the bundled library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def assert_pinned(digest: str, pins: dict) -> None:
    """Assert ``digest`` equals the one recorded in ``pins`` for the running
    BLAS kernel (test helper).  Kernels differ in how numpy's small matmuls
    round, so each keeps one exact digest; a kernel with none fails."""
    kernel = blas_kernel()
    if kernel not in pins:
        pytest.fail("no digest recorded for BLAS kernel %s; this run gives %s" % (kernel, digest))
    assert digest == pins[kernel], "BLAS kernel %s" % kernel
