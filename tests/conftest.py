import json
import os
from pathlib import Path

import numpy as np
import pytest

import supermart as sm
import supermart.sim.csbp as csbp_mod
import supermart.sim.gw as gw_mod

# The directory that holds the imported ``supermart`` package: ``src`` in a
# checkout, ``site-packages`` (or the editable source) in an install.
PACKAGE_ROOT = str(Path(sm.__file__).resolve().parents[1])


def cli_env(**overlay):
    """Environment for a ``python -m supermart.cli`` child process.

    Puts the absolute directory of the package the tests import first on
    ``PYTHONPATH`` and keeps the inherited entries after it, so the child
    imports the same code whatever its working directory.  A relative entry
    such as ``src`` would otherwise resolve against the child's ``cwd``.
    ``overlay`` sets further variables (e.g. ``OMP_NUM_THREADS="1"``).
    """
    env = dict(os.environ, **overlay)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env


def make_model(obj):
    return sm.model_from_json(obj)


# two types, one stable and one atom kernel: every engine branch, with jumps
STABLE_ATOMS = {
    "types": 2,
    "Q": [[-1.0, 1.0], [1.0, -1.0]],
    "beta": [1.0, 0.5],
    "alpha": [0.5, 0.5],
    "kernels": [
        {"kind": "stable", "gamma": 1.0, "alpha": 1.5},
        {"kind": "atoms", "atoms": [[0.5, 0.8], [2.0, 0.3]]},
    ],
}


def assert_same_ensemble(a, b):
    for name in ("times", "M", "masses", "clipped", "flagged"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.jumps is None) == (b.jumps is None)
    if a.jumps is not None:
        assert np.array_equal(a.jumps, b.jumps)


@pytest.fixture
def set_chunk_paths(monkeypatch):
    """Sets the engines' path-chunk size for the rest of the test."""

    def apply(n):
        monkeypatch.setattr(csbp_mod, "CHUNK_PATHS", n)
        monkeypatch.setattr(gw_mod, "CHUNK_PATHS", n)

    return apply


@pytest.fixture
def small_chunks(set_chunk_paths):
    """96-path chunks, so a few hundred paths span several chunks."""
    set_chunk_paths(96)


@pytest.fixture(scope="session")
def symmetric2():
    """Q symmetric, beta constant: lambda=1, phi=(1,1), nu=(1/2,1/2)."""
    return make_model(
        {
            "types": 2,
            "Q": [[-1.0, 1.0], [1.0, -1.0]],
            "beta": [1.0, 1.0],
            "alpha": [0.0, 0.0],
            "kernels": [{"kind": "stable", "gamma": 1.0, "alpha": 1.5}] * 2,
        }
    )


@pytest.fixture(scope="session")
def tilted2():
    """beta=(2,0): lambda=sqrt(2), asymmetric Perron pair."""
    return make_model(
        {
            "types": 2,
            "Q": [[-1.0, 1.0], [1.0, -1.0]],
            "beta": [2.0, 0.0],
            "alpha": [0.0, 0.0],
            "kernels": [{"kind": "atoms", "atoms": [[2.0, 3.0]]}] * 2,
        }
    )


@pytest.fixture(scope="session")
def stable1():
    """Single type, unit drift, stable(gamma=1, alpha=1.5) jumps."""
    return make_model(
        {
            "types": 1,
            "Q": [[0.0]],
            "beta": [1.0],
            "alpha": [0.2],
            "kernels": [{"kind": "stable", "gamma": 1.0, "alpha": 1.5}],
        }
    )


@pytest.fixture(scope="session")
def feller1():
    """Single-type Feller diffusion: a = alpha_diff/2 = 1, b = 1."""
    return make_model(
        {
            "types": 1,
            "Q": [[0.0]],
            "beta": [1.0],
            "alpha": [2.0],
            "kernels": [{"kind": "stable", "gamma": 0.0, "alpha": 1.5}],
        }
    )
