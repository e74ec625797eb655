import itertools
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdtbench.instances import haar_unitary
from qdtbench.io import load_instance

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "qdtbench" / "fixtures"
FIXTURE_NAMES = sorted(path.stem for path in FIXTURE_DIR.glob("*.json"))


def load_fixture(name: str):
    """A bundled fixture, read from the same packaged JSON the CLI reads."""
    return load_instance(FIXTURE_DIR / f"{name}.json")


@pytest.fixture(scope="session")
def min2():
    return load_fixture("min2")


@pytest.fixture(scope="session")
def std6():
    return load_fixture("std6")


@pytest.fixture(scope="session")
def std8():
    return load_fixture("std8")


@pytest.fixture(scope="session")
def overlap2():
    return load_fixture("overlap2")


@pytest.fixture(scope="session")
def irrev6():
    return load_fixture("irrev6")


def cli(*args, env=None, timeout=300):
    """Run the command-line tool in a subprocess and capture everything."""
    exe = shutil.which("qdt")
    cmd = [exe] + list(args) if exe else \
        [sys.executable, "-m", "qdtbench.cli"] + list(args)
    return subprocess.run(cmd, capture_output=True, env=env, timeout=timeout)


@pytest.fixture(scope="session")
def fixture_path():
    def path_of(name: str) -> str:
        return str(FIXTURE_DIR / f"{name}.json")
    return path_of


def unitary_frame(kind: str, dim: int, rng) -> np.ndarray:
    """A dim x dim unitary: Haar-random ("haar") or a random permutation
    of the standard basis ("axis")."""
    if kind == "axis":
        return np.eye(dim, dtype=np.complex128)[:, rng.permutation(dim)]
    return haar_unitary(dim, rng)


def reference_nodes(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Count vector -> leaf multiplicity of the depth-n, k-outcome tree,
    in lexicographic order, from itertools.combinations (stars and bars)
    and a math.comb per count."""
    nodes = {}
    for cuts in itertools.combinations(range(n + k - 1), k - 1):
        bounds = (-1,) + cuts + (n + k - 1,)
        counts = tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))
        mult, rest = 1, n
        for c in counts[:-1]:
            mult *= math.comb(rest, c)
            rest -= c
        nodes[counts] = mult
    return nodes
