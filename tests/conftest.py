import pathlib
import subprocess
import sys

import numpy as np
import pytest

# writes one of the benchmark's smoke inputs without leaving bytecode next to it
WRITE_SMOKE = """
import sys
sys.path.insert(0, sys.argv[1])
import inputs
getattr(inputs, sys.argv[3])(sys.argv[2], 0, inputs.SMOKE)
"""


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def write_smoke():
    """``write(root, writer)``: the benchmark's smoke input made by ``inputs.<writer>``
    (``write_bundle`` or ``write_plants``), written into the directory ``root``."""
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

    def write(root, writer):
        subprocess.run([sys.executable, "-B", "-c", WRITE_SMOKE, str(perfbench), str(root),
                        writer], check=True)
        return root
    return write
