"""MPI datatypes and reduction operators."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import BYTE, DOUBLE, FLOAT, INT, MAX, MIN, PROD, SUM


def test_itemsizes():
    assert BYTE.itemsize == 1
    assert INT.itemsize == 4
    assert FLOAT.itemsize == 4
    assert DOUBLE.itemsize == 8


def test_count_of():
    assert FLOAT.count_of(16) == 4
    with pytest.raises(MPIError):
        FLOAT.count_of(6)


def test_np_dtypes():
    assert FLOAT.np_dtype == np.float32
    assert DOUBLE.np_dtype == np.float64
    assert INT.np_dtype == np.int32


def test_resolvers_need_numpy():
    """Only value-moving code resolves a datatype or op to numpy; without
    numpy that is a ConfigError naming what wanted it, never ``None``."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.errors import ConfigError\n"
        "from repro.mpi import FLOAT, SUM\n"
        "for name, get in (('MPI_FLOAT', lambda: FLOAT.np_dtype),\n"
        "                  ('MPI_SUM', lambda: SUM.ufunc)):\n"
        "    try:\n"
        "        got = get()\n"
        "    except ConfigError as e:\n"
        "        assert name in str(e) and 'numpy' in str(e), e\n"
        "    else:\n"
        "        raise AssertionError(f'{name} resolved to {got!r}')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_ops_apply():
    a = np.array([1.0, 5.0])
    b = np.array([3.0, 2.0])
    assert (SUM(a, b) == [4.0, 7.0]).all()
    assert (PROD(a, b) == [3.0, 10.0]).all()
    assert (MAX(a, b) == [3.0, 5.0]).all()
    assert (MIN(a, b) == [1.0, 2.0]).all()


def test_op_names():
    assert SUM.name == "MPI_SUM"
    assert MAX.name == "MPI_MAX"
