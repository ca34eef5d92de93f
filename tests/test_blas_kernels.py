"""``np.dot`` and ``np.matmul`` give the same bytes for the products that
the dynamics loop and verify's chain make, under each OpenBLAS kernel
family.

One replica mixes its rows with ``np.dot`` and a batch with the stacked
matmul, so a replica of a batch equals its single run only while both
calls give the same bytes; y and the backward-product chain also use
``np.dot`` for the product that ``matmul`` and ``@`` form. That holds while
both reach the same BLAS routine with the same operands. An OpenBLAS
built with DYNAMIC_ARCH picks its kernels when it loads, and
``OPENBLAS_CORETYPE`` overrides the pick, so each family is checked in a
fresh interpreter.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

CORETYPES = ("Haswell", "Nehalem", "Sandybridge")

# Compares every product pair and prints the kernel family that OpenBLAS
# reports, or null where the loaded library does not say, and the
# mismatching cases.
PRODUCTS = r"""
import ctypes
import json

import numpy as np


def corename():
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.restype = ctypes.c_char_p
                return get().decode()
    return None


rng = np.random.default_rng(0)
mismatches = []
for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 51, 200):
    w = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    w /= w.sum(axis=0)
    # the run's mixing: one replica's (n, d) rows against the stacked
    # (S, n, d) matmul and the plain 2-d matmul, and y as a vector
    for d in (1, 2, 3, 7):
        x = rng.standard_normal((3, n, d))
        stacked = np.matmul(w, x)
        for r in range(len(x)):
            rows = np.dot(w, x[r], out=np.empty((n, d)))
            if rows.tobytes() != stacked[r].tobytes() or rows.tobytes() != np.matmul(w, x[r]).tobytes():
                mismatches.append(["rows", n, d])
    y = rng.uniform(0.5, 2.0, n)
    if np.dot(w, y, out=np.empty(n)).tobytes() != np.matmul(w, y).tobytes():
        mismatches.append(["y", n, 1])
    # verify's chain: Phi <- M @ Phi, with M a matrix of a (c, n, n) chunk
    chunk = rng.uniform(0.0, 1.0, (2, n, n))
    phi = np.linalg.matrix_power(w, 3)
    if np.dot(chunk[1], phi, out=np.empty((n, n))).tobytes() != (chunk[1] @ phi).tobytes():
        mismatches.append(["chain", n, n])
print(json.dumps({"core": corename(), "mismatches": mismatches}))
"""


# The premises of the loop's shortcuts. A walk v <- W v stops at its
# fixed point and verify's chain skips the steps that repeat a step which
# left it unchanged: both need np.dot's bytes to depend on the operands'
# values only, not on where they sit. So every product of the loop's (n,)
# and (n, d) shapes, of the batch's stacked (S, n, d) matmul and of the
# chain's (n, n) shape is formed with the operands and the output at each
# offset of 0-15 doubles in one buffer. A run with one constant switching
# signal skips a product with a zero coefficient, which only changes the
# sign of zero entries of the mixed operand: for n >= 2, where BLAS sums
# the products, the result must not depend on those signs either (n = 1
# is numpy's scalar product; tests/test_properties.py checks that step).
# Prints the mismatching cases.
ADDRESSES = r"""
import json

import numpy as np

rng = np.random.default_rng(1)
size = 3 * 200 * 200 + 16
buffer = np.empty(3 * size)
mismatches = []


def placed(a, part, offset):
    # a copy of a that starts `offset` doubles into part `part` of the buffer
    start = part * size + offset
    out = buffer[start : start + a.size].reshape(a.shape)
    out[...] = a
    return out


for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 51, 200):
    w = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    w /= w.sum(axis=0)
    for shape in ((n,), (n, 1), (n, 3), (n, n), (3, n, 2)):
        v = rng.standard_normal(shape)
        product = np.matmul if len(shape) == 3 else np.dot
        want = product(w, v)
        for offset in range(16):
            got = product(
                placed(w, 0, offset),
                placed(v, 1, (offset + 5) % 16),
                out=placed(np.empty_like(want), 2, (offset + 11) % 16),
            )
            if got.tobytes() != want.tobytes():
                mismatches.append(["address", n, list(shape), offset])
        if n >= 2 and len(shape) == 2 and shape[1] < n:
            zeros = v * (rng.random(shape) < 0.5)  # zeros of either sign
            zeros[:, 0] = -0.0  # a column of zero products only
            flipped = np.where(zeros == 0.0, -zeros, zeros)
            if np.dot(w, zeros).tobytes() != np.dot(w, flipped).tobytes():
                mismatches.append(["zero signs", n, list(shape)])
print(json.dumps(mismatches))
"""


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode argument
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


def run_under_coretype(coretype: str, code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter whose OpenBLAS
    uses the ``coretype`` kernels on one thread."""
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return done.stdout


@pytest.mark.skipif(not openblas_dynamic_arch(), reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
@pytest.mark.parametrize("coretype", CORETYPES)
def test_dot_and_matmul_give_the_same_bytes(coretype):
    found = json.loads(run_under_coretype(coretype, PRODUCTS))
    assert found["core"] in (None, coretype)
    assert found["mismatches"] == []


@pytest.mark.skipif(not openblas_dynamic_arch(), reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
@pytest.mark.parametrize("coretype", CORETYPES)
def test_dot_bytes_depend_only_on_operand_values(coretype):
    assert json.loads(run_under_coretype(coretype, ADDRESSES)) == []
