"""The Gauss-Legendre table the quadrature reads, built from scipy's rules.

``src/dtebell/data/gauss_legendre.npy`` is one float64 array of shape
(2, 2 * NODE_CAP - 1): row 0 holds nodes, row 1 weights, and the rule
with n nodes (n = 1, 2, 4, ..., NODE_CAP) sits in columns n - 1 ... 2n - 2.
NODE_CAP is the quadrature engine's node cap, so the table holds exactly
the rules the engine can ask for.
It is scipy.special.roots_legendre's output, bit for bit, so the package
needs no scipy at run time and its output does not move with the
installed scipy.  Rewrite it with

    PYTHONPATH=src python tests/gauss_legendre_table.py

``git diff --stat`` then shows whether any bit moved; test_correlation
checks the committed file against this function.
"""

from __future__ import annotations

import os

import numpy as np

from dtebell._quadrature import NODE_CAP

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(os.path.dirname(HERE), "src", "dtebell", "data", "gauss_legendre.npy")


def rule_sizes():
    """n = 1, 2, 4, ..., NODE_CAP."""
    return [1 << k for k in range(NODE_CAP.bit_length())]


def build_table():
    from scipy.special import roots_legendre

    table = np.empty((2, 2 * NODE_CAP - 1))
    for n in rule_sizes():
        table[:, n - 1 : 2 * n - 1] = roots_legendre(n)
    return table


if __name__ == "__main__":
    np.save(TABLE, build_table())
    print(TABLE)
