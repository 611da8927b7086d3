"""Physical quantities derived from evolution entries.

The state reached from the spin-up eigenstate is the first column of the
evolution operator, (a, -conj(b)); from spin-down it is the second column,
(b, conj(a)). All expectation values are dimensionless Pauli expectations
in [-1, 1] (no hbar factor: sigma eigenvalues are +-1).
"""

from __future__ import annotations

import numpy as np

from .errors import check_name

__all__ = ["pauli_series"]


def pauli_series(a: np.ndarray, b: np.ndarray, initial: str = "+"):
    """(sigma_x, sigma_y, sigma_z) over entry arrays, from the initial + or -.

    For + these are -2 Re(a b), 2 Im(a b) and |a|^2 - |b|^2; all three flip
    sign for -. Unlike the flip probability |b|^2, the transverse pair
    depends on the phase realization of the drive, not only on its modulus.
    """
    check_name("initial", initial, ("+", "-"))
    s = 1.0 if initial == "+" else -1.0
    a = np.asarray(a)
    b = np.asarray(b)
    prod = a * b
    sx = -2.0 * s * prod.real
    sy = 2.0 * s * prod.imag
    sz = s * (np.abs(a) ** 2 - np.abs(b) ** 2)
    return sx, sy, sz
