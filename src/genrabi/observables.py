"""Physical quantities derived from evolution entries.

The state reached from the spin-up eigenstate is the first column of the
evolution operator, (a, -conj(b)); from spin-down it is the second column,
(b, conj(a)). All expectation values are dimensionless Pauli expectations
in [-1, 1] (no hbar factor: sigma eigenvalues are +-1).
"""

from __future__ import annotations

import numpy as np

from .closed_forms import EvolutionEntries
from .errors import ConfigError

__all__ = [
    "transition_probability",
    "sigma_z_expectation",
    "sigma_xy_expectation",
    "pauli_series",
]

_INITIALS = ("+", "-")


def _sign(initial: str) -> float:
    if initial not in _INITIALS:
        raise ConfigError(f"initial must be '+' or '-', got {initial!r}")
    return 1.0 if initial == "+" else -1.0


def transition_probability(e: EvolutionEntries) -> float:
    """Spin-flip probability |b|^2; the survival probability is 1 - |b|^2."""
    return abs(e.b) ** 2


def sigma_z_expectation(e: EvolutionEntries, initial: str = "+") -> float:
    """Longitudinal expectation, +-(|a|^2 - |b|^2) for initial +-."""
    return float(pauli_series(e.a, e.b, initial)[2])


def sigma_xy_expectation(e: EvolutionEntries, axis: str, initial: str = "+") -> float:
    """Transverse expectation along x or y.

    For the initial + state: -2 Re(a b) along x and +2 Im(a b) along y,
    equivalently -+2|a||b| cos/sin of the summed entry phases. Both flip sign
    for the initial - state. Unlike the flip probability these depend on the
    phase realization of the drive, not only on its modulus.
    """
    if axis not in ("x", "y"):
        raise ConfigError(f"axis must be 'x' or 'y', got {axis!r}")
    return float(pauli_series(e.a, e.b, initial)["xy".index(axis)])


def pauli_series(a: np.ndarray, b: np.ndarray, initial: str = "+"):
    """Vectorized (sigma_x, sigma_y, sigma_z) over entry arrays."""
    s = _sign(initial)
    a = np.asarray(a)
    b = np.asarray(b)
    prod = a * b
    sx = -2.0 * s * prod.real
    sy = 2.0 * s * prod.imag
    sz = s * (np.abs(a) ** 2 - np.abs(b) ** 2)
    return sx, sy, sz
