"""Coherence measures and the entropies behind them.

All entropies are base 2 and reported in bits. Both coherence measures are
basis dependent: they read a density matrix in its storage basis, so build
matrices in the path basis (as particle_density does) before calling.
"""

from __future__ import annotations

import numpy as np

from .linalg import NotPsdError, eig_hermitian
from .model import DensityMatrix, PathDistribution

__all__ = [
    "EIGENVALUE_CLAMP",
    "l1_coherence",
    "normalized_coherence",
    "rel_ent_coherence",
    "shannon_entropy",
    "von_neumann_entropy",
]

#: Values in [-EIGENVALUE_CLAMP, 0] are treated as exact zeros inside
#: entropy sums; anything more negative is rejected as not a distribution.
EIGENVALUE_CLAMP = 1e-9


def _entropy_bits(values: np.ndarray, clamp: float, what: str) -> float:
    """-sum v log2 v over the positive entries, with 0 log 0 = 0.

    A distribution concentrated on one entry gives +0.0, not -0.0.
    """
    vals = np.asarray(values, dtype=np.float64)
    smallest = float(vals.min(initial=0.0))
    if smallest < -clamp:
        raise NotPsdError(f"{what} {smallest:.3e} below allowed -{clamp:.0e}")
    vals = vals[vals > 0.0]
    if vals.size == 0:
        return 0.0
    return 0.0 - float((vals * np.log2(vals)).sum())


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of all off-diagonal entries."""
    magnitudes = np.abs(rho.matrix)
    return float(magnitudes.sum() - np.trace(magnitudes))


def normalized_coherence(rho: DensityMatrix) -> float:
    """l1 coherence divided by the dimension; ranges over [0, (N-1)/N]."""
    return l1_coherence(rho) / rho.dim


def shannon_entropy(dist: PathDistribution) -> float:
    """Entropy of the priors in bits."""
    return _entropy_bits(dist.probs, clamp=0.0, what="probability")


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the spectrum in bits.

    Eigenvalues within EIGENVALUE_CLAMP below zero count as exact zeros;
    anything more negative raises NotPsdError.
    """
    w = eig_hermitian(rho.matrix).eigenvalues
    return _entropy_bits(w, clamp=EIGENVALUE_CLAMP, what="eigenvalue")


def rel_ent_coherence(rho: DensityMatrix) -> float:
    """Relative entropy of coherence: S(diag(rho)) - S(rho), in bits.

    This is the distance (in relative entropy) from ``rho`` to its own
    dephased diagonal, and it vanishes exactly when ``rho`` is diagonal.
    """
    diag = np.diag(rho.matrix).real
    dephased = _entropy_bits(diag, clamp=EIGENVALUE_CLAMP, what="diagonal entry")
    return dephased - von_neumann_entropy(rho)
