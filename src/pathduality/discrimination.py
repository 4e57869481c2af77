"""Minimum-error discrimination of the detector states.

Identifying which path the particle took is exactly the task of telling the
N prior-weighted detector states apart with one measurement. This module
carries the weighted difference (Helstrom) matrices, the N-state success
probability upper bound built from their trace norms, and two concrete
measurements to compare against it: the pretty good measurement and, for
two states, the optimal Helstrom measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import (
    DensityMatrix,
    InterferometerConfig,
    LengthMismatchError,
    PathDistribution,
)

__all__ = [
    "DimensionMismatchError",
    "Ensemble",
    "Povm",
    "WrongArityError",
    "helstrom_matrix",
    "helstrom_povm_two",
    "povm_success_probability",
    "pretty_good_measurement",
    "pure_pair_trace_norm",
    "success_upper_bound",
]

#: Closed-form radicands this far below zero indicate corrupted inputs
#: rather than rounding and are rejected.
RADICAND_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Matrices that must share a dimension do not."""


class WrongArityError(ValueError):
    """An operation restricted to a fixed number of states got another."""


@dataclass(frozen=True)
class Povm:
    """A measurement as a tuple of d x d outcome elements.

    Construction only normalizes storage (complex dtype, read-only, equal
    square shapes). Semantic checks, Hermiticity, positivity and
    completeness, live in model.validate_povm so that deliberately broken
    POVMs can still be built and inspected in tests.
    """

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.elements) == 0:
            raise ValueError("a POVM needs at least one element")
        frozen: list[np.ndarray] = []
        dim: int | None = None
        for idx, element in enumerate(self.elements):
            m = np.array(element, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"element {idx}: expected square matrix, got {m.shape}")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise DimensionMismatchError(
                    f"element {idx} is {m.shape[0]}-dimensional, element 0 is {dim}"
                )
            m.setflags(write=False)
            frozen.append(m)
        object.__setattr__(self, "elements", tuple(frozen))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return int(self.elements[0].shape[0])


@dataclass(frozen=True)
class Ensemble:
    """Prior-weighted quantum states to discriminate among.

    States may be mixed; ``from_config`` builds the pure-state ensemble of a
    detector configuration.
    """

    priors: PathDistribution
    states: tuple[DensityMatrix, ...]

    def __post_init__(self) -> None:
        if self.priors.n_paths != len(self.states):
            raise LengthMismatchError(
                f"{self.priors.n_paths} priors but {len(self.states)} states"
            )
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(dims)}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @classmethod
    def from_config(cls, config: InterferometerConfig) -> "Ensemble":
        states = tuple(DensityMatrix.pure(row) for row in config.detectors.states)
        return cls(config.priors, states)


def _check_indices(n: int, i: int, j: int) -> None:
    for name, idx in (("i", i), ("j", j)):
        if not 0 <= idx < n:
            raise IndexError(f"index {name}={idx} out of range for {n} states")


def helstrom_matrix(ensemble: Ensemble, i: int, j: int) -> np.ndarray:
    """Weighted difference p_i rho_i - p_j rho_j.

    Its positive-part trace is the bias a single measurement outcome can
    extract in favor of state i over state j; its trace norm drives the
    success bound.
    """
    _check_indices(ensemble.n_states, i, j)
    p = ensemble.priors.probs
    return p[i] * ensemble.states[i].matrix - p[j] * ensemble.states[j].matrix


def pure_pair_trace_norm(config: InterferometerConfig, i: int, j: int) -> float:
    """Closed-form trace norm of a pure-state Helstrom matrix.

    For pure states the trace norm of p_i rho_i - p_j rho_j is

        2 * sqrt( ((p_i + p_j) / 2)**2 - p_i p_j |<eta_i|eta_j>|**2 )

    which needs only the priors and one overlap, no eigensolve. Tiny
    negative radicands (rounding when the overlap magnitude grazes 1) are
    clamped to zero; radicands below -RADICAND_TOL are rejected. The i = j
    value is identically zero and returned as such, since the square root
    would otherwise amplify unit-norm rounding to ~1e-8.
    """
    _check_indices(config.n_paths, i, j)
    if i == j:
        return 0.0
    p = config.priors.probs
    overlap_sq = float(
        np.abs(np.vdot(config.detectors.states[i], config.detectors.states[j])) ** 2
    )
    radicand = ((p[i] + p[j]) / 2.0) ** 2 - p[i] * p[j] * overlap_sq
    if radicand < -RADICAND_TOL:
        raise ValueError(f"radicand {radicand:.3e} below -{RADICAND_TOL:.0e}")
    return 2.0 * np.sqrt(max(radicand, 0.0))


def success_upper_bound(ensemble: Ensemble) -> float:
    """Upper bound on the minimum-error identification probability:

        P_s <= 1/N + (1 / 2N) * sum_{i,j} ||p_i rho_i - p_j rho_j||_1

    The double sum runs over all ordered pairs; the i = j terms vanish and
    the (i, j) and (j, i) terms are equal, so each unordered pair is
    evaluated once and counted twice. For N = 2 this is the exact Helstrom
    success probability.
    """
    n = ensemble.n_states
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += linalg.trace_norm(helstrom_matrix(ensemble, i, j))
    return 1.0 / n + 2.0 * total / (2.0 * n)


def povm_success_probability(povm: Povm, ensemble: Ensemble) -> float:
    """sum_i p_i Tr(Pi_i rho_i): how often readout i fires for state i."""
    if len(povm) != ensemble.n_states:
        raise WrongArityError(
            f"{len(povm)} POVM elements for {ensemble.n_states} states"
        )
    if povm.dim != ensemble.dim:
        raise DimensionMismatchError(
            f"POVM dimension {povm.dim} != state dimension {ensemble.dim}"
        )
    p = ensemble.priors.probs
    total = 0.0
    for i, element in enumerate(povm.elements):
        total += float(p[i]) * float(np.trace(element @ ensemble.states[i].matrix).real)
    return total


def pretty_good_measurement(ensemble: Ensemble) -> Povm:
    """The square-root measurement of the weighted ensemble.

    Pi_i = S^(-1/2) p_i rho_i S^(-1/2) with S the ensemble average state,
    using the pseudo-inverse square root on the support of S. Whatever the
    elements leave uncovered (the kernel of S, which no ensemble state
    touches) is split evenly so the POVM is complete on the full space.
    """
    p = ensemble.priors.probs
    d = ensemble.dim
    average = np.zeros((d, d), dtype=np.complex128)
    for weight, state in zip(p, ensemble.states):
        average += weight * state.matrix
    root = linalg.pinv_sqrt(linalg.hermitian_part(average))
    elements = [
        linalg.hermitian_part(root @ (float(w) * s.matrix) @ root)
        for w, s in zip(p, ensemble.states)
    ]
    remainder = linalg.hermitian_part(np.eye(d) - sum(elements))
    share = remainder / len(elements)
    return Povm(tuple(e + share for e in elements))


def helstrom_povm_two(ensemble: Ensemble) -> Povm:
    """Optimal two-state measurement: project onto the positive eigenspace.

    Outcome 0 collects the strictly positive eigenvectors of the Helstrom
    matrix p_0 rho_0 - p_1 rho_1, outcome 1 everything else (zero modes
    included). Succeeds with probability (1 + ||Lambda||_1) / 2.
    """
    if ensemble.n_states != 2:
        raise WrongArityError(f"needs exactly 2 states, got {ensemble.n_states}")
    lam = helstrom_matrix(ensemble, 0, 1)
    dec = linalg.eig_hermitian(lam)
    positive = dec.eigenvectors[:, dec.eigenvalues > 0.0]
    first = linalg.hermitian_part(positive @ positive.conj().T)
    second = linalg.hermitian_part(np.eye(ensemble.dim) - first)
    return Povm((first, second))
