"""Classical information extracted from the detectors.

A measurement on the detector side turns a configuration into a joint
distribution over (outcome, path). This module computes that table, its
mutual information, the Holevo bound that caps every measurement at once,
and a certified lower bound on the accessible information obtained by
explicit optimization over rank-one measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import _entropy_bits, von_neumann_entropy
from .core import pure_duality_batch
from .discrimination import DimensionMismatchError, Povm
from .model import InterferometerConfig, detector_density
from .sampling import rng_stream, sample_haar_unitary

__all__ = [
    "JointDistribution",
    "accessible_info_lower_bound",
    "holevo_quantity",
    "joint_distribution",
    "mutual_information",
]

#: Joint probabilities this far below zero are rounding and clamp to 0;
#: anything lower is rejected.
NEGATIVE_PROBABILITY_CLAMP = 1e-12

#: Column marginals of a joint table must reproduce the priors this closely.
MARGINAL_TOL = 1e-9

#: Local search budget for the accessible information optimizer.
MAX_SWEEPS = 500
IMPROVEMENT_TOL = 1e-10


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability table: rows are outcomes, columns are path labels.

    Usually square (one outcome per path), but merged or extended readouts
    give non-square tables, so only the row count is free. Entries within
    NEGATIVE_PROBABILITY_CLAMP below zero are clamped to exact zeros.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.table, dtype=np.float64)
        if t.ndim != 2:
            raise ValueError(f"expected a 2-d table, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("joint probabilities must be finite")
        smallest = float(t.min())
        if smallest < -NEGATIVE_PROBABILITY_CLAMP:
            raise ValueError(f"joint probability {smallest:.3e} is negative")
        np.clip(t, 0.0, None, out=t)
        total = float(t.sum())
        if abs(total - 1.0) > MARGINAL_TOL:
            raise ValueError(f"joint probabilities sum to {total!r}, expected 1")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def n_outcomes(self) -> int:
        return int(self.table.shape[0])

    @property
    def n_labels(self) -> int:
        return int(self.table.shape[1])

    def outcome_marginal(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def label_marginal(self) -> np.ndarray:
        return self.table.sum(axis=0)


def joint_distribution(povm: Povm, config: InterferometerConfig) -> JointDistribution:
    """Table with entry (i, j) = p_j * <eta_j| Pi_i |eta_j>.

    Column j sums to the prior p_j by POVM completeness; the constructor and
    a marginal check (within MARGINAL_TOL) enforce that, so an incomplete
    POVM cannot slip through as a lopsided table.
    """
    a = config.detectors.states
    if povm.dim != config.detector_dim:
        raise DimensionMismatchError(
            f"POVM dimension {povm.dim} != detector dimension {config.detector_dim}"
        )
    stacked = np.stack(povm.elements)
    conditional = np.einsum("jk,ikl,jl->ij", a.conj(), stacked, a).real
    joint = JointDistribution(conditional * config.priors.probs[np.newaxis, :])
    drift = float(np.abs(joint.label_marginal() - config.priors.probs).max())
    if drift > MARGINAL_TOL:
        raise ValueError(f"column marginals miss the priors by {drift:.3e}")
    return joint


def mutual_information(joint: JointDistribution) -> float:
    """H(M) + H(D) - H(M, D) in bits for the outcome/label pair."""
    return _table_mi(joint.table)


def holevo_quantity(config: InterferometerConfig) -> float:
    """Holevo bound of the detector ensemble, in bits.

    The marker states are pure, so their average entropy term vanishes and
    the bound collapses to the entropy of the detector density matrix. No
    measurement can extract more mutual information than this.
    """
    return von_neumann_entropy(detector_density(config))


def accessible_info_lower_bound(
    config: InterferometerConfig, restarts: int = 8, seed: int = 0
) -> float:
    """Best mutual information found by explicit measurement search.

    Every candidate is a genuine measurement, so the returned value is a
    certified lower bound on the accessible information. Candidates are the
    pretty good measurement, the two-state Helstrom measurement when N = 2,
    and ``restarts`` local searches over rank-one measurements started from
    Haar-random unitaries (streams (seed, 0) .. (seed, restarts - 1), so a
    larger budget only ever adds candidates and the result is monotone
    nondecreasing in ``restarts``).

    The search space is sound: mutual information is convex in the
    conditional distribution, so its maximum over measurements is attained
    at an extremal POVM, and measurement support outside the span of the
    detector states contributes nothing. Rank-one elements inside the span
    therefore suffice.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    priors = config.priors.probs
    states = config.detectors.states
    # The pretty good measurement's value is the core's own mi, so the bound
    # is never below the mi that analyze reports, not even by an ulp.
    best = float(pure_duality_batch(priors[np.newaxis], states[np.newaxis]).mi[0])
    if config.n_paths == 2:
        best = max(best, _helstrom_two_mi(priors, states))
    coords = _span_coordinates(states)
    for k in range(restarts):
        rng = rng_stream(seed, k)
        best = max(best, _ascend_rank_one_mi(coords, priors, rng))
    return best


def _helstrom_two_mi(priors: np.ndarray, states: np.ndarray) -> float:
    """Mutual information of the optimal two-state (Helstrom) measurement.

    With s^2 = |<eta_0|eta_1>|^2 and R = sqrt(1 - 4 p_0 p_1 s^2) it names
    path k correctly with probability (1 + (1 - 2 p_other s^2) / R) / 2.
    R = 0 means equal priors and parallel states: every measurement gives 0.
    """
    overlap_sq = abs(np.vdot(states[0], states[1])) ** 2
    radius = np.sqrt(max(1.0 - 4.0 * priors[0] * priors[1] * overlap_sq, 0.0))
    if radius == 0.0:
        return 0.0
    # The clip keeps rounding from pushing a bias out of [-1, 1].
    hit = (1.0 + np.clip((1.0 - 2.0 * priors[::-1] * overlap_sq) / radius, -1.0, 1.0)) / 2.0
    return _table_mi(np.array([[hit[0], 1.0 - hit[1]], [1.0 - hit[0], hit[1]]]) * priors)


def _span_coordinates(states: np.ndarray) -> np.ndarray:
    """Coordinates (r x N) of the states in an orthonormal basis of their span."""
    _, singulars, vh = np.linalg.svd(states, full_matrices=False)
    rank = int(np.sum(singulars > singulars[0] * 1e-12))
    basis = vh[:rank]
    return basis.conj() @ states.T


def _table_mi(table: np.ndarray) -> float:
    h_rows = _entropy_bits(table.sum(axis=1), clamp=0.0, what="marginal")
    h_cols = _entropy_bits(table.sum(axis=0), clamp=0.0, what="marginal")
    h_cells = _entropy_bits(table.ravel(), clamp=0.0, what="joint probability")
    return h_rows + h_cols - h_cells


def _plogp(x: np.ndarray) -> np.ndarray:
    """Elementwise -x log2 x with 0 log 0 = 0; x must be >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, -x * np.log2(x), 0.0)


def _ascend_rank_one_mi(
    coords: np.ndarray, priors: np.ndarray, rng: np.random.Generator
) -> float:
    """Coordinate ascent over N-outcome rank-one measurements in the span.

    A measurement is parametrized by a unitary U: outcome i is the projector
    onto the i-th row of the isometry U[:, :r], giving amplitude table
    A = U[:, :r] @ coords and joint table p_j |A_ij|^2. Sweeps optimize one
    two-row rotation (angle and relative phase) at a time by pattern search;
    each rotation preserves column sums, so completeness is exact
    throughout. Stops when a full sweep improves mutual information by less
    than IMPROVEMENT_TOL or after MAX_SWEEPS sweeps.

    A pair whose two rows have not changed since its last optimization is
    skipped: the search is deterministic in the rows, so rerunning it would
    reproduce the same rejected candidate.
    """
    rank, n = coords.shape
    unitary = sample_haar_unitary(n, rng)
    amplitudes = unitary[:, :rank] @ coords
    current = _table_mi(_amp_table(amplitudes, priors))
    moves = 0
    row_stamp = [0] * n
    pair_stamp: dict[tuple[int, int], int] = {}
    for _ in range(MAX_SWEEPS):
        at_start = current
        for a in range(n - 1):
            for b in range(a + 1, n):
                last = pair_stamp.get((a, b), -1)
                if row_stamp[a] <= last and row_stamp[b] <= last:
                    continue
                amplitudes, current, moved = _optimize_pair(
                    amplitudes, priors, a, b, current
                )
                pair_stamp[(a, b)] = moves
                if moved:
                    moves += 1
                    row_stamp[a] = moves
                    row_stamp[b] = moves
        if current - at_start < IMPROVEMENT_TOL:
            break
    # report the exact table value, not the last pattern-search score
    return _table_mi(_amp_table(amplitudes, priors))


def _amp_table(amplitudes: np.ndarray, priors: np.ndarray) -> np.ndarray:
    return (amplitudes.real**2 + amplitudes.imag**2) * priors[np.newaxis, :]


def _optimize_pair(
    amplitudes: np.ndarray,
    priors: np.ndarray,
    a: int,
    b: int,
    current: float,
) -> tuple[np.ndarray, float, bool]:
    """Best two-row rotation G(theta, phi) applied to rows a and b.

    Rows a and b mix as
        row_a' = cos(theta) row_a - sin(theta) e^{i phi} row_b
        row_b' = sin(theta) e^{-i phi} row_a + cos(theta) row_b
    and only those two rows of the joint table move, with their column sums
    (and hence the label marginal) unchanged. The 2-d (theta, phi) landscape
    is scanned on a coarse grid and refined by a shrinking 3 x 3 pattern
    search; the identity rotation stays a candidate throughout, so the
    ascent never regresses.

    Only the weighted row intensities enter the score, so it is evaluated in
    real arithmetic: with raa = p |row_a|^2, rbb = p |row_b|^2 and
    w(phi) = Re(e^{i phi} p conj(row_a) row_b), the candidate rows of the
    joint table are
        ta = cos^2 raa + sin^2 rbb - 2 cos sin w
        tb = sin^2 raa + cos^2 rbb + 2 cos sin w
    """
    table = _amp_table(amplitudes, priors)
    fixed_rows = np.delete(table, (a, b), axis=0)
    fixed_cells_h = float(_plogp(fixed_rows).sum())
    fixed_rowsum_h = float(_plogp(fixed_rows.sum(axis=1)).sum())
    h_labels = float(_plogp(table.sum(axis=0)).sum())
    row_a, row_b = amplitudes[a], amplitudes[b]
    raa = table[a]
    rbb = table[b]
    cross = priors * (row_a.conj() * row_b)

    def score(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        cos = np.cos(thetas)
        sin = np.sin(thetas)
        cos2 = (cos * cos)[:, None]
        sin2 = (sin * sin)[:, None]
        mix = (2.0 * cos * sin)[:, None] * (
            np.cos(phis)[:, None] * cross.real[None, :]
            - np.sin(phis)[:, None] * cross.imag[None, :]
        )
        ta = cos2 * raa[None, :] + sin2 * rbb[None, :] - mix
        tb = sin2 * raa[None, :] + cos2 * rbb[None, :] + mix
        np.clip(ta, 0.0, None, out=ta)
        np.clip(tb, 0.0, None, out=tb)
        h_rows = fixed_rowsum_h + _plogp(ta.sum(axis=1)) + _plogp(tb.sum(axis=1))
        h_cells = fixed_cells_h + _plogp(ta).sum(axis=1) + _plogp(tb).sum(axis=1)
        return h_rows + h_labels - h_cells

    theta_grid, phi_grid = np.meshgrid(
        np.linspace(-np.pi / 2, np.pi / 2, 9), np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    )
    thetas = np.append(theta_grid.ravel(), 0.0)
    phis = np.append(phi_grid.ravel(), 0.0)
    values = score(thetas, phis)
    pick = int(np.argmax(values))
    best_theta, best_phi, best_value = thetas[pick], phis[pick], float(values[pick])

    theta_step, phi_step = np.pi / 16, np.pi / 4
    offsets = np.array([-1.0, 0.0, 1.0])
    for _ in range(40):
        t_cand = (best_theta + offsets * theta_step).repeat(3)
        p_cand = np.tile(best_phi + offsets * phi_step, 3)
        values = score(t_cand, p_cand)
        pick = int(np.argmax(values))
        if float(values[pick]) > best_value:
            best_theta, best_phi, best_value = t_cand[pick], p_cand[pick], float(values[pick])
            moved_center = pick == 4
        else:
            moved_center = True
        if moved_center:
            theta_step /= 2.0
            phi_step /= 2.0
            if theta_step < 1e-8:
                break
            # a flat landscape at fine resolution has nothing left to give
            if theta_step < 1e-6 and best_value - current < 1e-12:
                break

    if best_value <= current:
        return amplitudes, current, False
    cos = np.cos(best_theta)
    mix = np.sin(best_theta) * np.exp(1j * best_phi)
    updated = amplitudes.copy()
    updated[a] = cos * row_a - mix * row_b
    updated[b] = np.conj(mix) * row_a + cos * row_b
    return updated, best_value, True
