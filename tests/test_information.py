"""Joint distribution, mutual information, Holevo, accessible-info tests."""

import numpy as np
import pytest
from scipy.optimize import minimize

from helpers import (
    identical_config,
    orthonormal_config,
    overlap_config,
    random_pure_config,
    rng_for,
)
from pathduality import (
    DimensionMismatchError,
    Ensemble,
    InterferometerConfig,
    JointDistribution,
    PathDistribution,
    Povm,
    accessible_info_lower_bound,
    helstrom_povm_two,
    holevo_quantity,
    information,
    joint_distribution,
    mutual_information,
    pretty_good_measurement,
    pure_duality_batch,
    rng_stream,
    sample_config,
    sample_random_povm,
    shannon_entropy,
)
from pathduality.model import DetectorSet

# Capacity of the binary symmetric channel a Helstrom readout of the
# overlap-0.6 pair realizes: 1 - H2(0.1).
BSC_01_CAPACITY = 0.5310044064107188


def basis_config(probs):
    p = np.asarray(probs, dtype=np.float64)
    return InterferometerConfig(PathDistribution(p), DetectorSet(np.eye(p.size)))


def projector_povm(d):
    return Povm(tuple(np.diag(np.eye(d)[k]) for k in range(d)))


class TestJointDistribution:
    def test_matching_projectors_give_diagonal_table(self):
        config = basis_config([0.2, 0.3, 0.5])
        joint = joint_distribution(projector_povm(3), config)
        assert np.allclose(joint.table, np.diag([0.2, 0.3, 0.5]), atol=1e-12)

    def test_uniform_guess_gives_product_table(self):
        config = basis_config([0.2, 0.3, 0.5])
        povm = Povm(tuple(np.eye(3) / 3 for _ in range(3)))
        joint = joint_distribution(povm, config)
        expected = np.tile([0.2, 0.3, 0.5], (3, 1)) / 3
        assert np.allclose(joint.table, expected, atol=1e-12)

    def test_helstrom_readout_of_overlap_06(self):
        config = overlap_config(0.6)
        povm = helstrom_povm_two(Ensemble.from_config(config))
        joint = joint_distribution(povm, config)
        assert np.allclose(joint.table, [[0.45, 0.05], [0.05, 0.45]], atol=1e-10)

    def test_column_marginals_are_the_priors(self):
        rng = rng_for(20)
        for seed in range(6):
            config = random_pure_config(rng_for(2000 + seed), 4, 3)
            povm = sample_random_povm(4, 3, rng)
            joint = joint_distribution(povm, config)
            assert np.abs(joint.label_marginal() - config.priors.probs).max() <= 1e-12

    def test_dimension_mismatch(self):
        config = overlap_config(0.6)
        with pytest.raises(DimensionMismatchError):
            joint_distribution(projector_povm(3), config)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            JointDistribution(np.array([[0.5, 0.5], [0.5, 0.5]]))  # sums to 2
        with pytest.raises(ValueError):
            JointDistribution(np.array([[0.6, 0.5], [0.0, -0.1]]))  # negative entry
        clamped = JointDistribution(np.array([[0.5, 0.5], [-1e-14, 0.0]]))
        assert clamped.table.min() == 0.0


class TestMutualInformation:
    def test_perfect_correlation_gives_label_entropy(self):
        joint = JointDistribution(np.diag([0.25, 0.25, 0.25, 0.25]))
        assert mutual_information(joint) == pytest.approx(2.0, abs=1e-12)

    def test_product_table_gives_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.6, 0.4])
        joint = JointDistribution(np.outer(q, p))
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_table(self):
        joint = JointDistribution(np.array([[0.45, 0.05], [0.05, 0.45]]))
        assert mutual_information(joint) == pytest.approx(BSC_01_CAPACITY, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_by_label_entropy(self, seed):
        rng = rng_for(2100 + seed)
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        config = random_pure_config(rng, n, d)
        joint = joint_distribution(sample_random_povm(n, d, rng), config)
        mi = mutual_information(joint)
        assert -1e-9 <= mi <= shannon_entropy(config.priors) + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_merging_outcomes_never_helps(self, seed):
        rng = rng_for(2200 + seed)
        n, d = 4, 3
        config = random_pure_config(rng, n, d)
        povm = sample_random_povm(n, d, rng)
        merged = Povm(
            (povm.elements[0] + povm.elements[1],) + povm.elements[2:]
        )
        before = mutual_information(joint_distribution(povm, config))
        after = mutual_information(joint_distribution(merged, config))
        assert after <= before + 1e-9


class TestHolevoQuantity:
    def test_identical_detectors(self):
        assert holevo_quantity(identical_config(3, 2)) == pytest.approx(0.0, abs=1e-9)

    def test_orthonormal_detectors(self):
        config = basis_config([0.2, 0.3, 0.5])
        assert holevo_quantity(config) == pytest.approx(
            shannon_entropy(config.priors), abs=1e-12
        )

    def test_overlap_06(self):
        assert holevo_quantity(overlap_config(0.6)) == pytest.approx(
            0.7219280948873623, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_dominates_every_measurement(self, seed):
        rng = rng_for(2300 + seed)
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        config = random_pure_config(rng, n, d)
        chi = holevo_quantity(config)
        ens = Ensemble.from_config(config)
        povms = [pretty_good_measurement(ens), sample_random_povm(n, d, rng)]
        if n == 2:
            povms.append(helstrom_povm_two(ens))
        for povm in povms:
            mi = mutual_information(joint_distribution(povm, config))
            assert mi <= chi + 1e-9


def grid_projective_max_mi(config, steps=20001):
    """Brute-force oracle: best projective measurement in a 2-state span.

    For two real unit states a rank-1 projective measurement in their span
    is parametrized by one angle; scan it densely and return the best
    mutual information found.
    """
    p = config.priors.probs
    a = config.detectors.states.real
    best = 0.0
    for theta in np.linspace(0.0, np.pi, steps):
        direction = np.array([np.cos(theta), np.sin(theta)])
        proj = np.outer(direction, direction)
        povm = Povm((proj, np.eye(2) - proj))
        table = np.array(
            [[float((row @ element @ row).real) for row in a] for element in povm.elements]
        )
        best = max(best, mutual_information(JointDistribution(table * p)))
    return best


def two_outcome_mi(coords, priors, angles):
    """MI of the projective measurement onto u = (cos t, e^{i f} sin t) and
    its complement, for states with 2-d coordinates ``coords`` (2 x 2, one
    state per row), at each (t, f) row of ``angles``."""
    t, f = angles[:, 0], angles[:, 1]
    u = np.stack([np.cos(t), np.exp(1j * f) * np.sin(t)], axis=1)
    hit = np.abs(u.conj() @ coords.T) ** 2  # P(outcome 0 | path j)
    table = np.stack([hit, 1.0 - hit], axis=1) * priors  # (grid, outcome, path)

    def h(x):
        x = np.clip(x, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, -x * np.log2(x), 0.0)

    return h(table.sum(axis=2)).sum(axis=1) + h(priors).sum() - h(table).sum(axis=(1, 2))


def refined_projective_max_mi(config):
    """Best two-outcome projective measurement in the span of two states.

    The states get coordinates in an orthonormal basis of a plane holding
    their span (padded with zeros at d = 1). An (angle, phase) grid over
    t in [0, pi/2], f in [0, 2 pi) covers every such measurement up to
    swapping the outcomes; Nelder-Mead then refines the two best grid points.
    """
    priors = config.priors.probs
    states = config.detectors.states
    _, _, vh = np.linalg.svd(states)
    coords = np.zeros((2, 2), dtype=complex)
    coords[:, : min(2, vh.shape[0])] = states @ vh[:2].conj().T
    t, f = np.meshgrid(np.linspace(0.0, np.pi / 2, 33), np.linspace(0.0, 2 * np.pi, 32))
    grid = np.stack([t.ravel(), f.ravel()], axis=1)
    values = two_outcome_mi(coords, priors, grid)
    best = float(values.max())
    for start in grid[np.argsort(values)[-2:]]:
        result = minimize(
            lambda x: -two_outcome_mi(coords, priors, x[np.newaxis])[0], start,
            method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-16},
        )
        best = max(best, -float(result.fun))
    return best


class TestAccessibleInfoLowerBound:
    def test_orthonormal_detectors(self):
        config = basis_config([0.2, 0.3, 0.5])
        value = accessible_info_lower_bound(config, restarts=2, seed=0)
        assert value == pytest.approx(shannon_entropy(config.priors), abs=1e-9)

    def test_identical_detectors(self):
        value = accessible_info_lower_bound(identical_config(3, 2), restarts=2, seed=0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_overlap_06_matches_projective_grid(self):
        config = overlap_config(0.6)
        value = accessible_info_lower_bound(config, restarts=4, seed=0)
        assert value == pytest.approx(BSC_01_CAPACITY, abs=1e-9)
        oracle = grid_projective_max_mi(config)
        assert value >= oracle - 1e-8

    def test_two_paths_reach_the_best_projective_measurement(self):
        # Two-outcome projective measurements in the span attain the
        # accessible information of two pure states (Levitin, 1995), so the
        # N = 2 value must reach their refined optimum on every pair.
        shortfalls = []
        for k in range(40):
            d, alpha = 1 + k % 3, (1.0, 0.05)[k // 3 % 2]
            config = sample_config(2, d, rng_stream(3301, k), alpha=alpha)
            value = accessible_info_lower_bound(config, restarts=0)
            shortfalls.append((refined_projective_max_mi(config) - value, k, d, alpha))
        worst = max(shortfalls)
        assert worst[0] <= 1e-12, f"shortfall {worst[0]:.3e} at (k, d, alpha) = {worst[1:]}"

    def test_deterministic_given_seed(self):
        config = overlap_config(0.3, probs=(0.6, 0.4))
        a = accessible_info_lower_bound(config, restarts=3, seed=7)
        b = accessible_info_lower_bound(config, restarts=3, seed=7)
        assert a == b

    def test_monotone_in_restarts(self):
        rng = rng_for(31)
        config = random_pure_config(rng, 3, 2)
        values = [
            accessible_info_lower_bound(config, restarts=r, seed=5) for r in (0, 1, 3, 6)
        ]
        assert all(lo <= hi + 1e-15 for lo, hi in zip(values, values[1:]))

    @pytest.mark.parametrize("seed", range(4))
    def test_between_best_candidate_and_holevo(self, seed):
        rng = rng_for(2400 + seed)
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        config = random_pure_config(rng, n, d)
        ens = Ensemble.from_config(config)
        pgm_mi = mutual_information(
            joint_distribution(pretty_good_measurement(ens), config)
        )
        value = accessible_info_lower_bound(config, restarts=2, seed=seed)
        assert value >= pgm_mi - 1e-12
        assert value <= holevo_quantity(config) + 1e-9


def no_search(coords, priors, rng):
    raise AssertionError("the rank-one search ran")


@pytest.mark.parametrize("config", [
    sample_config(2, 2, rng_stream(3302, 0)),
    identical_config(3, 2),
    sample_config(5, 1, rng_stream(3302, 1)),
], ids=["two-paths", "identical-3-2", "five-paths-d1"])
def test_two_paths_and_rank_one_need_no_search(config, monkeypatch):
    monkeypatch.setattr(information, "_ascend_rank_one_mi", no_search)
    value = accessible_info_lower_bound(config, restarts=8)
    core_mi = pure_duality_batch(config.priors.probs[None], config.detectors.states[None]).mi[0]
    assert value >= core_mi
    if config.n_paths > 2:
        # Parallel states: the accessible information is exactly 0.
        assert value == max(core_mi, 0.0)
        assert value >= 0.0


#: Stream addresses (10003, cell, k) of sample_config(N, N, alpha=0.05), with
#: N = 8, 12, 16 for cells 0, 1, 2: the 23 of k < 200 whose pretty good
#: measurement, built through pinv_sqrt, had table entries below -1e-12.
NEGATIVE_PGM_STREAMS = [
    (0, 0), (0, 1), (0, 3), (0, 24), (0, 30), (0, 33), (0, 34), (0, 51),
    (0, 66), (0, 75), (0, 82), (0, 141), (0, 158), (0, 161), (0, 163),
    (0, 173), (0, 185), (1, 31), (1, 74), (1, 114), (1, 145), (1, 177),
    (2, 64),
]


@pytest.mark.parametrize("cell, k", NEGATIVE_PGM_STREAMS)
def test_rank_deficient_candidates_lie_between_pgm_and_holevo(cell, k):
    n = (8, 12, 16)[cell]
    config = sample_config(n, n, rng_stream(10003, cell, k), alpha=0.05)
    core = pure_duality_batch(config.priors.probs[None], config.detectors.states[None])
    value = accessible_info_lower_bound(config, restarts=0)
    assert core.mi[0] <= value <= core.s_rho[0]
