"""Tests for the two duality relations and their reports."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathduality import (
    CSV_HEADER,
    Ensemble,
    InterferometerConfig,
    JointDistribution,
    PathDistribution,
    SweepSpec,
    accessible_info_lower_bound,
    build_config,
    duality_report,
    entropic_duality_report,
    helstrom_povm_two,
    iter_sweep,
    l1_duality_report,
    mutual_information,
    normalized_coherence,
    particle_density,
    pretty_good_measurement,
    pure_duality_batch,
    rel_ent_coherence,
    sample_random_povm,
    schwarz_chain_check,
    shannon_entropy,
    success_upper_bound,
)
from pathduality.core import REPORT_FIELDS
from pathduality.model import DetectorSet

from helpers import (
    identical_config,
    overlap_config,
    random_pure_config,
    rng_for,
)

seeds = st.integers(min_value=0, max_value=10**6)


def basis_config(probs):
    p = np.asarray(probs, dtype=np.float64)
    return InterferometerConfig(PathDistribution(p), DetectorSet(np.eye(p.size)))


class TestL1DualityReport:
    def test_orthonormal_any_priors_is_tight(self):
        report = l1_duality_report(basis_config([0.1, 0.2, 0.3, 0.4]))
        assert report.x == 0.0
        assert report.ps_bound == pytest.approx(1.0, abs=1e-12)
        assert report.gap_l1 == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_identical_uniform_is_tight_at_the_other_end(self, n):
        report = l1_duality_report(identical_config(n, 2))
        assert report.ps_bound == 1.0 / n
        assert report.x == pytest.approx((n - 1) / n, abs=1e-12)
        assert report.gap_l1 == pytest.approx(0.0, abs=1e-10)

    def test_overlap_06_saturates_the_circle(self):
        report = l1_duality_report(overlap_config(0.6))
        assert report.x == pytest.approx(0.3, abs=1e-12)
        assert report.ps_bound == pytest.approx(0.9, abs=1e-12)
        assert report.lhs_l1 == pytest.approx(0.25, abs=1e-12)
        assert report.rhs_l1 == 0.25
        assert report.gap_l1 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_two_path_pure_always_saturates(self, seed):
        rng = rng_for(3000 + seed)
        config = random_pure_config(rng, 2, int(rng.integers(1, 6)))
        report = l1_duality_report(config)
        assert abs(report.gap_l1) <= 1e-10

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_holds_on_random_configurations(self, seed):
        rng = rng_for(seed)
        n = int(rng.integers(2, 7))
        config = random_pure_config(rng, n, int(rng.integers(1, 2 * n + 1)))
        report = l1_duality_report(config)
        assert report.gap_l1 >= -1e-9
        assert report.rhs_l1 == (1.0 - 1.0 / n) ** 2

    def test_json_dict_carries_only_the_evaluated_side(self):
        report = l1_duality_report(overlap_config(0.2))
        data = report.to_json_dict()
        assert set(data) == {"n_paths", "x", "ps_bound", "lhs_l1", "rhs_l1", "gap_l1"}


class TestEntropicDualityReport:
    def test_orthonormal_with_matching_projectors_is_tight(self):
        config = basis_config([0.2, 0.3, 0.5])
        povm = pretty_good_measurement(Ensemble.from_config(config))
        report = entropic_duality_report(config, povm)
        assert report.c_rel == pytest.approx(0.0, abs=1e-10)
        assert report.mi == pytest.approx(shannon_entropy(config.priors), abs=1e-10)
        assert report.gap_entropic == pytest.approx(0.0, abs=1e-9)

    def test_identical_detectors_are_tight_with_any_povm(self):
        config = identical_config(3, 2)
        rng = rng_for(99)
        for povm in (
            pretty_good_measurement(Ensemble.from_config(config)),
            sample_random_povm(3, 2, rng),
        ):
            report = entropic_duality_report(config, povm)
            assert report.mi == pytest.approx(0.0, abs=1e-10)
            assert report.c_rel == pytest.approx(np.log2(3), abs=1e-9)
            assert report.gap_entropic == pytest.approx(0.0, abs=1e-9)

    def test_overlap_06_with_helstrom_readout(self):
        config = overlap_config(0.6)
        povm = helstrom_povm_two(Ensemble.from_config(config))
        report = entropic_duality_report(config, povm)
        assert report.c_rel == pytest.approx(0.2780719051126377, abs=1e-10)
        assert report.mi == pytest.approx(0.5310044064107188, abs=1e-10)
        assert report.h_priors == 1.0
        assert report.gap_entropic == pytest.approx(0.19092368847664365, abs=1e-10)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_holds_for_random_config_povm_pairs(self, seed):
        rng = rng_for(seed)
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 2 * n + 1))
        config = random_pure_config(rng, n, d)
        ens = Ensemble.from_config(config)
        for povm in (pretty_good_measurement(ens), sample_random_povm(n, d, rng)):
            report = entropic_duality_report(config, povm)
            assert report.gap_entropic >= -1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_holds_with_optimized_measurement(self, seed):
        from pathduality import particle_density, rel_ent_coherence

        rng = rng_for(3100 + seed)
        config = random_pure_config(rng, 3, 2)
        c_rel = rel_ent_coherence(particle_density(config))
        acc = accessible_info_lower_bound(config, restarts=2, seed=seed)
        assert shannon_entropy(config.priors) - c_rel - acc >= -1e-9


class TestMergedReport:
    def test_merges_both_sides_exactly(self):
        config = overlap_config(0.4, probs=(0.3, 0.7))
        povm = helstrom_povm_two(Ensemble.from_config(config))
        merged = duality_report(config, povm)
        left = l1_duality_report(config)
        right = entropic_duality_report(config, povm)
        assert merged.x == left.x
        assert merged.ps_bound == left.ps_bound
        assert merged.gap_l1 == left.gap_l1
        assert merged.c_rel == right.c_rel
        assert merged.mi == right.mi
        assert merged.gap_entropic == right.gap_entropic
        assert set(merged.to_json_dict()) == {
            "n_paths", "x", "ps_bound", "lhs_l1", "rhs_l1", "gap_l1",
            "c_rel", "mi", "h_priors", "gap_entropic",
        }


def hard_config(seed, n, d, alpha, zeros, spread):
    """A configuration from the regions where the numerics are delicate.

    Priors are Dirichlet(alpha) with ``zeros`` of them set exactly to 0
    (the largest always survives). Detector states are a common unit vector
    plus ``spread`` times a random one, so spread -> 0 drives every overlap
    to 1.
    """
    rng = rng_for(seed)
    probs = rng.dirichlet(np.full(n, alpha))
    probs[np.argsort(probs)[:zeros]] = 0.0
    common = np.zeros(d, dtype=complex)
    common[0] = 1.0
    noise = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    states = common + spread * noise
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return build_config(probs / probs.sum(), states)


@st.composite
def hard_configs(draw, n=None, d=None):
    n = draw(st.integers(2, 16)) if n is None else n
    if d is None:
        d = draw(st.sampled_from(sorted({1, 2, max(n // 2, 1), n, 2 * n})))
    return hard_config(
        seed=draw(seeds), n=n, d=d,
        alpha=draw(st.sampled_from([0.01, 0.05, 1.0])),
        zeros=draw(st.integers(0, n - 1)),
        spread=draw(st.sampled_from([0.0, 1e-9, 1e-5, 1e-2, 1.0, 1e3])),
    )


@st.composite
def same_shape_batches(draw):
    n = draw(st.integers(2, 16))
    d = draw(st.sampled_from(sorted({1, 2, n, 2 * n})))
    return draw(st.lists(hard_configs(n=n, d=d), min_size=2, max_size=6))


def core_of(configs):
    return pure_duality_batch(
        np.stack([c.priors.probs for c in configs]),
        np.stack([c.detectors.states for c in configs]),
    )


def pgm_mutual_information(config):
    """PGM mutual information through the general mixed-state path.

    joint_distribution rejects entries below -1e-12, and the pseudo-inverse
    square root leaves round-off larger than that in the tables of
    rank-deficient ensembles, so the table is built here and clipped.
    """
    povm = pretty_good_measurement(Ensemble.from_config(config))
    a = config.detectors.states
    conditional = np.einsum("jk,ikl,jl->ij", a.conj(), np.stack(povm.elements), a).real
    table = np.clip(conditional * config.priors.probs, 0.0, None)
    return mutual_information(JointDistribution(table))


def mp_entropic_reference(config, digits=40):
    """S(rho) and the PGM mutual information at ``digits`` digits.

    Both come from the priors and the states renormalized at that
    precision, so that rho has exact rank. Setting rho's diagonal to the
    float priors instead would give the reference a kernel near 1e-17 of
    its own, which moves its mutual information by about 5e-9.
    """
    with mpmath.workdps(digits):
        p = [mpmath.mpf(float(v)) for v in config.priors.probs]
        p = [v / sum(p) for v in p]
        states = []
        for row in config.detectors.states:
            vec = [mpmath.mpc(complex(z)) for z in row]
            norm = mpmath.sqrt(sum(abs(z) ** 2 for z in vec))
            states.append([z / norm for z in vec])
        n = len(p)
        rho = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                overlap = sum(x * mpmath.conj(y) for x, y in zip(states[i], states[j]))
                rho[i, j] = mpmath.sqrt(p[i] * p[j]) * overlap
        eigenvalues, vectors = mpmath.eighe(rho)
        roots = [mpmath.sqrt(max(w, 0)) for w in eigenvalues]
        table = [[abs(sum(vectors[i, k] * roots[k] * mpmath.conj(vectors[j, k])
                          for k in range(n))) ** 2 for j in range(n)] for i in range(n)]

        def entropy(values):
            return -sum(v * mpmath.log(v, 2) for v in values if v > 0)

        rows = [sum(table[i]) for i in range(n)]
        cols = [sum(table[i][j] for i in range(n)) for j in range(n)]
        return float(entropy(eigenvalues)), float(
            entropy(rows) + entropy(cols) - entropy(sum(table, []))
        )


class TestPureDualityBatch:
    @given(hard_configs())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_mixed_state_path(self, config):
        batch = core_of([config])
        rho = particle_density(config)
        assert batch.x[0] == pytest.approx(normalized_coherence(rho), abs=1e-10)
        assert batch.ps_bound[0] == pytest.approx(
            success_upper_bound(Ensemble.from_config(config)), abs=1e-9
        )
        assert batch.c_rel[0] == pytest.approx(rel_ent_coherence(rho), abs=1e-9)
        assert batch.h_priors[0] == pytest.approx(shannon_entropy(config.priors), abs=1e-12)
        assert batch.mi[0] == pytest.approx(pgm_mutual_information(config), abs=1e-9)
        assert batch.gap_l1[0] >= -1e-9
        assert batch.gap_entropic[0] >= -1e-9

    @given(hard_configs())
    @settings(max_examples=100, deadline=None)
    def test_pgm_table_is_a_distribution_with_the_priors_as_marginal(self, config):
        table = core_of([config]).pgm_table[0]
        assert table.min() >= 0.0
        assert np.abs(table.sum(axis=0) - config.priors.probs).max() <= 1e-12

    @given(same_shape_batches())
    @settings(max_examples=60, deadline=None)
    def test_batched_and_single_calls_are_bit_identical(self, configs):
        batch = core_of(configs)
        for k, config in enumerate(configs):
            single = core_of([config])
            for name in REPORT_FIELDS + ("pgm_table",):
                assert np.array_equal(getattr(batch, name)[k], getattr(single, name)[0]), name

    def test_report_and_rows_match_the_arrays(self):
        configs = [overlap_config(0.6), overlap_config(0.2, probs=(0.3, 0.7))]
        batch = core_of(configs)
        rows = batch.csv_rows(["a", 0.5])
        assert [row.split(",")[0] for row in rows] == ["a", "0.5"]
        for k, row in enumerate(rows):
            values = [float(field) for field in row.split(",")[1:]]
            assert values == [getattr(batch, name)[k] for name in REPORT_FIELDS]
        assert l1_duality_report(configs[1]).gap_l1 == batch.gap_l1[1]

    @pytest.mark.parametrize("n, d, alpha, seed", [
        (5, 2, 1.0, 2), (5, 3, 1.0, 9), (6, 3, 1.0, 3), (6, 4, 1.0, 6),
        (5, 3, 0.01, 5), (6, 5, 0.01, 5),
    ])
    def test_rank_deficient_pgm_matches_a_40_digit_reference(self, n, d, alpha, seed):
        # d < N leaves rho with a kernel, which float64 returns as
        # eigenvalues of order eps; their square roots once put 1-2e-8 bits
        # of error into the first four cases' mutual information.
        rng = np.random.default_rng([n, d, round(alpha * 100), seed])
        probs = rng.dirichlet(np.full(n, alpha))
        states = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        config = build_config(probs, states / np.linalg.norm(states, axis=1, keepdims=True))
        assert core_of([config]).mi[0] == pytest.approx(mp_entropic_reference(config)[1],
                                                        abs=1e-12)

    @pytest.mark.parametrize("n, d, alpha, theta, seed", [
        (3, 1, 1.0, None, 0), (4, 3, 1.0, None, 1), (5, 2, 1.0, None, 2),
        (6, 1, 1.0, None, 3), (6, 4, 1.0, None, 4),
        (12, 4, 0.5, 1e-4, 0), (12, 4, 0.5, 1e-4, 1), (12, 4, 0.5, 1e-6, 0),
        (12, 4, 0.5, 1e-6, 1), (12, 4, 0.5, 1e-8, 0), (12, 4, 0.5, 1e-8, 1),
        (5, 5, 0.05, None, 1), (4, 6, 0.05, None, 1), (6, 12, 0.05, None, 3),
    ])
    def test_entropic_side_matches_a_40_digit_reference(self, n, d, alpha, theta, seed):
        # Random states at d < N and at d >= N with lopsided priors, and
        # near-parallel states e0 + theta * g, whose S(rho) is as small as
        # 2e-14 at theta = 1e-8. An eigensolve of rho returned its kernel
        # as eigenvalues of order eps, which cost S(rho) up to 1.4e-14 and
        # the mutual information up to 2.9e-14 on these cases.
        rng = np.random.default_rng([n, d, round(alpha * 100), seed])
        probs = rng.dirichlet(np.full(n, alpha))
        noise = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        states = noise if theta is None else np.eye(d)[0] + theta * noise
        config = build_config(probs, states / np.linalg.norm(states, axis=1, keepdims=True))
        s_rho, mi = mp_entropic_reference(config)
        batch = core_of([config])
        assert abs(batch.s_rho[0] - s_rho) <= 4e-15
        assert abs(batch.mi[0] - mi) <= 1e-14

    def test_exact_zeros_of_the_verify_grid(self):
        # At d = 1 every state is the same up to phase, so S(rho), the
        # mutual information and the entropic gap are exactly 0; at N = 2
        # every pure pair saturates the quadratic relation. The values the
        # core returns there are its round-off, bounded in magnitude.
        cells = {}
        for sample in iter_sweep(SweepSpec(seed=42)):
            if sample.n == 2 or sample.d == 1:
                cells.setdefault((sample.n, sample.d), []).append(sample.config)
        for (n, d), configs in cells.items():
            batch = core_of(configs)
            if d == 1:
                assert np.abs(batch.s_rho).max() <= 2e-15, (n, d)
                assert np.abs(batch.mi).max() <= 5e-15, (n, d)
                assert np.abs(batch.gap_entropic).max() <= 5e-15, (n, d)
            if n == 2:
                assert np.abs(batch.gap_l1).max() <= 5e-16, (n, d)

    def test_pure_entropies_are_positive_zero(self):
        batch = core_of([basis_config([1.0, 0.0])])
        for name in ("h_priors", "c_rel", "mi", "gap_entropic"):
            value = getattr(batch, name)[0]
            assert value == 0.0 and np.copysign(1.0, value) == 1.0, name

    def test_rejects_unnormalized_states(self):
        # Validation happens where inputs enter; corrupted rows that bypass
        # it surface as errors, not as numbers.
        states = np.array([[[2.0, 0.0], [2.0, 0.0]]], dtype=complex)
        with pytest.raises(ValueError, match="radicand"):
            pure_duality_batch(np.array([[0.5, 0.5]]), states)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="expected probs"):
            pure_duality_batch(np.array([0.5, 0.5]), np.eye(2)[np.newaxis])


class TestSchwarzChain:
    def test_orthonormal_collapses_the_whole_chain(self):
        chain = schwarz_chain_check(basis_config([0.1, 0.2, 0.3, 0.4]))
        target = (1 - 1 / 4) ** 2
        assert chain.lhs == pytest.approx(target, abs=1e-12)
        assert chain.pair_term_sum == pytest.approx(target, abs=1e-12)
        assert chain.schwarz_bound == target

    @pytest.mark.parametrize("n", [2, 4])
    def test_identical_uniform_saturates_both_links(self, n):
        chain = schwarz_chain_check(identical_config(n, 2))
        target = (1 - 1 / n) ** 2
        assert chain.lhs == pytest.approx(target, abs=1e-12)
        assert chain.pair_term_sum == pytest.approx(target, abs=1e-12)

    def test_overlap_06_slack_lives_in_the_first_link_only(self):
        chain = schwarz_chain_check(overlap_config(0.6))
        assert chain.lhs == pytest.approx(0.25, abs=1e-12)
        assert chain.pair_term_sum == pytest.approx(0.25, abs=1e-12)
        assert chain.slack_pair >= -1e-9
        assert chain.slack_schwarz >= -1e-9

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_chain_is_monotone_on_random_configurations(self, seed):
        rng = rng_for(seed)
        n = int(rng.integers(2, 7))
        config = random_pure_config(rng, n, int(rng.integers(1, 2 * n + 1)))
        chain = schwarz_chain_check(config)
        assert chain.slack_pair >= -1e-9
        assert chain.slack_schwarz >= -1e-9
        assert chain.schwarz_bound == (1.0 - 1.0 / n) ** 2

    def test_crowded_low_dimension_leaves_schwarz_slack(self):
        # Four partially overlapping states in d = 2 sit strictly inside the
        # Schwarz link. With the success bound standing in for P_s, lhs and
        # pair_term_sum are the same sum, so the first link is an equality
        # up to round-off.
        rng = rng_for(55)
        config = random_pure_config(rng, 4, 2)
        chain = schwarz_chain_check(config)
        assert chain.lhs == pytest.approx(chain.pair_term_sum, abs=1e-15)
        assert chain.pair_term_sum < chain.schwarz_bound


class TestCsvRow:
    def test_header_names_every_field(self):
        assert CSV_HEADER == (
            "param,x,ps_bound,lhs_l1,rhs_l1,gap_l1,c_rel,mi,h_priors,gap_entropic"
        )

    def test_row_round_trips_through_repr_precision(self):
        batch = core_of([overlap_config(0.6)])
        (row,) = batch.csv_rows([0.6])
        fields = row.split(",")
        assert len(fields) == 10
        assert float(fields[0]) == 0.6
        assert float(fields[1]) == batch.x[0]
        assert float(fields[2]) == batch.ps_bound[0]
        assert float(fields[9]) == batch.gap_entropic[0]

    def test_string_params_pass_through(self):
        (row,) = core_of([overlap_config(0.0)]).csv_rows(["N2/d2/0"])
        assert row.startswith("N2/d2/0,")
