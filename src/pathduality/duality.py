"""The two duality relations: reference reports and the Schwarz chain.

For an N-path configuration with success bound P_s, normalized coherence X,
relative-entropy coherence C_rel, measured mutual information I and prior
entropy H:

    quadratic:  (P_s - 1/N)^2 + X^2  <=  (1 - 1/N)^2
    entropic:   C_rel + I            <=  H

Reports carry both sides and the slack (gap >= 0 means the relation holds).
The commands take theirs from the engine in core. The reports here accept
any measurement and are the reference the tests check the engine against;
schwarz_chain_check splits the quadratic relation into its two links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .coherence import rel_ent_coherence, shannon_entropy
from .core import L1_FIELDS, pure_duality_batch
from .discrimination import Povm, pure_pair_trace_norm
from .information import joint_distribution, mutual_information
from .model import InterferometerConfig, particle_density

__all__ = [
    "DualityReport",
    "SchwarzChainReport",
    "duality_report",
    "entropic_duality_report",
    "l1_duality_report",
    "schwarz_chain_check",
]


@dataclass(frozen=True)
class DualityReport:
    """Both sides of the duality relations for one configuration.

    The quadratic-side fields (x, ps_bound, lhs_l1, rhs_l1, gap_l1) and the
    entropic-side fields (c_rel, mi, h_priors, gap_entropic) are filled by
    their respective builders and left None by the other, so a report always
    says which relation it actually evaluated.
    """

    n_paths: int
    x: float | None = None
    ps_bound: float | None = None
    lhs_l1: float | None = None
    rhs_l1: float | None = None
    gap_l1: float | None = None
    c_rel: float | None = None
    mi: float | None = None
    h_priors: float | None = None
    gap_entropic: float | None = None

    def to_json_dict(self) -> dict[str, Any]:
        """Field name to value, omitting the sides that were not evaluated."""
        out: dict[str, Any] = {"n_paths": self.n_paths}
        for name in ("x", "ps_bound", "lhs_l1", "rhs_l1", "gap_l1",
                     "c_rel", "mi", "h_priors", "gap_entropic"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@dataclass(frozen=True)
class SchwarzChainReport:
    """The quadratic relation split into its two inequality links.

    lhs is (P_s - 1/N)^2 + X^2 with the success bound standing in for P_s.
    pair_term_sum is the middle quantity: 1/N^2 times the double sum, over
    ordered pairs (i, j) and (k, l), of the scalar products of the pair
    vectors ( ||Lambda||_1 / 2, sqrt(p_i p_j) |overlap_ij| ). schwarz_bound
    is (1 - 1/N)^2, which dominates the middle by Cauchy-Schwarz because
    every pair vector has length (p_i + p_j) / 2.
    """

    lhs: float
    pair_term_sum: float
    schwarz_bound: float

    @property
    def slack_pair(self) -> float:
        return self.pair_term_sum - self.lhs

    @property
    def slack_schwarz(self) -> float:
        return self.schwarz_bound - self.pair_term_sum


def l1_duality_report(config: InterferometerConfig) -> DualityReport:
    """Evaluate the quadratic relation for one configuration."""
    batch = pure_duality_batch(
        config.priors.probs[np.newaxis], config.detectors.states[np.newaxis]
    )
    values = {name: float(getattr(batch, name)[0]) for name in L1_FIELDS}
    return DualityReport(n_paths=config.n_paths, **values)


def entropic_duality_report(config: InterferometerConfig, povm: Povm) -> DualityReport:
    """Evaluate the entropic relation for one configuration and measurement."""
    rho = particle_density(config)
    c_rel = rel_ent_coherence(rho)
    mi = mutual_information(joint_distribution(povm, config))
    h = shannon_entropy(config.priors)
    return DualityReport(
        n_paths=config.n_paths, c_rel=c_rel, mi=mi, h_priors=h,
        gap_entropic=h - c_rel - mi,
    )


def duality_report(config: InterferometerConfig, povm: Povm) -> DualityReport:
    """Evaluate both relations; the entropic side uses the given POVM."""
    left = l1_duality_report(config)
    right = entropic_duality_report(config, povm)
    return DualityReport(
        n_paths=config.n_paths,
        x=left.x, ps_bound=left.ps_bound, lhs_l1=left.lhs_l1,
        rhs_l1=left.rhs_l1, gap_l1=left.gap_l1,
        c_rel=right.c_rel, mi=right.mi, h_priors=right.h_priors,
        gap_entropic=right.gap_entropic,
    )


def schwarz_chain_check(config: InterferometerConfig) -> SchwarzChainReport:
    """Evaluate the quadratic relation one inequality link at a time.

    The chain is lhs <= pair_term_sum <= schwarz_bound. With the success
    bound standing in for P_s, lhs and pair_term_sum are the same sum taken
    in different orders, so the first link is an equality up to round-off;
    the second is Cauchy-Schwarz on the pair vectors and holds all the slack.
    """
    n = config.n_paths
    probs = config.priors.probs
    gram_abs = np.abs(config.detectors.overlap_gram())

    # The trace norms come from the pure-state closed form, so the loop
    # makes no eigensolve.
    half_norms = np.zeros((n, n))
    cross = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            half_norms[i, j] = pure_pair_trace_norm(config, i, j) / 2.0
            cross[i, j] = np.sqrt(probs[i] * probs[j]) * gram_abs[i, j]
    # The double sum over pairs of ordered pairs factorizes into the two
    # squared totals because each term is a plain product.
    pair_term_sum = (half_norms.sum() ** 2 + cross.sum() ** 2) / n**2

    report = l1_duality_report(config)
    assert report.lhs_l1 is not None
    return SchwarzChainReport(
        lhs=report.lhs_l1,
        pair_term_sum=pair_term_sum,
        schwarz_bound=(1.0 - 1.0 / n) ** 2,
    )
