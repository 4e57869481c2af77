"""The two duality relations and their reports.

For an N-path configuration with success bound P_s, normalized coherence X,
relative-entropy coherence C_rel, measured mutual information I and prior
entropy H:

    quadratic:  (P_s - 1/N)^2 + X^2  <=  (1 - 1/N)^2
    entropic:   C_rel + I            <=  H

Reports carry both sides and the slack (gap >= 0 means the relation holds),
plus serialization helpers for the CLI. The quadratic relation also comes
with a step-by-step chain check that exposes where its slack lives.

For pure detector states every reported quantity is a function of the
priors and the Gram matrix alone, so pure_duality_batch computes whole
batches of configurations from one batched eigensolve. The general
mixed-state functions (success_upper_bound, pretty_good_measurement,
joint_distribution, duality_report) stay as the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .coherence import EIGENVALUE_CLAMP, rel_ent_coherence, shannon_entropy
from .discrimination import RADICAND_TOL, Povm, pure_pair_trace_norm
from .information import joint_distribution, mutual_information
from .linalg import NotPsdError
from .model import InterferometerConfig, particle_density

__all__ = [
    "CSV_HEADER",
    "DualityReport",
    "PureDualityBatch",
    "REPORT_FIELDS",
    "SchwarzChainReport",
    "csv_row",
    "duality_report",
    "entropic_duality_report",
    "l1_duality_report",
    "pure_duality_batch",
    "schwarz_chain_check",
]

#: Column order of every CSV row this package emits.
CSV_HEADER = "param,x,ps_bound,lhs_l1,rhs_l1,gap_l1,c_rel,mi,h_priors,gap_entropic"

#: Report fields in CSV column order, and the quadratic-side subset.
REPORT_FIELDS = tuple(CSV_HEADER.split(",")[1:])
L1_FIELDS = REPORT_FIELDS[:5]


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


@dataclass(frozen=True)
class PureDualityBatch:
    """Both relations for a batch of B pure configurations with N paths.

    Each report field is a (B,) array, entry k belonging to configuration
    k. The entropic side uses the pretty good measurement, whose joint
    tables (rows are outcomes, columns path labels) are kept in pgm_table,
    shape (B, N, N).
    """

    n_paths: int
    x: np.ndarray
    ps_bound: np.ndarray
    lhs_l1: np.ndarray
    rhs_l1: np.ndarray
    gap_l1: np.ndarray
    c_rel: np.ndarray
    mi: np.ndarray
    h_priors: np.ndarray
    gap_entropic: np.ndarray
    pgm_table: np.ndarray

    def report(self, k: int, fields: Sequence[str] = REPORT_FIELDS) -> DualityReport:
        """The report of configuration k, restricted to ``fields``."""
        values = {name: float(getattr(self, name)[k]) for name in fields}
        return DualityReport(n_paths=self.n_paths, **values)

    def csv_rows(self, params: Sequence[float | str]) -> list[str]:
        """One CSV line per configuration, in CSV_HEADER order."""
        columns = np.stack([getattr(self, name) for name in REPORT_FIELDS], axis=1)
        return [
            ",".join([_fmt(param)] + [_fmt(value) for value in values])
            for param, values in zip(params, columns.tolist())
        ]


def _entropy_rows(values: np.ndarray) -> np.ndarray:
    """-sum v log2 v along the last axis, with 0 log 0 = 0 and never -0.0."""
    logs = np.log2(np.where(values > 0.0, values, 1.0))
    return 0.0 - (values * logs).sum(axis=-1)


def pure_duality_batch(probs: np.ndarray, states: np.ndarray) -> PureDualityBatch:
    """Evaluate both relations for B pure configurations at once.

    ``probs`` is (B, N) and ``states`` is (B, N, d): rows as validated by
    PathDistribution and DetectorSet, which this function does not repeat.
    With G the Gram matrix and rho_ij = sqrt(p_i p_j) G_ij the particle
    state (priors exactly on the diagonal):

    * X = sum_{i != j} |rho_ij| / N.
    * P_s is the success bound with every pair's trace norm in the closed
      form of pure_pair_trace_norm, which needs no eigensolve.
    * S(rho) comes from one batched eigensolve, and C_rel = H(p) - S(rho)
      because the diagonal of rho is p.
    * The pretty good measurement's joint table is |(rho^(1/2))^T|^2 entry
      by entry (the square-root-measurement identity), so its mutual
      information needs neither a POVM nor a pseudo-inverse.

    Eigenvalues within EIGENVALUE_CLAMP below zero count as zeros; lower
    ones raise NotPsdError, and radicands below -RADICAND_TOL raise
    ValueError. Every configuration's values are independent of the rest
    of the batch, bit for bit.
    """
    p = np.asarray(probs, dtype=np.float64)
    a = np.asarray(states, dtype=np.complex128)
    if p.ndim != 2 or a.ndim != 3 or a.shape[:2] != p.shape:
        raise ValueError(
            f"expected probs (B, N) and states (B, N, d), got {p.shape} and {a.shape}"
        )
    batch, n = p.shape
    diag = np.arange(n)

    gram = a @ a.conj().transpose(0, 2, 1)
    amp = np.sqrt(p)
    rho = amp[:, :, np.newaxis] * amp[:, np.newaxis, :] * gram
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    rho[:, diag, diag] = p

    coherence = np.abs(rho)
    coherence[:, diag, diag] = 0.0
    x = coherence.reshape(batch, n * n).sum(axis=1) / n

    p_i, p_j = p[:, :, np.newaxis], p[:, np.newaxis, :]
    radicand = ((p_i + p_j) / 2.0) ** 2 - p_i * p_j * (gram.real**2 + gram.imag**2)
    radicand[:, diag, diag] = 0.0
    lowest = float(radicand.min())
    if lowest < -RADICAND_TOL:
        raise ValueError(f"radicand {lowest:.3e} below -{RADICAND_TOL:.0e}")
    pair_norms = 2.0 * np.sqrt(np.clip(radicand, 0.0, None))
    ps = 1.0 / n + pair_norms.reshape(batch, n * n).sum(axis=1) / (2.0 * n)

    eigenvalues, eigenvectors = np.linalg.eigh(rho)
    smallest = float(eigenvalues[:, 0].min())
    if smallest < -EIGENVALUE_CLAMP:
        raise NotPsdError(f"eigenvalue {smallest:.3e} below allowed -{EIGENVALUE_CLAMP:.0e}")
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    root = (eigenvectors * np.sqrt(eigenvalues)[:, np.newaxis, :]) @ (
        eigenvectors.conj().transpose(0, 2, 1)
    )
    table = (root.real**2 + root.imag**2).transpose(0, 2, 1)

    h = _entropy_rows(p)
    c_rel = h - _entropy_rows(eigenvalues)
    mi = (
        _entropy_rows(table.sum(axis=2))
        + _entropy_rows(table.sum(axis=1))
        - _entropy_rows(table.reshape(batch, n * n))
    )
    lhs = (ps - 1.0 / n) ** 2 + x * x
    rhs = np.full(batch, (1.0 - 1.0 / n) ** 2)
    return PureDualityBatch(
        n_paths=n, x=x, ps_bound=ps, lhs_l1=lhs, rhs_l1=rhs, gap_l1=rhs - lhs,
        c_rel=c_rel, mi=mi, h_priors=h, gap_entropic=h - c_rel - mi,
        pgm_table=table,
    )


def l1_duality_report(config: InterferometerConfig) -> DualityReport:
    """Evaluate the quadratic relation for one configuration."""
    batch = pure_duality_batch(
        config.priors.probs[np.newaxis], config.detectors.states[np.newaxis]
    )
    return batch.report(0, L1_FIELDS)


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

    The chain is lhs <= pair_term_sum <= schwarz_bound. The first link
    holds term by term (each measurement outcome extracts at most the
    positive part of its Helstrom matrix); the second is Cauchy-Schwarz on
    the pair vectors and carries essentially all of the slack.
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


def _fmt(value: float | str) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def csv_row(param: float | str, report: DualityReport) -> str:
    """One CSV line in CSV_HEADER order; needs a report with both sides."""
    fields = (report.x, report.ps_bound, report.lhs_l1, report.rhs_l1,
              report.gap_l1, report.c_rel, report.mi, report.h_priors,
              report.gap_entropic)
    if any(f is None for f in fields):
        raise ValueError("csv_row needs a combined report with both sides filled")
    return ",".join([_fmt(param)] + [_fmt(f) for f in fields])
