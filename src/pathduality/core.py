"""The pure-state engine: both relations from the priors and the Gram matrix.

verify, sweep and analyze take every reported number from
pure_duality_batch, and the accessible-information search takes its
pretty-good-measurement candidate from it. The entropic side rests on one
identity: rho = M M^H with M = sqrt(p) * states (N x d), so one thin SVD
of M gives both rho's spectrum and rho^(1/2) for every (N, d). The
mixed-state functions are the reference the tests check it against; this
module uses none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discrimination import RADICAND_TOL

__all__ = [
    "CSV_HEADER",
    "PureDualityBatch",
    "REPORT_FIELDS",
    "pure_duality_batch",
]

#: Column order of every CSV row this package emits.
CSV_HEADER = "param,x,ps_bound,lhs_l1,rhs_l1,gap_l1,c_rel,mi,h_priors,gap_entropic"

#: Report fields in CSV column order, and the quadratic-side subset.
REPORT_FIELDS = tuple(CSV_HEADER.split(",")[1:])
L1_FIELDS = REPORT_FIELDS[:5]


@dataclass(frozen=True)
class PureDualityBatch:
    """Both relations for a batch of B pure configurations with N paths.

    Each report field is a (B,) array, entry k belonging to configuration
    k. The entropic side uses the pretty good measurement, whose joint
    tables (rows are outcomes, columns path labels) are kept in pgm_table,
    shape (B, N, N). spectrum holds each rho's eigenvalues, shape (B, N),
    ascending: the squared singular values of sqrt(p) * states, so never
    below zero, with N - min(N, d) exact zeros in front.
    """

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
    spectrum: np.ndarray

    @property
    def s_rho(self) -> np.ndarray:
        """S(rho) in bits, shape (B,): the Holevo bound of the detectors."""
        return _entropy_rows(self.spectrum)

    def csv_rows(self, params: Sequence[float | str]) -> list[str]:
        """One CSV line per configuration, in CSV_HEADER order."""
        columns = np.stack([getattr(self, name) for name in REPORT_FIELDS], axis=1)
        return [
            ",".join([_fmt(param)] + [_fmt(value) for value in values])
            for param, values in zip(params, columns.tolist())
        ]


def _fmt(value: float | str) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _entropy_rows(values: np.ndarray) -> np.ndarray:
    """-sum v log2 v along the last axis, with 0 log 0 = 0 and never -0.0."""
    logs = np.log2(np.where(values > 0.0, values, 1.0))
    return 0.0 - (values * logs).sum(axis=-1)


def pure_duality_batch(probs: np.ndarray, states: np.ndarray) -> PureDualityBatch:
    """Evaluate both relations for B pure configurations at once.

    ``probs`` is (B, N) and ``states`` is (B, N, d): rows as validated by
    PathDistribution and DetectorSet, which this function does not repeat.
    With G the Gram matrix and rho_ij = sqrt(p_i p_j) G_ij the particle
    state:

    * X = sum_{i != j} |rho_ij| / N.
    * P_s is the success bound with every pair's trace norm in the closed
      form of pure_pair_trace_norm, which needs no eigensolve.
    * rho = M M^H with M = sqrt(p) * states, so one batched thin SVD
      M = U diag(s) V^H gives rho's spectrum s^2 and rho^(1/2) =
      U diag(s) U^H. S(rho) is the entropy of s^2, and C_rel = H(p) -
      S(rho) because the diagonal of rho is p.
    * The pretty good measurement's joint table is |(rho^(1/2))^T|^2 entry
      by entry (the square-root-measurement identity), so its mutual
      information needs neither a POVM nor a pseudo-inverse.

    Singular values are never negative, so no clamp is needed. Directions
    in rho's kernel come back with singular values of order eps * s_max,
    not eigenvalues of that order, so their share of the table is about
    eps rather than sqrt(eps) and no rank cut is needed either. Radicands
    below -RADICAND_TOL raise ValueError. Every configuration's values are
    independent of the rest of the batch, bit for bit.
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

    u, s, _ = np.linalg.svd(amp[:, :, np.newaxis] * a, full_matrices=False)
    spectrum = np.zeros((batch, n))
    spectrum[:, n - s.shape[1]:] = s[:, ::-1] ** 2
    root = (u * s[:, np.newaxis, :]) @ u.conj().transpose(0, 2, 1)
    table = (root.real**2 + root.imag**2).transpose(0, 2, 1)

    h = _entropy_rows(p)
    c_rel = h - _entropy_rows(spectrum)
    mi = (
        _entropy_rows(table.sum(axis=2))
        + _entropy_rows(table.sum(axis=1))
        - _entropy_rows(table.reshape(batch, n * n))
    )
    lhs = (ps - 1.0 / n) ** 2 + x * x
    rhs = np.full(batch, (1.0 - 1.0 / n) ** 2)
    return PureDualityBatch(
        x=x, ps_bound=ps, lhs_l1=lhs, rhs_l1=rhs, gap_l1=rhs - lhs,
        c_rel=c_rel, mi=mi, h_priors=h, gap_entropic=h - c_rel - mi,
        pgm_table=table, spectrum=spectrum,
    )
