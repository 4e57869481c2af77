"""Independent reference for checking what each benchmark op returns.

Nothing here imports pathduality. Inputs are regenerated from the documented
stream addressing, and every checked quantity comes from a closed form in
the priors ``p`` and the Gram matrix ``G[i, j] = <eta_j | eta_i>``:

* ``X = sum_{i != j} sqrt(p_i p_j) |G_ij| / N``
* ``P_s = 1/N + (1/2N) sum_{i != j} 2 sqrt(((p_i + p_j)/2)^2 - p_i p_j |G_ij|^2)``
* ``S(rho)`` from ``eigvalsh(rho)``, ``C_rel = H(p) - S(rho)``
* the pretty-good-measurement joint table ``|sqrt(rho)_ij|^2`` (the
  square-root-measurement identity), whose mutual information is the ``mi``
  column of ``verify`` and ``analyze``.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Column order of verify's CSV rows.
CSV_HEADER = "param,x,ps_bound,lhs_l1,rhs_l1,gap_l1,c_rel,mi,h_priors,gap_entropic"

#: Absolute tolerances, in the unit of each quantity (probability or bits).
TOLERANCES = {
    # X, C_rel and h_priors are sums of well-conditioned terms.
    "x": 1e-10,
    "c_rel": 1e-9,
    "h_priors": 1e-12,
    # The closed-form P_s takes square roots of radicands that vanish as
    # |G_ij| -> 1 (always at d = 1), which amplifies rounding (9e-13 seen).
    "ps_bound": 1e-9,
    # The program cuts eigenvalues below 1e-12 * max out of its PGM, the
    # reference does not; on rank-deficient rho that moves MI by up to 2.2e-8.
    "mi": 1e-6,
    # Holevo bound against S(rho).
    "holevo": 1e-9,
    # Report-internal arithmetic (lhs, rhs and both gaps from their parts).
    "identity": 1e-12,
}

#: Both relations must hold to this slack; mi must lie in [-floor, S + floor].
GAP_FLOOR = 1e-9


@dataclass(frozen=True)
class Config:
    """Priors (N,) and unit detector states as rows of an (N, d) array."""

    probs: np.ndarray
    states: np.ndarray

    @property
    def n(self) -> int:
        return int(self.probs.size)

    def to_json(self) -> dict:
        """The configuration in pathduality's JSON input schema."""
        return {
            "probs": [float(v) for v in self.probs],
            "detectors": {
                "dim": int(self.states.shape[1]),
                "states": [[[float(z.real), float(z.imag)] for z in row]
                           for row in self.states],
            },
        }


def regenerate(seed: int, cell: int, k: int, n: int, d: int, alpha: float) -> Config:
    """Configuration at stream address (seed, cell, k).

    Stream: Philox seeded by SeedSequence(entropy=seed, spawn_key=(cell, k)).
    Draws, in order: Dirichlet(alpha, ..., alpha) priors, then for each path
    d real and d imaginary standard normals, normalized to a unit vector.
    This is the addressing ``verify`` documents for sample k of grid cell c.
    """
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(cell, k))
    rng = np.random.Generator(np.random.Philox(seed=sequence))
    probs = rng.dirichlet(np.full(n, alpha))
    states = np.empty((n, d), dtype=np.complex128)
    for i in range(n):
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        states[i] = vec / np.linalg.norm(vec)
    return Config(probs, states)


def _entropy(values: np.ndarray) -> float:
    v = values[values > 0.0]
    return float(-(v * np.log2(v)).sum())


def reference_values(config: Config) -> dict[str, float]:
    """Every checked quantity of one configuration, from (p, G)."""
    p, n = config.probs, config.n
    gram = config.states @ config.states.conj().T
    overlap_sq = gram.real**2 + gram.imag**2
    off = ~np.eye(n, dtype=bool)
    root_pp = np.sqrt(np.multiply.outer(p, p))

    x = float((root_pp * np.sqrt(overlap_sq))[off].sum()) / n
    radicand = (np.add.outer(p, p) / 2.0) ** 2 - np.multiply.outer(p, p) * overlap_sq
    pair_norms = 2.0 * np.sqrt(np.clip(radicand[off], 0.0, None))
    ps = 1.0 / n + float(pair_norms.sum()) / (2.0 * n)

    rho = root_pp * gram
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    s_rho = _entropy(w)
    h = _entropy(p)
    root = (v * np.sqrt(w)) @ v.conj().T
    table = root.real**2 + root.imag**2
    pgm_mi = _entropy(table.sum(axis=1)) + _entropy(table.sum(axis=0)) - _entropy(table.ravel())
    return {"x": x, "ps_bound": ps, "c_rel": h - s_rho, "h_priors": h,
            "s_rho": s_rho, "mi": pgm_mi}


def check_report(report: dict[str, float], ref: dict[str, float], n: int) -> list[str]:
    """Check one report (a verify row or analyze's two sides) against ref."""
    problems = []
    for name in ("x", "ps_bound", "c_rel", "h_priors", "mi"):
        value = report[name]
        if not math.isfinite(value) or abs(value - ref[name]) > TOLERANCES[name]:
            problems.append(f"{name}={value!r}, reference {ref[name]!r}")
    mi = report["mi"]
    if not -GAP_FLOOR <= mi <= ref["s_rho"] + GAP_FLOOR:
        problems.append(f"mi={mi!r} outside [0, S(rho)={ref['s_rho']!r}]")
    rhs = (1.0 - 1.0 / n) ** 2
    lhs = (report["ps_bound"] - 1.0 / n) ** 2 + report["x"] ** 2
    identities = {
        "lhs_l1": (report["lhs_l1"], lhs),
        "rhs_l1": (report["rhs_l1"], rhs),
        "gap_l1": (report["gap_l1"], report["rhs_l1"] - report["lhs_l1"]),
        "gap_entropic": (report["gap_entropic"],
                         report["h_priors"] - report["c_rel"] - report["mi"]),
    }
    for name, (value, expected) in identities.items():
        if not abs(value - expected) <= TOLERANCES["identity"]:
            problems.append(f"{name}={value!r}, its parts give {expected!r}")
    for name in ("gap_l1", "gap_entropic"):
        if not report[name] >= -GAP_FLOOR:
            problems.append(f"{name}={report[name]!r} below -{GAP_FLOOR:g}")
    return problems


def parse_verify_csv(text: str) -> list[tuple[str, dict[str, float]]]:
    """(param, row) pairs of a verify CSV; raises ValueError if malformed."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing CSV header")
    names = CSV_HEADER.split(",")[1:]
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(names) + 1:
            raise ValueError(f"row has {len(fields)} fields: {line!r}")
        rows.append((fields[0], dict(zip(names, map(float, fields[1:])))))
    return rows


def check_verify(text: str, seed: int, n: int, d: int, samples: int,
                 alpha: float) -> tuple[list[str], list[float]]:
    """Check a single-cell verify CSV; returns (problems, gap_entropic per row).

    A single-cell grid is cell 0, so sample k comes from stream (seed, 0, k).
    """
    try:
        rows = parse_verify_csv(text)
    except ValueError as exc:
        return [str(exc)], []
    if len(rows) != samples:
        return [f"{len(rows)} rows, expected {samples}"], []
    problems, gaps = [], []
    for k, (param, row) in enumerate(rows):
        if param != f"N{n}/d{d}/{k}":
            problems.append(f"row {k}: param {param!r}")
            continue
        ref = reference_values(regenerate(seed, 0, k, n, d, alpha))
        problems.extend(f"{param}: {p}" for p in check_report(row, ref, n))
        gaps.append(row["gap_entropic"])
    return problems, gaps


def check_analyze(text: str, config: Config) -> tuple[list[str], float]:
    """Check an analyze JSON; returns (problems, holevo - accessible)."""
    try:
        payload = json.loads(text)
        report = {**payload["l1_duality"], **payload["entropic_duality"]}
        holevo = float(payload["holevo_bound"])
        accessible = float(payload["accessible_info_lower_bound"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed analyze output: {exc!r}"], math.nan
    ref = reference_values(config)
    problems = check_report(report, ref, config.n)
    if abs(holevo - ref["s_rho"]) > TOLERANCES["holevo"]:
        problems.append(f"holevo_bound={holevo!r}, S(rho)={ref['s_rho']!r}")
    if not report["mi"] <= accessible + TOLERANCES["identity"]:
        problems.append(f"accessible={accessible!r} below the PGM's mi={report['mi']!r}")
    if not accessible <= holevo + GAP_FLOOR:
        problems.append(f"accessible={accessible!r} above holevo={holevo!r}")
    return problems, holevo - accessible
