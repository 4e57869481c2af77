"""Command line interface.

Three commands, selected with --command:

* analyze: read one configuration (JSON, see model schema), report every
  quantity and both duality relations as JSON.
* verify: sample a randomized (N, d) grid of configurations and check both
  relations on all of them; per-cell worst gaps go to stdout, per-sample
  rows optionally to a CSV file.
* sweep: trace a one-parameter family of configurations as CSV rows.

Every report comes from the batched pure-state core, pure_duality_batch:
verify feeds it one (N, d) cell at a time in chunks of VERIFY_CHUNK
configurations, sweep feeds it its points, analyze its one configuration.

Exit codes: 0 on success, 1 when a duality relation is violated beyond
--tolerance, 2 for usage or input errors, 3 when a computation fails
numerically: the core fails only on a pair radicand below -RADICAND_TOL
(ValueError) or an SVD that does not converge (LinAlgError). A numerical
failure prints its cause and a replay address to
stderr: the configuration JSON for analyze, (seed, cell, sample range) for
verify, the family and parameter range for sweep.

All randomness is derived from --seed; the seed, generator name and tool
version are echoed into every artifact, and rerunning any command with the
same flags reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .core import CSV_HEADER, PureDualityBatch, pure_duality_batch
from .information import accessible_info_lower_bound
from .model import (
    ConfigFormatError,
    InterferometerConfig,
    build_config,
    config_from_json,
    config_to_json,
)
from .sampling import RNG_ALGORITHM, SweepSpec, iter_sweep, rng_stream, sample_config

__all__ = ["FAMILIES", "build_parser", "family_points", "main"]

FAMILIES = ("overlap-scan", "prior-scan", "dimension-scan")

#: Configurations per core call in verify; bounds memory for any --samples.
VERIFY_CHUNK = 256


class UsageError(ValueError):
    """Bad flags or bad input data; maps to exit code 2."""


class NumericalFailure(Exception):
    """A computation failed numerically; maps to exit code 3.

    ``replay`` names the inputs that reproduce the failure.
    """

    def __init__(self, cause: BaseException, replay: str) -> None:
        super().__init__(str(cause))
        self.replay = replay


@contextlib.contextmanager
def _replayable(replay: str) -> Iterator[None]:
    """Turn numerical errors raised inside the block into NumericalFailure."""
    try:
        yield
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(exc, replay) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathduality",
        description="Coherence vs. which-path information duality checks "
        "for N-path interferometers.",
    )
    parser.add_argument("--command", required=True,
                        choices=("analyze", "verify", "sweep"),
                        help="what to run")
    parser.add_argument("--input", help="JSON configuration file (analyze)")
    parser.add_argument("--output",
                        help="write the artifact here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="artifact format; analyze emits json, sweep and "
                        "verify rows emit csv, verify summaries may use json")
    parser.add_argument("--seed", type=int, default=42,
                        help="root seed for all randomized work (default 42)")
    parser.add_argument("--samples", type=int, default=100,
                        help="configurations per (N, d) cell in verify")
    parser.add_argument("--n-range", default="2:6",
                        help="inclusive path-count range LO:HI for verify")
    parser.add_argument("--d-range", default="auto",
                        help="inclusive detector-dimension range LO:HI for "
                        "verify, or 'auto' for 1..2N per N")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="Dirichlet concentration for sampled priors")
    parser.add_argument("--prior-mode", choices=("dirichlet", "uniform"),
                        default="dirichlet",
                        help="sampled priors: Dirichlet(alpha) or exactly 1/N")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="gaps below -tolerance count as violations")
    parser.add_argument("--family", choices=FAMILIES,
                        help="sweep family (sweep only)")
    parser.add_argument("--steps", type=int, default=11,
                        help="points in a sweep family")
    parser.add_argument("--n", type=int, default=None,
                        help="single path count: shorthand for --n-range N:N "
                        "in verify, grid size for dimension-scan (default 4)")
    parser.add_argument("--d", type=int, default=None,
                        help="single detector dimension: shorthand for "
                        "--d-range D:D in verify")
    parser.add_argument("--overlap", type=float, default=0.0,
                        help="fixed detector overlap for prior-scan")
    parser.add_argument("--restarts", type=int, default=8,
                        help="accessible-information searches in analyze; "
                        "used only at N >= 3 with detector states spanning "
                        "two or more dimensions")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_sweep(args)
    except UsageError as exc:
        print(f"pathduality: error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"pathduality: numerical failure: {exc}", file=sys.stderr)
        print(f"replay: {exc.replay}", file=sys.stderr)
        return 3


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _load_config(path: str) -> InterferometerConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return config_from_json(data)
    except ConfigFormatError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: invalid configuration: {exc}") from exc


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"{flag} expects LO:HI or a single integer, got {text!r}")
    return lo, hi


def _run_analyze(args: argparse.Namespace) -> int:
    if not args.input:
        raise UsageError("analyze requires --input")
    if args.format not in (None, "json"):
        raise UsageError("analyze emits JSON; use --format json")
    if args.restarts < 0:
        raise UsageError(f"--restarts must be >= 0, got {args.restarts}")
    config = _load_config(args.input)
    config_json = config_to_json(config)

    with _replayable(json.dumps(config_json)):
        batch = _reports([config])
        spectrum = batch.spectrum[0]
        # The detector state shares rho's at most min(N, d) nonzero
        # eigenvalues: pad with d zeros and keep the top d.
        d = config.detector_dim
        payload: dict[str, Any] = {
            "tool_version": __version__,
            "rng_algorithm": RNG_ALGORITHM,
            "seed": args.seed,
            "tolerance": args.tolerance,
            "config": config_json,
            "n_paths": config.n_paths,
            "detector_dim": config.detector_dim,
            "particle_spectrum": spectrum.tolist(),
            "detector_spectrum": np.concatenate([np.zeros(d), spectrum])[-d:].tolist(),
            "l1_coherence": float(config.n_paths * batch.x[0]),
            "pgm_success_probability": float(np.trace(batch.pgm_table[0])),
            "holevo_bound": float(batch.s_rho[0]),
            "accessible_info_lower_bound": accessible_info_lower_bound(
                config, restarts=args.restarts, seed=args.seed
            ),
            "l1_duality": _side(batch, ("x", "ps_bound", "lhs_l1", "rhs_l1", "gap_l1")),
            "entropic_duality": _side(batch, ("c_rel", "mi", "h_priors", "gap_entropic")),
        }
    violated = min(batch.gap_l1[0], batch.gap_entropic[0]) < -args.tolerance
    payload["status"] = "violation" if violated else "ok"
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return 1 if violated else 0


def _reports(configs: Sequence[InterferometerConfig]) -> PureDualityBatch:
    """Run the pure-state core on configurations of one shape."""
    return pure_duality_batch(
        np.stack([c.priors.probs for c in configs]),
        np.stack([c.detectors.states for c in configs]),
    )


def _side(batch: PureDualityBatch, names: Iterable[str]) -> dict[str, float]:
    return {name: float(getattr(batch, name)[0]) for name in names}


def _run_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    n_range = (args.n, args.n) if args.n is not None \
        else _parse_range(args.n_range, "--n-range")
    if args.d is not None:
        d_range = (args.d, args.d)
    elif args.d_range == "auto":
        d_range = None
    else:
        d_range = _parse_range(args.d_range, "--d-range")
    try:
        spec = SweepSpec(
            n_paths=n_range, detector_dims=d_range, samples=args.samples,
            seed=args.seed, prior_mode=args.prior_mode, alpha=args.alpha,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    d_desc = "auto" if d_range is None else f"{d_range[0]}:{d_range[1]}"
    header = (
        f"# pathduality verify seed={args.seed} rng={RNG_ALGORITHM} "
        f"version={__version__}\n"
        f"# grid n={n_range[0]}:{n_range[1]} d={d_desc} "
        f"samples={args.samples} prior_mode={args.prior_mode} "
        f"alpha={args.alpha:g} tolerance={args.tolerance:g}\n"
    )
    print(header, end="")

    write_rows = bool(args.output) and args.format != "json"
    rows: list[str] = []
    cell_stats: dict[tuple[int, int], tuple[float, float]] = {}
    worst_l1: tuple[float, InterferometerConfig | None] = (np.inf, None)
    worst_ent: tuple[float, InterferometerConfig | None] = (np.inf, None)
    samples = iter_sweep(spec)
    for cell_index, (n, d) in enumerate(spec.cells()):
        lo_l1 = lo_ent = np.inf
        for start in range(0, spec.samples, VERIFY_CHUNK):
            stop = min(start + VERIFY_CHUNK, spec.samples)
            replay = (f"seed={spec.seed} cell={cell_index} (N={n}, d={d}) "
                      f"samples={start}..{stop - 1}")
            with _replayable(replay):
                chunk = [s.config for s in itertools.islice(samples, stop - start)]
                batch = _reports(chunk)
            k_l1 = int(np.argmin(batch.gap_l1))
            k_ent = int(np.argmin(batch.gap_entropic))
            gap_l1 = float(batch.gap_l1[k_l1])
            gap_ent = float(batch.gap_entropic[k_ent])
            lo_l1, lo_ent = min(lo_l1, gap_l1), min(lo_ent, gap_ent)
            if gap_l1 < worst_l1[0]:
                worst_l1 = (gap_l1, chunk[k_l1])
            if gap_ent < worst_ent[0]:
                worst_ent = (gap_ent, chunk[k_ent])
            if write_rows:
                rows.extend(batch.csv_rows([f"N{n}/d{d}/{k}" for k in range(start, stop)]))
        cell_stats[(n, d)] = (lo_l1, lo_ent)

    for (n, d), (gap_l1, gap_ent) in sorted(cell_stats.items()):
        print(f"N={n} d={d} worst_gap_l1={gap_l1:.3e} worst_gap_entropic={gap_ent:.3e}")
    print(
        f"total_configs={spec.total_configs} "
        f"worst_gap_l1={worst_l1[0]:.3e} worst_gap_entropic={worst_ent[0]:.3e}"
    )

    ok = worst_l1[0] >= -args.tolerance and worst_ent[0] >= -args.tolerance
    if args.output:
        if args.format == "json":
            summary = {
                "tool_version": __version__,
                "rng_algorithm": RNG_ALGORITHM,
                "seed": args.seed,
                "tolerance": args.tolerance,
                "grid": {"n": list(n_range), "d": d_desc,
                         "samples": args.samples,
                         "prior_mode": args.prior_mode, "alpha": args.alpha},
                "cells": [
                    {"n": n, "d": d, "worst_gap_l1": g1, "worst_gap_entropic": g2}
                    for (n, d), (g1, g2) in sorted(cell_stats.items())
                ],
                "worst_gap_l1": worst_l1[0],
                "worst_gap_entropic": worst_ent[0],
                "status": "ok" if ok else "violation",
            }
            _write_text(args.output, json.dumps(summary, indent=2) + "\n")
        else:
            _write_text(args.output, header + CSV_HEADER + "\n" + "\n".join(rows) + "\n")

    if not ok:
        offender = worst_l1[1] if worst_l1[0] <= worst_ent[0] else worst_ent[1]
        print("FAIL: duality violation; offending configuration follows")
        print(json.dumps(config_to_json(offender)))
        return 1
    print("PASS")
    return 0


def family_points(
    family: str,
    steps: int,
    seed: int,
    n: int = 4,
    overlap: float = 0.0,
    prior_mode: str = "dirichlet",
    alpha: float = 1.0,
) -> list[tuple[float, InterferometerConfig]]:
    """The (parameter, configuration) points of a sweep family.

    overlap-scan: two equiprobable paths, detector overlap running 0 -> 1.
    prior-scan: two paths with fixed detector overlap, first prior 0 -> 1.
    dimension-scan: sampled N-path configurations at d = 1 .. steps.
    """
    points: list[tuple[float, InterferometerConfig]] = []
    if family in ("overlap-scan", "prior-scan"):
        if steps < 2:
            raise UsageError(f"{family} needs --steps >= 2, got {steps}")
        if family == "prior-scan" and not 0.0 <= overlap <= 1.0:
            raise UsageError(f"--overlap must lie in [0, 1], got {overlap}")
        for k in range(steps):
            t = k / (steps - 1)
            if family == "overlap-scan":
                probs, c = [0.5, 0.5], t
            else:
                probs, c = [t, 1.0 - t], overlap
            states = [[1.0, 0.0], [c, np.sqrt(max(1.0 - c * c, 0.0))]]
            points.append((t, build_config(probs, states)))
    elif family == "dimension-scan":
        if steps < 1:
            raise UsageError(f"dimension-scan needs --steps >= 1, got {steps}")
        if n < 2:
            raise UsageError(f"--n must be >= 2, got {n}")
        for d in range(1, steps + 1):
            rng = rng_stream(seed, d)
            config = sample_config(n, d, rng, prior_mode=prior_mode, alpha=alpha)
            points.append((float(d), config))
    else:
        raise UsageError(f"unknown family {family!r}")
    return points


def _run_sweep(args: argparse.Namespace) -> int:
    if not args.family:
        raise UsageError("sweep requires --family")
    if args.format not in (None, "csv"):
        raise UsageError("sweep emits CSV; use --format csv")
    try:
        points = family_points(
            args.family, steps=args.steps, seed=args.seed,
            n=args.n if args.n is not None else 4,
            overlap=args.overlap, prior_mode=args.prior_mode, alpha=args.alpha,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = [
        f"# pathduality sweep family={args.family} steps={args.steps} "
        f"seed={args.seed} rng={RNG_ALGORITHM} version={__version__}",
        CSV_HEADER,
    ]
    # dimension-scan changes d from point to point; each run of equal shapes
    # is one batch
    by_shape = itertools.groupby(points, key=lambda point: point[1].detectors.states.shape)
    for _, run in by_shape:
        params, configs = zip(*run)
        with _replayable(f"family={args.family} seed={args.seed} "
                         f"param={params[0]:g}..{params[-1]:g}"):
            batch = _reports(configs)
        lines.extend(batch.csv_rows(params))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0
