"""The benchmark's workloads: deterministic op lists built from a seed.

Every op is one ``pathduality.cli.main(argv)`` call. An op's ``--seed`` is
``op_seed(seed, index)``, so each op of a workload draws its own inputs and a
failure can be replayed from its argv alone. Why each workload exists, and
what it stresses, is in SCHEMA.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from reference import Config, regenerate


@dataclass(frozen=True)
class Op:
    """One CLI call plus what the reference checker needs to check it."""

    index: int
    kind: str  # "verify" or "analyze"
    argv: tuple[str, ...]
    output: Path
    n: int
    d: int
    configs: int
    seed: int
    alpha: float
    config: Config | None = None  # analyze only
    # A search-panel op (analyze only): its gap is scored, its latency is
    # left out of the latency percentiles.
    panel: bool = False

    def address(self) -> dict:
        """Everything needed to replay this op by hand."""
        out = {"op": self.index, "argv": list(self.argv), "n": self.n, "d": self.d,
               "seed": self.seed}
        if self.kind == "verify":
            out["samples"] = f"0..{self.configs - 1} (streams ({self.seed}, 0, k))"
        else:
            out["config"] = self.config.to_json()
        return out


def op_seed(seed: int, index: int) -> int:
    """The --seed of op ``index`` in a workload run with ``seed``."""
    return seed * 10_000 + index


def _verify_op(index: int, seed: int, n: int, d: int, samples: int, alpha: float,
               work: Path) -> Op:
    s = op_seed(seed, index)
    output = work / "verify.csv"
    argv = ("--command", "verify", "--n", str(n), "--d", str(d),
            "--samples", str(samples), "--alpha", repr(alpha), "--seed", str(s),
            "--output", str(output))
    return Op(index, "verify", argv, output, n, d, samples, s, alpha)


def verify_grid(seed: int, work: Path) -> list[Op]:
    """The default verify grid, N = 2..6 and d = 1..2N, one op per cell."""
    cells = [(n, d) for n in range(2, 7) for d in range(1, 2 * n + 1)]
    return [_verify_op(i, seed, n, d, 100, 1.0, work) for i, (n, d) in enumerate(cells)]


#: N of verify-wide and ops per (N, d) cell. The counts put the median op
#: inside the (16, 1) cell's cluster of latencies and the tail op inside the
#: (16, 32) cell's, not on the edge between two cells, even with the usual
#: failures (half the (8, 8) ops, a third of the (12, 12) ops).
WIDE_OPS_PER_CELL = {8: 12, 12: 8, 16: 15}


def verify_wide(seed: int, work: Path) -> list[Op]:
    """Large N with lopsided priors, cells visited round-robin."""
    cells = [(n, d) for n in WIDE_OPS_PER_CELL for d in (1, n // 2, n, 2 * n)]
    rounds = max(WIDE_OPS_PER_CELL.values())
    pairs = [(n, d) for r in range(rounds) for n, d in cells if r < WIDE_OPS_PER_CELL[n]]
    return [_verify_op(i, seed, n, d, 10, 0.05, work) for i, (n, d) in enumerate(pairs)]


#: (N, d) of analyze-mix's seeded configurations and how many one pass draws.
#: At (2, 2) the search never beats its pretty-good and Helstrom starting
#: candidates, so these ops time the search machinery but not its quality.
ANALYZE_SEEDED = (2, 2, 320)

#: The search panel: (N, d) and count of configurations drawn from the fixed
#: streams (PANEL_SEED, 1 + s, k), whatever the workload seed. There the
#: search closes about a fifth of the gap the pretty-good measurement leaves
#: to the Holevo bound. Search time at N >= 3 is heavy-tailed across
#: configurations (0.5-5 s at (3, 2), up to 11 s at (4, 2)); a fixed panel
#: leaves only the variation across search seeds, so holevo_gap_bits scores
#: search quality alone and the panel's share of the run's time stays steady.
SEARCH_PANEL = ((3, 2, 4), (4, 2, 1))
PANEL_SEED = 0


def analyze_mix(seed: int, work: Path) -> list[Op]:
    """Configurations written as JSON, the panel spread through the run.

    Seeded configuration k comes from stream (seed, 0, k) with Dirichlet(1)
    priors; panel configurations come from (PANEL_SEED, 1 + s, k). Every
    op's search gets its own op seed, made from the workload seed.
    """
    n, d, count = ANALYZE_SEEDED
    draws = [(seed, 0, k, n, d, count) for k in range(count)]
    draws += [(PANEL_SEED, 1 + s, k, n, d, count)
              for s, (n, d, count) in enumerate(SEARCH_PANEL) for k in range(count)]
    # Spread the panel evenly through the run.
    draws.sort(key=lambda t: (t[2] / t[5], t[1]))
    ops = []
    output = work / "analyze.json"
    for i, (stream_seed, cell, k, n, d, _) in enumerate(draws):
        config = regenerate(stream_seed, cell, k, n, d, 1.0)
        path = work / f"analyze-config-{i}.json"
        path.write_text(json.dumps(config.to_json()) + "\n", encoding="utf-8")
        argv = ("--command", "analyze", "--input", str(path), "--output", str(output),
                "--seed", str(op_seed(seed, i)))
        ops.append(Op(i, "analyze", argv, output, n, d, 1, op_seed(seed, i), 1.0, config,
                      panel=cell > 0))
    return ops


WORKLOADS = {
    "verify-grid": verify_grid,
    "verify-wide": verify_wide,
    "analyze-mix": analyze_mix,
}
