"""Benchmark for pathduality's CLI: one closed-loop, single-threaded client.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each op is one in-process ``pathduality.cli.main(argv)`` call on inputs made
from ``--seed`` (see workloads.py). Ops run back to back in whole passes over
the workload's op list until another pass would overrun ``--seconds``; at
least one pass always runs. Every op's output is checked against the
independent reference in reference.py outside the timed region: in the
first pass in full, in later passes by requiring the same output bytes.
Latencies are scaled to a reference machine speed measured between ops.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one pass
untraced and two passes with spans around each module's public functions
(tracing.py), checks that the two traced passes count the same calls, and
reports the per-layer metrics of the first. The last line of stdout is one
JSON object; the full record, with environment and failure addresses, goes
to bench/out/. SCHEMA.md documents both.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the baseline is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh-process import pairs per run; setup_s is the median of their ratios.
SETUP_REPEATS = 7
#: Standard-library modules whose import, in a fresh process, is the yardstick
#: for import speed, and the time that yardstick takes at reference speed.
SETUP_BASELINE = ("asyncio, decimal, email.mime.multipart, http.client, tarfile, unittest, "
                  "xml.dom.minidom")
SETUP_BASELINE_REFERENCE_S = 0.07
#: Search restarts of each analyze op (the CLI default).
RESTARTS = 8

#: Rounds of the calibration kernel timed between ops, and the kernel time
#: that defines reference speed.
CALIBRATION_ROUNDS = 48
CALIBRATION_REFERENCE_S = 1.0e-3
# Bound now: the tracer counts calls of numpy.linalg.eigh, not the kernel's.
_EIGH = np.linalg.eigh
CALIBRATION_MATRIX = np.diag(np.arange(1.0, 7.0)) + 0.1j * (np.triu(np.ones((6, 6)), 1)
                                                           - np.tril(np.ones((6, 6)), -1))

END_TO_END = {
    "setup_s": "s",
    "configs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "holevo_gap_bits": "bits",
}
LAYER_FIELDS = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count"}
DERIVED = {
    "linalg.eigensolves_per_config": "count/config",
    "linalg.eig_matrices_per_config": "count/config",
    "information.search_restart_ms": "ms",
    "cli.self_s": "s",
    "trace_overhead_ratio": "ratio",
}

IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import {}\n"
    "print(time.perf_counter() - t)\n"
)


def _import_cli():
    """pathduality.cli from this checkout's sources, never an installed copy."""
    if not (SRC / "pathduality" / "__init__.py").is_file():
        raise SystemExit(f"bench: no pathduality sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pathduality.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported {cli.__file__}, not the checkout's sources")
    return cli


def _fresh_import_seconds(modules: str) -> float:
    """Wall time of ``import modules`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET.format(modules)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_samples() -> list[tuple[float, float]]:
    """(pathduality.cli, baseline) import seconds, each pair back to back."""
    return [(_fresh_import_seconds("pathduality.cli"), _fresh_import_seconds(SETUP_BASELINE))
            for _ in range(SETUP_REPEATS)]


class Runner:
    """Runs ops, times them, checks outputs and keeps the failure accounts."""

    def __init__(self, cli, workload: str) -> None:
        self.cli = cli
        self.workload = workload
        self.digests: dict[int, str] = {}
        self.quality: dict[int, list[float]] = {}
        self.failures: dict[int, dict] = {}
        # Latencies at reference speed, successful runs only, per op.
        self.latencies: dict[int, list[float]] = {}
        self.raw_latencies: dict[int, list[float]] = {}
        self.wall = 0.0  # measured seconds of every op, failed ones included
        self.scaled_wall = 0.0  # the same at reference speed
        self.calibration = _calibrate()
        self.configs_ok = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def call(self, op, tracer=None) -> tuple[float, int | None, str | None]:
        """One timed cli.main call; returns (seconds, exit code, error or None).

        The exit code is None if the call raised.
        """
        op.output.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op_id = op.index
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
                error = None if code == 0 else f"exit code {code}"
            except Exception as exc:  # the op failed; the run goes on
                code, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        return latency, code, error

    def run(self, op, tracer=None) -> None:
        latency, code, error = self.call(op, tracer)
        before, self.calibration = self.calibration, _calibrate()
        latency_ref = latency * CALIBRATION_REFERENCE_S / ((before + self.calibration) / 2)
        self.attempted += 1
        self.wall += latency
        self.scaled_wall += latency_ref
        wrong, gaps = False, None
        # Exit code 1 reports a violated relation after the output is written,
        # so that output is checked too: a wrong one makes the run incorrect.
        if code in (0, 1):
            problem, gaps = self._check(op)
            wrong = problem is not None
            if wrong:
                error = problem if error is None else f"{error}; {problem}"
        if error is None:
            if gaps is not None and (op.kind == "verify" or op.panel):
                self.quality[op.index] = gaps
            if not op.panel:
                self.latencies.setdefault(op.index, []).append(latency_ref)
                self.raw_latencies.setdefault(op.index, []).append(latency)
            self.configs_ok += op.configs
            return
        self.failed += 1
        self.wrong += wrong
        record = self.failures.setdefault(
            op.index, {"workload": self.workload, **op.address(), "error": error,
                       "wrong_output": wrong, "times": 0})
        record["times"] += 1

    def _check(self, op) -> tuple[str | None, list[float] | None]:
        """(problem or None, the output's Holevo gaps if checked in full)."""
        try:
            text = op.output.read_text(encoding="utf-8")
        except OSError as exc:
            return f"no output: {exc}", None
        digest = hashlib.sha256(text.encode()).hexdigest()
        if op.index in self.digests:
            if digest == self.digests[op.index]:
                return None, None
            return "output differs from this op's first run", None
        if op.kind == "verify":
            problems, values = reference.check_verify(
                text, op.seed, op.n, op.d, op.configs, op.alpha)
        else:
            problems, gap = reference.check_analyze(text, op.config)
            values = [gap]
        if problems:
            return "reference check: " + "; ".join(problems[:5]), None
        self.digests[op.index] = digest
        return None, values

    def run_pass(self, ops, tracer=None) -> float:
        """Seconds at reference speed that one pass over ``ops`` took."""
        before = self.scaled_wall
        for op in ops:
            self.run(op, tracer)
        return self.scaled_wall - before


def _calibrate() -> float:
    """Seconds the calibration kernel takes now: small eigensolves and
    interpreter work, the same mix as the ops.

    Garbage left by the op before is collected first, untimed, so that the
    kernel measures machine speed only. A CLI process exits after its one
    call and never pays for that garbage either.
    """
    gc.collect()
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        _EIGH(CALIBRATION_MATRIX)
        sum([i * i for i in range(40)])
    return time.perf_counter() - start


def _tail(latencies: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest integer percentile with >= 10 beyond.

    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead, as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100
    q = (100 * (n - 10)) // n
    return xs[-(-q * n // 100) - 1], q


def end_to_end(runner: Runner, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(metrics, details) of an untraced run."""
    if not runner.latencies:
        raise SystemExit("bench: every op failed; no latency to report")
    if not runner.quality:
        raise SystemExit("bench: no verify or search-panel op succeeded; no holevo_gap_bits")
    gaps = [v for values in runner.quality.values() for v in values]
    # An op's latency is the median over the passes it ran in, so the
    # percentiles range over the same ops however many passes fit.
    latencies = [statistics.median(runs) for runs in runner.latencies.values()]
    raw = [statistics.median(runs) for runs in runner.raw_latencies.values()]
    tail, q = _tail(latencies)
    metrics = {
        "setup_s": SETUP_BASELINE_REFERENCE_S * statistics.median(a / b for a, b in setup),
        "configs_per_s": runner.configs_ok / runner.scaled_wall,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "holevo_gap_bits": statistics.fmean(gaps),
    }
    details = {
        "op_tail_percentile": q,
        "latency_ops": len(latencies),
        "failed_ratio": runner.failed / runner.attempted,
        "setup_samples_s": setup,
        "raw_setup_s": statistics.median(a for a, _ in setup),
        "wall_s": runner.wall,
        "wall_at_reference_speed_s": runner.scaled_wall,
        "raw_configs_per_s": runner.configs_ok / runner.wall,
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "raw_op_tail_ms": 1e3 * _tail(raw)[0],
        "configs_ok": runner.configs_ok,
        "holevo_gap_configs": len(gaps),
    }
    return metrics, details


def per_layer(summary: dict, tracer, configs: int, untraced_s: float,
              traced_s: float) -> dict:
    metrics = {f"{boundary}.{field}": values[field]
               for boundary, values in summary.items() for field in LAYER_FIELDS}
    search = summary["information.accessible_info_lower_bound"]
    metrics.update({
        "linalg.eigensolves_per_config": tracer.eig_calls / configs,
        "linalg.eig_matrices_per_config": tracer.eig_matrices / configs,
        "information.search_restart_ms":
            1e3 * search["self_s"] / (RESTARTS * search["calls"]) if search["calls"] else 0.0,
        "cli.self_s": summary["cli.main"]["self_s"],
        "trace_overhead_ratio": traced_s / untraced_s - 1.0,
    })
    return metrics


def traced_counts(summary: dict, tracer) -> dict:
    counts = {b: (v["calls"], v["failed"]) for b, v in summary.items()}
    counts["numpy eigensolves"] = (tracer.eig_calls, tracer.eig_matrices)
    return counts


def environment() -> dict:
    """Machine, interpreter, numpy/BLAS and source revision of this run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "pinned": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                       "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "git_sha": _git_sha(),
    }


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with contextlib.suppress(OSError, StopIteration):
        with open("/proc/self/maps", encoding="utf-8") as handle:
            path = next(line.split()[-1] for line in handle if "openblas" in line.lower())
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_workload(args: argparse.Namespace) -> dict:
    cli = _import_cli()

    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, work)
    runner = Runner(cli, args.workload)
    runner.call(ops[0])  # warm-up: lazy numpy set-up, not measured
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "ops_per_pass": len(ops)}

    if args.trace:
        untraced_s = runner.run_pass(ops)
        tracers, passes = [], []
        for _ in range(2):
            tracer = tracing.Tracer()
            undo = tracer.install()
            try:
                passes.append(runner.run_pass(ops, tracer))
            finally:
                tracing.uninstall(undo)
            tracers.append(tracer)
        summaries = [t.summary() for t in tracers]
        counts = [traced_counts(s, t) for s, t in zip(summaries, tracers)]
        repeat_ok = counts[0] == counts[1]
        configs = sum(op.configs for op in ops)
        metrics = per_layer(summaries[0], tracers[0], configs, untraced_s, passes[0])
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracers[0].save(str(spans))
        units = {**DERIVED, **{f"{b}.{f}": u for b in summaries[0]
                               for f, u in LAYER_FIELDS.items()}}
        record.update(untraced_pass_s=untraced_s, traced_pass_s=passes,
                      traced_counts_repeat=repeat_ok, spans_file=str(spans.relative_to(ROOT)))
        if not repeat_ok:
            record["traced_counts"] = counts
    else:
        setup = setup_samples()
        passes = 0
        while True:
            runner.run_pass(ops)
            passes += 1
            if runner.wall + runner.wall / passes > args.seconds:
                break
        metrics, details = end_to_end(runner, setup)
        record.update(passes=passes, **details)
        repeat_ok = True
        units = END_TO_END

    correct = runner.wrong == 0 and repeat_ok
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(failed_ratio=runner.failed / runner.attempted, result=result,
                  failures=list(runner.failures.values()), environment=environment())
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={runner.attempted} failed={runner.failed} "
          f"failed_ratio={runner.failed / runner.attempted:.4g} correct={correct}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    env = record["environment"]
    print(f"# env: cpu={env['cpu']!r} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']['name']} {env['blas']['version']} "
          f"threads={env['blas']['threads']} git={env['git_sha']}")
    for failure in list(runner.failures.values())[:3]:
        print(f"# failed op {failure['op']} x{failure['times']}: {failure['error']} "
              f"argv={' '.join(failure['argv'])}")
    print(f"# record: {path.relative_to(ROOT)}")
    return result


def run_all(args: argparse.Namespace) -> dict:
    """Every workload, each in a fresh process, as one table."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True)
        print(done.stdout, end="")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
