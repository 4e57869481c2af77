"""Self-tests of the benchmark: python3 -m pytest bench -q (under a minute)."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from pathduality import cli  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _few_ops(ops):
    """Two ops, plus the first search-panel op where the workload has one."""
    return [op for op in ops if not op.panel][:2] + [op for op in ops if op.panel][:1]


def _run_small(monkeypatch, capsys, workload: str, trace: int, pick=_few_ops) -> dict:
    """run.main on a few of the workload's ops; returns its last stdout line."""
    build = run.WORKLOADS[workload]
    monkeypatch.setitem(run.WORKLOADS, workload, lambda seed, work: pick(build(seed, work)))
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_end_to_end(monkeypatch, capsys, workload):
    result = _run_small(monkeypatch, capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2
    names = [m["name"] for m in _declared()["end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in _declared()["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


def test_smoke_traced_counts_repeat(monkeypatch, capsys):
    result = _run_small(monkeypatch, capsys, "analyze-mix", 1, pick=lambda ops: ops[:2])
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["cli.main.calls"]["value"] == 2
    assert result["metrics"]["information.accessible_info_lower_bound.calls"]["value"] == 2
    record = json.loads((BENCH / "out" / "analyze-mix-seed3-trace1.json").read_text())
    assert record["traced_counts_repeat"] is True


class _ViolatingCli:
    """The CLI, except that verify at d = 2 writes a negative gap_l1 and
    exits 1, as the CLI does when a relation is violated."""

    @staticmethod
    def main(argv: list[str]) -> int:
        code = cli.main(argv)
        if argv[argv.index("--d") + 1] != "2":
            return code
        out = Path(argv[argv.index("--output") + 1])
        lines = out.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[reference.CSV_HEADER.split(",").index("gap_l1")] = "-1e-06"
        lines[-1] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
        return 1


def test_wrong_output_with_exit_code_1_is_not_correct(monkeypatch, capsys):
    monkeypatch.setattr(run, "_import_cli", lambda: _ViolatingCli)
    result = _run_small(monkeypatch, capsys, "verify-grid", 0, pick=lambda ops: ops[:3])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    record = json.loads((BENCH / "out" / "verify-grid-seed3-trace0.json").read_text())
    (failure,) = record["failures"]
    assert failure["wrong_output"] is True and failure["d"] == 2
    assert failure["error"].startswith("exit code 1; reference check:")
    assert "gap_l1=-1e-06 below" in failure["error"]


def test_tracer_restores_every_binding():
    from pathduality import discrimination, linalg, model
    import numpy as np

    before = (linalg.eig_hermitian, discrimination.success_upper_bound,
              discrimination.Ensemble.__dict__["from_config"],
              model.DensityMatrix.__dict__["__post_init__"], np.linalg.eigh)
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        assert discrimination.linalg.eig_hermitian is not before[0]
        model.DensityMatrix(np.eye(2) / 2)
    finally:
        tracing.uninstall(undo)
    after = (linalg.eig_hermitian, discrimination.success_upper_bound,
             discrimination.Ensemble.__dict__["from_config"],
             model.DensityMatrix.__dict__["__post_init__"], np.linalg.eigh)
    assert after == before
    summary = tracer.summary()
    assert summary["model.validate"]["calls"] == 1
    assert tracer.eig_calls == 1


def _verify_csv(tmp_path: Path, n: int, d: int, samples: int, seed: int) -> str:
    out = tmp_path / "v.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--command", "verify", "--n", str(n), "--d", str(d),
                         "--samples", str(samples), "--seed", str(seed),
                         "--output", str(out)])
    assert code == 0
    return out.read_text()


def test_reference_accepts_program_output(tmp_path):
    text = _verify_csv(tmp_path, 4, 3, 20, 7)
    problems, gaps = reference.check_verify(text, 7, 4, 3, 20, 1.0)
    assert problems == []
    assert len(gaps) == 20


@pytest.mark.parametrize("column", ["x", "ps_bound", "c_rel", "mi", "h_priors", "gap_l1"])
def test_reference_rejects_corrupted_row(tmp_path, column):
    text = _verify_csv(tmp_path, 4, 3, 20, 7)
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line == reference.CSV_HEADER)
    target = header + 6
    fields = lines[target].split(",")
    position = reference.CSV_HEADER.split(",").index(column)
    fields[position] = repr(float(fields[position]) + 1e-5)
    lines[target] = ",".join(fields)
    problems, _ = reference.check_verify("\n".join(lines) + "\n", 7, 4, 3, 20, 1.0)
    assert problems and all(p.startswith("N4/d3/5:") for p in problems)


def test_reference_rejects_wrong_inputs(tmp_path):
    text = _verify_csv(tmp_path, 4, 3, 20, 7)
    problems, _ = reference.check_verify(text, 8, 4, 3, 20, 1.0)
    assert len(problems) >= 20


def test_reference_rejects_accessible_above_holevo(tmp_path):
    config = reference.regenerate(5, 1, 0, 3, 2, 1.0)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config.to_json()))
    out = tmp_path / "a.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--command", "analyze", "--input", str(path),
                         "--output", str(out), "--restarts", "1"]) == 0
    payload = json.loads(out.read_text())
    assert reference.check_analyze(json.dumps(payload), config)[0] == []
    payload["accessible_info_lower_bound"] = payload["holevo_bound"] + 1e-6
    problems, _ = reference.check_analyze(json.dumps(payload), config)
    assert any("above holevo" in p for p in problems)


def test_tail_has_ten_samples_beyond():
    for n in (20, 40, 94, 152):
        xs = [float(i) for i in range(n)]
        value, q = run._tail(xs)
        assert sum(x > value for x in xs) >= 10
        assert 50 <= q < 100


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "verify-grid", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
