"""Committed digests of the default artifacts: the byte contract across changes.

``verify --seed 42 --output``, the three sweep families at their default
flags and ``analyze --restarts 8`` on two configurations run in-process, and
each artifact's sha256 must equal the digest below. A change that moves an
artifact's bytes on purpose updates its digest and fingerprint in the same
commit (run this file as a script to print both) and records in CHANGES.md
which fields moved and by how much.

The fingerprints in artifact_fingerprints.json only explain a mismatch. For
a CSV, a CRC per line locates the first differing line, and each column's
min, max and mean give a lower bound on its largest change, since none of
the three moves by more than the largest change of any one field. For an
``analyze`` report the fingerprint is the whole report, so each differing
field is named with its change.
"""

import hashlib
import json
import math
import sys
import zlib
from pathlib import Path

import pytest

from pathduality.cli import main
from pathduality.core import REPORT_FIELDS

ARGV = {
    "verify": ["--command", "verify", "--seed", "42"],
    "overlap-scan": ["--command", "sweep", "--family", "overlap-scan"],
    "prior-scan": ["--command", "sweep", "--family", "prior-scan"],
    "dimension-scan": ["--command", "sweep", "--family", "dimension-scan"],
}

#: analyze inputs that run no search at any budget, so their reports are
#: pinned at the default 8 restarts: a two-path pair, where the Helstrom
#: measurement is optimal, and three parallel states with complex phases,
#: where the accessible information is 0.
ANALYZE = {
    "analyze-overlap06": {
        "probs": [0.5, 0.5],
        "detectors": {"dim": 2, "states": [[[1.0, 0.0], [0.0, 0.0]],
                                           [[0.6, 0.0], [0.8, 0.0]]]},
    },
    "analyze-parallel3": {
        "probs": [0.2, 0.3, 0.5],
        "detectors": {"dim": 2, "states": [[[0.6, 0.0], [0.8, 0.0]],
                                           [[0.0, 0.6], [0.0, 0.8]],
                                           [[-0.6, 0.0], [-0.8, 0.0]]]},
    },
}

DIGESTS = {
    "verify": "b27935f87907ecee535d9c06ea8cc8aaeeefc2b75841019d3d9b06be64cb5b9b",
    "overlap-scan": "63e11da8fb96d2752896ea93dac40ba82286d1d2c9e699d29108e1a01680b85d",
    "prior-scan": "15ccac9840e657af0cf98e2f703af5c1edd4bb40e8f8372fdd55068f873453ce",
    "dimension-scan": "2dd79362938e60c3e130264ce3af9aefdb120a2f3dd085372ab2660d204bc33e",
    "analyze-overlap06": "50bce58704e635ab64ab3f64dc38f18b4efa08637c2894bee3e732c874707c13",
    "analyze-parallel3": "371dab53511cf0bdd250442b8804ca741c96e74afc5af112829746b45e04712d",
}

FINGERPRINTS = Path(__file__).with_name("artifact_fingerprints.json")


def render(name, directory):
    """Run one artifact's command in-process and return its text."""
    directory = Path(directory)
    if name in ANALYZE:
        config = directory / f"{name}-input.json"
        config.write_text(json.dumps(ANALYZE[name]), encoding="utf-8")
        path = directory / f"{name}.json"
        argv = ["--command", "analyze", "--input", str(config), "--restarts", "8"]
    else:
        path = directory / f"{name}.csv"
        argv = ARGV[name]
    assert main(argv + ["--output", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def columns(text):
    """Each report field's values, from the CSV rows below the header."""
    rows = [line.split(",")[1:] for line in text.splitlines() if not line.startswith("#")][1:]
    return {name: [float(row[k]) for row in rows] for k, name in enumerate(REPORT_FIELDS)}


def line_crcs(text):
    return [f"{zlib.crc32(line.encode()):08x}" for line in text.splitlines()]


def fingerprint(name, text):
    if name in ANALYZE:
        return {"report": json.loads(text)}
    return {
        "lines": "".join(line_crcs(text)),
        "columns": {
            name: [min(values), max(values), math.fsum(values) / len(values)]
            for name, values in columns(text).items()
        },
    }


def leaves(value, prefix=""):
    """(path, value) of every number or string in a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from leaves(item, f"{prefix}[{k}]")
    else:
        yield prefix, value


def explain_report(name, text, expected):
    """Each field of an analyze report that differs, with its change."""
    now, before = dict(leaves(json.loads(text))), dict(leaves(expected["report"]))
    report = [f"{name}: sha256 {hashlib.sha256(text.encode()).hexdigest()}, "
              f"expected {DIGESTS[name]}"]
    for field in list(before) + [f for f in now if f not in before]:
        old, new = before.get(field), now.get(field)
        if old == new:
            continue
        line = f"  {field}: {new!r}, expected {old!r}"
        if isinstance(old, float) and isinstance(new, float):
            line += f" (change {new - old:+.3g})"
        report.append(line)
    return "\n".join(report)


def explain(name, text, expected):
    """The first differing line, and per field a lower bound on its largest
    change."""
    if name in ANALYZE:
        return explain_report(name, text, expected)
    lines, now = text.splitlines(), fingerprint(name, text)
    before = [expected["lines"][k:k + 8] for k in range(0, len(expected["lines"]), 8)]
    first = next((k for k, (a, b) in enumerate(zip(line_crcs(text), before)) if a != b),
                 min(len(lines), len(before)))
    report = [
        f"{name}: sha256 {hashlib.sha256(text.encode()).hexdigest()}, expected {DIGESTS[name]}",
        f"  {len(lines)} lines, {len(before)} expected; first differing line {first + 1}: "
        + (lines[first] if first < len(lines) else "<end of file>"),
    ]
    if len(lines) == len(before):
        for field, stats in now["columns"].items():
            bound = max(abs(a - b) for a, b in zip(stats, expected["columns"][field]))
            if bound > 0.0:
                report.append(f"  {field}: largest change at least {bound:.3g}")
    return "\n".join(report)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_artifact_bytes_match_the_committed_digest(name, tmp_path, capsys):
    text = render(name, tmp_path)
    capsys.readouterr()
    if hashlib.sha256(text.encode()).hexdigest() != DIGESTS[name]:
        expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))[name]
        pytest.fail(explain(name, text, expected), pytrace=False)


def test_fingerprints_belong_to_the_digests():
    # A digest updated without its fingerprint would explain a mismatch
    # against the wrong artifact.
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    assert {name: entry["sha256"] for name, entry in recorded.items()} == DIGESTS


if __name__ == "__main__":
    # python tests/test_artifacts.py DIR: write the current artifacts to DIR,
    # print their digests and rewrite the fingerprint file.
    directory = Path(sys.argv[1])
    directory.mkdir(parents=True, exist_ok=True)
    records = {}
    for name in DIGESTS:
        text = render(name, directory)
        records[name] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                         **fingerprint(name, text)}
        print(f'    "{name}": "{records[name]["sha256"]}",', file=sys.stderr)
    FINGERPRINTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
