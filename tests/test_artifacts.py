"""Committed digests of the default artifacts: the byte contract across changes.

``verify --seed 42 --output`` and the three sweep families at their default
flags run in-process, and each CSV's sha256 must equal the digest below. A
change that moves an artifact's bytes on purpose updates its digest and
fingerprint in the same commit (run this file as a script to print both)
and records in CHANGES.md which fields moved and by how much.

The fingerprints in artifact_fingerprints.json only explain a mismatch: a
CRC per line locates the first differing line, and each column's min, max
and mean give a lower bound on its largest change, since none of the three
moves by more than the largest change of any one field.
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

DIGESTS = {
    "verify": "b27935f87907ecee535d9c06ea8cc8aaeeefc2b75841019d3d9b06be64cb5b9b",
    "overlap-scan": "63e11da8fb96d2752896ea93dac40ba82286d1d2c9e699d29108e1a01680b85d",
    "prior-scan": "15ccac9840e657af0cf98e2f703af5c1edd4bb40e8f8372fdd55068f873453ce",
    "dimension-scan": "2dd79362938e60c3e130264ce3af9aefdb120a2f3dd085372ab2660d204bc33e",
}

FINGERPRINTS = Path(__file__).with_name("artifact_fingerprints.json")


def render(name, directory):
    """Run one artifact's command in-process and return the CSV text."""
    path = Path(directory) / f"{name}.csv"
    assert main(ARGV[name] + ["--output", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def columns(text):
    """Each report field's values, from the CSV rows below the header."""
    rows = [line.split(",")[1:] for line in text.splitlines() if not line.startswith("#")][1:]
    return {name: [float(row[k]) for row in rows] for k, name in enumerate(REPORT_FIELDS)}


def line_crcs(text):
    return [f"{zlib.crc32(line.encode()):08x}" for line in text.splitlines()]


def fingerprint(text):
    return {
        "lines": "".join(line_crcs(text)),
        "columns": {
            name: [min(values), max(values), math.fsum(values) / len(values)]
            for name, values in columns(text).items()
        },
    }


def explain(name, text, expected):
    """The first differing line, and per field a lower bound on its largest
    change."""
    lines, now = text.splitlines(), fingerprint(text)
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


@pytest.mark.parametrize("name", list(ARGV))
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
    for name in ARGV:
        text = render(name, directory)
        records[name] = {"sha256": hashlib.sha256(text.encode()).hexdigest(), **fingerprint(text)}
        print(f'    "{name}": "{records[name]["sha256"]}",', file=sys.stderr)
    FINGERPRINTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
