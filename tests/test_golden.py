"""Byte-for-byte CLI output on three topologies, for every command and format.

tests/golden/<name>.trust holds a topology and tests/golden/<name>.json the
exit code, stdout and stderr of each invocation on it, keyed by the
invocation's arguments. The topology is fed on standard input, so the JSON
output records it as '-'.
"""

import io
import json
from pathlib import Path

import pytest

from helpers import run_cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (path.stem, key, expected)
    for path in sorted(GOLDEN.glob("*.json"))
    for key, expected in json.loads(path.read_text(encoding="utf-8")).items()
]


@pytest.mark.parametrize(
    "name,key,expected", CASES, ids=[f"{name}: {key}" for name, key, _ in CASES]
)
def test_cli_output_matches_golden(name, key, expected, capsys, monkeypatch):
    text = (GOLDEN / f"{name}.trust").read_text(encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, *key.split(" "), "--topology", "-")
    assert (code, out, err) == (expected["exit"], expected["stdout"], expected["stderr"])
