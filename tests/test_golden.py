"""Byte-for-byte replay of the golden CLI corpus in tests/golden/.

The corpus (problem files, commands, exit codes and stdout) is written by
tests/golden/make_golden.py; see its docstring before regenerating.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_corpus_covers_every_subcommand():
    from jkvkit.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    assert {argv[0] for argv in CASES.values()} == set(sub.choices)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / "expected" / f"{name}.txt").read_text(encoding="utf-8")
    assert make_golden.run_case(CASES[name], GOLDEN / "inputs") == expected


FIRST_CASE = {}
for _name in sorted(CASES):
    FIRST_CASE.setdefault(CASES[_name][0], _name)


@pytest.mark.parametrize("name", sorted(FIRST_CASE.values()))
def test_cli_output_under_optimize_matches_golden(name):
    """No output depends on an assert: `python -O` strips them all."""
    argv = [a.replace("{inputs}", str(GOLDEN / "inputs")) for a in CASES[name]]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "jkvkit.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(GOLDEN.parent.parent / "src")),
        timeout=120,
    )
    expected = (GOLDEN / "expected" / f"{name}.txt").read_text(encoding="utf-8")
    assert f"exit {proc.returncode}\n{proc.stdout}" == expected
