"""Byte-for-byte replay of the golden CLI corpus in tests/golden/.

The corpus (problem files, commands, exit codes and stdout) is written by
tests/golden/make_golden.py; see its docstring before regenerating.
"""

import importlib.util
import json
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
