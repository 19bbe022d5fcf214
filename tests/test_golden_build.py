"""The golden corpus builder still writes the committed corpus.

tests/test_golden.py replays the commands; this runs the build path of
tests/golden/make_golden.py, which only a regeneration would reach.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_build_writes_the_committed_inputs_and_cases():
    files, cases = make_golden.build()
    inputs = GOLDEN / "inputs"
    assert sorted(files) == sorted(p.name for p in inputs.iterdir())
    for name, obj in files.items():
        assert json.dumps(obj, indent=1) + "\n" == (inputs / name).read_text(encoding="utf-8"), name
    assert json.dumps(cases, indent=1) + "\n" == (GOLDEN / "cases.json").read_text(encoding="utf-8")
