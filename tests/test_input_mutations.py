"""Bad input is never an internal error: seeded single mutations of the
golden problem files, each run through cli.main.

A mutation changes one integer, one rational string or the length of one
list in one input file of one golden command.  Whatever it does, the
command must answer (exit 0 or 1), reject the input (2) or call it
unsupported (3); on 2 and 3 stdout stays empty and stderr is one line.
Exit 4 would mean a bad input reached a check that is not a
ProblemFormatError.
"""

import contextlib
import copy
import io
import json
import random
from pathlib import Path

from jkvkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
MUTATIONS = 2_000

INTS = (-2, -1, 0, 1, 2, 3, 7)
RATIONALS = ("0", "1", "-1", "1/2", "-7/3", "1/0", "x", "", "2.5", "1/-2")


def _sites(obj, path=()):
    """Paths to every int, string and nonempty list in a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _sites(value, path + (key,))
        return
    if isinstance(obj, list):
        if obj:
            yield path
        for i, value in enumerate(obj):
            yield from _sites(value, path + (i,))
        return
    if type(obj) in (int, str):
        yield path


def _mutate(rng, doc):
    """A copy of doc with one site changed, and a description of the change."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_sites(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if isinstance(old, list):
        i = rng.randrange(len(old))
        if rng.random() < 0.5:
            new = old[:i] + old[i + 1 :]
        else:
            new = old[: i + 1] + old[i:]
    elif isinstance(old, int):
        new = rng.choice(INTS + (old + 1, old - 1, -old))
    else:
        new = rng.choice(RATIONALS)
    parent[path[-1]] = new
    return doc, f"{list(path)}: {old!r} -> {new!r}"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_single_mutations_of_golden_inputs_never_exit_4(tmp_path):
    rng = random.Random(20)
    commands = [argv for _, argv in sorted(CASES.items()) if argv[0] != "verify"]
    docs = {}
    bad = []
    for i in range(MUTATIONS):
        argv = rng.choice(commands)
        slots = [j for j, a in enumerate(argv) if a.startswith("{inputs}/")]
        j = rng.choice(slots)
        name = argv[j].removeprefix("{inputs}/")
        if name not in docs:
            docs[name] = json.loads((GOLDEN / "inputs" / name).read_text(encoding="utf-8"))
        doc, change = _mutate(rng, docs[name])
        mutated = tmp_path / f"mutated-{name}"
        mutated.write_text(json.dumps(doc), encoding="utf-8")
        args = [str(mutated) if k == j else a for k, a in enumerate(argv)]
        args = [a.replace("{inputs}", str(GOLDEN / "inputs")) for a in args]
        code, out, err = _run(args)
        ok = code in (0, 1) or (code in (2, 3) and out == "" and err.count("\n") == 1)
        if not ok:
            bad.append((i, argv[0], name, change, code, err.splitlines()[:1]))
    assert not bad, bad[:5]
