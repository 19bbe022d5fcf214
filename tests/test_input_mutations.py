"""Bad input is never an internal error: seeded single mutations of the
golden problem files and flags, each run through cli.main.

The first stream changes one integer, one rational string or the length of
one list in one input file of one golden command.  The second changes the
structure: it deletes or renames one key, or puts a value of another shape
in place of one value, or it gives one vector or box flag a malformed value
or drops it.  Whatever a mutation does, the command must answer (exit 0 or
1), reject the input (2) or call it unsupported (3); on 2 and 3 stdout
stays empty and stderr is one line, after argparse's usage for a flag that
argparse rejects.  Exit 4 would mean a bad input reached a check that is
not a ProblemFormatError.
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

STRUCTURAL_MUTATIONS = 3_000
FLAG_MUTATIONS = 600

INTS = (-2, -1, 0, 1, 2, 3, 7)
RATIONALS = ("0", "1", "-1", "1/2", "-7/3", "1/0", "x", "", "2.5", "1/-2")
SHAPES = ({}, [], "x", 0, None, [[]])
FLAGS = ("--cochar", "--cochar-file", "--fixed", "--lambda0", "--lambda", "--box")
# Malformed flag values; the only valid boxes among them are small.
FLAG_VALUES = (
    "", "x", ",", "1,", ",1", "1,,2", "1.5", "1/2", "0x1", "1 2", "-", "--", "-x",
    "1e3", "\u0663", "nan", "0", "-1", "-2,1", "1,1,1,1,1", "9" * 5000,
)


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


def _nodes(obj, path=()):
    """Paths to every value in a JSON document, the root included."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _restructure(rng, doc):
    """A copy of doc with one key deleted or renamed, or one value replaced
    by a value of another shape, and a description of the change."""
    doc = copy.deepcopy(doc)
    paths = list(_nodes(doc))
    keyed = [p for p in paths if p and isinstance(p[-1], str)]
    op = rng.choice(("delete", "rename", "replace", "replace"))
    if op != "replace" and keyed:
        path = rng.choice(keyed)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent.pop(path[-1])
        if op == "rename":
            parent[rng.choice((path[-1] + "_", path[-1].upper(), ""))] = value
        return doc, f"{op} {list(path)}"
    path = rng.choice(paths)
    new = copy.deepcopy(rng.choice(SHAPES))
    if not path:
        return new, f"document -> {new!r}"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc, f"{list(path)} -> {new!r}"


def _diagnosed(code, out, err):
    """Exit 0 or 1; or exit 2 or 3 with nothing on stdout and one line on
    stderr, which argparse may precede with its usage (a first line and
    indented continuation lines)."""
    if code in (0, 1):
        return True
    lines = err.splitlines()
    usage = lines[0].startswith("usage: ") and all(line.startswith(" ") for line in lines[1:-1])
    one_line = len(lines) == 1 or (usage and ": error: " in lines[-1])
    return code in (2, 3) and out == "" and err.endswith("\n") and one_line


def test_structural_mutations_of_golden_inputs_never_exit_4(tmp_path):
    rng = random.Random(21)
    commands = [argv for _, argv in sorted(CASES.items()) if argv[0] != "verify"]
    docs = {}
    bad = []
    for i in range(STRUCTURAL_MUTATIONS):
        argv = rng.choice(commands)
        j = rng.choice([k for k, a in enumerate(argv) if a.startswith("{inputs}/")])
        name = argv[j].removeprefix("{inputs}/")
        if name not in docs:
            docs[name] = json.loads((GOLDEN / "inputs" / name).read_text(encoding="utf-8"))
        doc, change = _restructure(rng, docs[name])
        mutated = tmp_path / f"mutated-{name}"
        mutated.write_text(json.dumps(doc), encoding="utf-8")
        args = [str(mutated) if k == j else a for k, a in enumerate(argv)]
        code, out, err = _run([a.replace("{inputs}", str(GOLDEN / "inputs")) for a in args])
        if not _diagnosed(code, out, err):
            bad.append((i, argv[0], name, change, code, err.splitlines()[:1]))
    assert not bad, bad[:5]


def test_malformed_or_missing_flags_never_exit_4():
    rng = random.Random(22)
    commands = [
        argv for _, argv in sorted(CASES.items()) if argv[0] != "verify" and set(argv) & set(FLAGS)
    ]
    bad = []
    for i in range(FLAG_MUTATIONS):
        argv = [a.replace("{inputs}", str(GOLDEN / "inputs")) for a in rng.choice(commands)]
        k = rng.choice([k for k, a in enumerate(argv) if a in FLAGS])
        if rng.random() < 0.2:
            args, change = argv[:k] + argv[k + 2 :], f"drop {argv[k]}"
        else:
            value = rng.choice(FLAG_VALUES)
            args, change = argv[:k] + [f"{argv[k]}={value}"] + argv[k + 2 :], f"{argv[k]}={value[:20]!r}"
        code, out, err = _run(args)
        if not _diagnosed(code, out, err):
            bad.append((i, argv[0], change, code, err.splitlines()[:1]))
    assert not bad, bad[:5]
