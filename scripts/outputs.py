#!/usr/bin/env python3
"""Write every standard output of one source tree, or compare two such sets byte for byte.

    python scripts/outputs.py write --src SRC DIR
    python scripts/outputs.py compare PARENT CHANGE

``write`` runs ``python -m contilearn`` on the package under ``SRC/src`` in
this process's environment, as a user's runs are made: the package root pins
one BLAS thread before numpy loads, and every script under ``scripts/`` that
imports contilearn does so before numpy (a tier-1 test keeps it so). It
writes into DIR:

- xor and circle, from SRC's ``fixtures/`` and ``configs/``: the model, its
  report, the predictions and the algebra report on the training rows;
- train-deep and train-tall, with the rows and configs of ``bench/inputs.py``
  next to this script: the model and its report;
- score-bulk: the predictions and algebra report of train-deep's model on
  the benchmark's 10^5 rows at seeds 0 and 20;
- the line ``algebra --reference NAME`` prints for each built-in algebra;
- the standard output of SRC's ``scripts/run_xor.py`` and ``scripts/run_circle.py``.

``compare`` requires both directories to hold the same file names, and every
file to have the same bytes in both, except the files named in
``byte_changes.txt`` next to this script (one name a line; ``#`` starts a
comment), each of which must differ. It prints one line per file that breaks
the rule, naming the first differing line of an undeclared change, and exits 1
if any does. Output bytes depend on the BLAS kernel and
the numpy build, so compare two sets written on the same machine.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "bench"))
import inputs  # noqa: E402  (the benchmark's seeded rows, next to this script)

SCORE_SEEDS = (0, 20)
REFERENCES = ("complex", "quaternion")


def _runner(src: Path):
    """A function that runs ``python [args]`` on SRC's package and returns its stdout."""
    path = os.pathsep.join(filter(None, [str(src / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args) -> str:
        proc = subprocess.run(
            [sys.executable, *map(str, args)], env=env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            command = " ".join(map(str, args))
            sys.exit(f"outputs: python {command} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    package = Path(run("-c", "import contilearn; print(contilearn.__file__)").strip())
    if package.resolve().parent != (src / "src" / "contilearn").resolve():
        sys.exit(f"outputs: contilearn imports from {package}, not from {src / 'src'}")
    return run


def write(src: Path, out: Path) -> None:
    src, out = src.resolve(), out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    run = _runner(src)

    def cli(*args) -> str:
        return run("-m", "contilearn", *args)

    def score(model: Path, data: Path, name: str) -> None:
        cli("predict", "--model", model, "--data", data, "--out", out / f"{name}.probs")
        cli("algebra", "--model", model, "--data", data, "--out", out / f"{name}.algebra")

    for name in ("xor", "circle"):
        data, model = src / "fixtures" / f"{name}.csv", out / f"{name}.model"
        cli("train", "--data", data, "--config", src / "configs" / f"{name}.cfg", "--out", model)
        score(model, data, name)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, case in (("train-deep", inputs.deep_case()), ("train-tall", inputs.tall_case())):
            data, config = inputs.write_case(case, work)
            cli("train", "--data", data, "--config", config, "--out", out / f"{name}.model")
        for seed in SCORE_SEEDS:
            rows = work / f"rows{seed}.csv"
            inputs.write_csv(rows, inputs.score_rows(seed))
            score(out / "train-deep.model", rows, f"score-bulk-{seed}")
    for name in REFERENCES:
        (out / f"reference-{name}.txt").write_text(cli("algebra", "--reference", name))
    for name in ("run_xor", "run_circle"):
        (out / f"{name}.stdout").write_text(run(src / "scripts" / f"{name}.py"))


def declared_changes() -> set[str]:
    lines = (HERE / "byte_changes.txt").read_text(encoding="utf-8").splitlines()
    return {name for name in (line.split("#", 1)[0].strip() for line in lines) if name}


def compare(parent: Path, change: Path) -> list[str]:
    """One line per file that breaks the rule; empty when the change keeps it."""
    declared = declared_changes()
    names = {p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()}
    problems = [
        f"{name}: declared in byte_changes.txt but not written" for name in sorted(declared - names)
    ]
    for name in sorted(names):
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            problems.append(f"{name}: written for only one tree")
            continue
        old, new = a.read_bytes(), b.read_bytes()
        if name in declared and old == new:
            problems.append(f"{name}: declared changed, but its bytes are the same")
        elif name not in declared and old != new:
            line = _first_differing_line(old, new)
            problems.append(
                f"{name}: bytes differ from line {line}, and byte_changes.txt does not declare it"
            )
    return problems


def _first_differing_line(a: bytes, b: bytes) -> int:
    """The number, from 1, of the first line whose bytes differ between two unequal texts."""
    pairs = zip_longest(a.splitlines(keepends=True), b.splitlines(keepends=True))
    return next(n for n, (x, y) in enumerate(pairs, 1) if x != y)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write SRC's outputs into DIR")
    w.add_argument("--src", type=Path, required=True, help="root of a contilearn checkout")
    w.add_argument("dir", type=Path)
    c = sub.add_parser("compare", help="compare the outputs of a parent and a change")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.src, args.dir)
        return 0
    problems = compare(args.parent, args.change)
    for line in problems:
        print(line)
    if not problems:
        print(f"{len(list(args.parent.iterdir()))} outputs: every byte as declared")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
