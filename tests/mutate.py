#!/usr/bin/env python3
"""Diff-scoped mutation testing of src/retentive.

    python3 tests/mutate.py BASE                 # mutate the lines changed since BASE
    python3 tests/mutate.py BASE --list          # print the mutants, run nothing
    python3 tests/mutate.py BASE --workdir DIR   # keep the scratch copy in DIR

Only the src/retentive lines that ``git diff BASE`` adds or changes are
mutated, one mutant at a time, in a scratch copy of the files git tracks (or
would track: untracked files that are not ignored). The working tree is never
written. Each mutant runs its module's own ``tests/test_<module>.py`` with
``-x`` first; only a mutant that survives it runs the full tier-1 suite. The
output is one line per survivor, then the counts.

Operators: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``*``/``/``
(binary and augmented), ``and``/``or``, ``is``/``is not``, ``in``/``not in``,
an integer constant plus or minus one, and a statement replaced by ``pass``.
A mutant is the source with one span rewritten, so every other byte, comments
included, stays as written. Standard library only; pytest does not collect
this file.
"""
from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/retentive"
TIMEOUT_S = 900

# each operator, its replacement and the source text it is written as
_SWAPS = {
    ast.Lt: (ast.LtE, r"<"), ast.LtE: (ast.Lt, r"<="),
    ast.Gt: (ast.GtE, r">"), ast.GtE: (ast.Gt, r">="),
    ast.Eq: (ast.NotEq, r"=="), ast.NotEq: (ast.Eq, r"!="),
    ast.Is: (ast.IsNot, r"\bis\b"), ast.IsNot: (ast.Is, r"\bis\s+not\b"),
    ast.In: (ast.NotIn, r"\bin\b"), ast.NotIn: (ast.In, r"\bnot\s+in\b"),
    ast.Add: (ast.Sub, r"\+"), ast.Sub: (ast.Add, r"-"),
    ast.Mult: (ast.Div, r"\*"), ast.Div: (ast.Mult, r"/"),
    ast.And: (ast.Or, r"\band\b"), ast.Or: (ast.And, r"\bor\b"),
}
_TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
         ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
         ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
         ast.And: "and", ast.Or: "or"}
# statements whose replacement by pass is not a mutant worth a run
_KEPT_STATEMENTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Pass)


@dataclass(frozen=True)
class Mutant:
    line: int
    start: int  # byte offsets of the rewritten span in the module source
    end: int
    text: bytes
    label: str

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text + source[self.end:]


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line, 1-based: ast's columns are UTF-8 bytes."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _operator_mutant(source: bytes, starts, left, right, op, line) -> Mutant | None:
    """The one operator token between two operand nodes, swapped."""
    lo = starts[left.end_lineno] + left.end_col_offset
    hi = starts[right.lineno] + right.col_offset
    gap = source[lo:hi].decode("utf-8")
    code = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), gap)
    hits = [m for m in re.finditer(_SWAPS[type(op)][1], code)
            if not (type(op) is ast.Is and code[m.end():].lstrip().startswith("not"))
            and not (type(op) is ast.In and code[:m.start()].rstrip().endswith("not"))]
    if len(hits) != 1:
        return None
    new = _SWAPS[type(op)][0]
    at = lo + len(gap[:hits[0].start()].encode("utf-8"))
    width = len(hits[0].group().encode("utf-8"))
    return Mutant(line, at, at + width, _TEXT[new].encode(),
                  f"{_TEXT[type(op)]} -> {_TEXT[new]}")


def mutants(source: bytes, lines: set[int]) -> list[Mutant]:
    """Every mutant of the given lines of one module's source, in source order."""
    tree = ast.parse(source)
    starts = _offsets(source)
    docstrings = {id(body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)) and (body := node.body)
                  and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                  and isinstance(body[0].value.value, str)}
    found = []
    for node in ast.walk(tree):
        pairs = []
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(operands[i], operands[i + 1], op) for i, op in enumerate(node.ops)]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            left = node.left if isinstance(node, ast.BinOp) else node.target
            right = node.right if isinstance(node, ast.BinOp) else node.value
            pairs = [(left, right, node.op)]
        elif isinstance(node, ast.BoolOp):
            pairs = [(a, b, node.op) for a, b in zip(node.values, node.values[1:])]
        for left, right, op in pairs:
            line = right.lineno
            if type(op) in _SWAPS and line in lines:
                m = _operator_mutant(source, starts, left, right, op, line)
                if m is not None:
                    found.append(m)
        if isinstance(node, ast.Constant) and type(node.value) is int and node.lineno in lines:
            start = starts[node.lineno] + node.col_offset
            end = starts[node.end_lineno] + node.end_col_offset
            if ast.literal_eval(source[start:end].decode("utf-8")) != node.value:
                continue  # a position ast misreports, as inside some f-strings
            for step in (1, -1):
                found.append(Mutant(node.lineno, start, end, str(node.value + step).encode(),
                                    f"{node.value} -> {node.value + step}"))
        if isinstance(node, ast.stmt) and node.lineno in lines \
                and not isinstance(node, _KEPT_STATEMENTS) and id(node) not in docstrings:
            start = starts[node.lineno] + node.col_offset
            end = starts[node.end_lineno] + node.end_col_offset
            found.append(Mutant(node.lineno, start, end, b"pass",
                                f"{type(node).__name__} -> pass"))
    found.sort(key=lambda m: (m.start, m.end, m.label))
    return [m for m in found if _parses(m.apply(source))]


def _parses(source: bytes) -> bool:
    try:
        ast.parse(source)
    except SyntaxError:
        return False
    return True


def changed_lines(base: str) -> dict[str, set[int]]:
    """Module file name -> the lines `git diff base` adds or changes in it."""
    diff = subprocess.run(["git", "diff", "-U0", base, "--", PACKAGE], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout
    touched: dict[str, set[int]] = {}
    current = None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            name = row[4:].removeprefix("b/")
            current = Path(name).name if name.endswith(".py") else None
        elif row.startswith("@@") and current is not None:
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", row).groups()
            n = 1 if count is None else int(count)
            touched.setdefault(current, set()).update(range(int(start), int(start) + n))
    return {name: lines for name, lines in touched.items() if lines}


def _copy_tree(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    for name in filter(None, listed.decode("utf-8").split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _passes(work: Path, targets: list[str]) -> bool:
    """Whether pytest passes on targets in the copy; a run past TIMEOUT_S fails."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors", *targets], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="the commit the change is measured against")
    p.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    p.add_argument("--workdir", type=Path, help="scratch directory for the copy (kept)")
    args = p.parse_args(argv)
    plan = {name: mutants((ROOT / PACKAGE / name).read_bytes(), lines)
            for name, lines in sorted(changed_lines(args.base).items())}
    if args.list:
        for name, ms in plan.items():
            for m in ms:
                print(f"{PACKAGE}/{name}:{m.line}: {m.label}")
        print(f"mutants: {sum(map(len, plan.values()))}")
        return 0
    work = args.workdir or Path(tempfile.mkdtemp(prefix="mutate-"))
    if work.resolve().is_relative_to(ROOT):
        p.error(f"--workdir {work} lies inside the working tree")
    work.mkdir(parents=True, exist_ok=True)
    _copy_tree(work)
    killed_own = killed_all = survived = 0
    try:
        for name, ms in plan.items():
            module = work / PACKAGE / name
            original = module.read_bytes()
            own = f"tests/test_{name}"
            first = [own] if (work / own).exists() else []
            for m in ms:
                module.write_bytes(m.apply(original))
                try:
                    if first and not _passes(work, first):
                        killed_own += 1
                    elif not _passes(work, []):
                        killed_all += 1
                    else:
                        survived += 1
                        print(f"SURVIVED {PACKAGE}/{name}:{m.line}: {m.label}", flush=True)
                finally:
                    module.write_bytes(original)
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)
    total = killed_own + killed_all + survived
    print(f"mutants: {total}, killed by their module's tests: {killed_own}, "
          f"killed by tier-1: {killed_all}, survived: {survived}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
