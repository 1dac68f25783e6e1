"""A stdlib stand-in for ``ruff check`` where ruff is not installed.

    python3 scripts/lint_fallback.py src tests     # exit 1 on any finding

It covers two of the Pyflakes rules ``pyproject.toml`` selects, each
narrowed so that it flags only what ruff flags too:

* **F401** -- an import no code of its scope reads.  A module-level
  name counts as read wherever it is loaded in the module (in any
  scope, in an annotation, in a quoted annotation) or listed in
  ``__all__``.  A name imported inside a function counts as read only
  where that function, or a function, class or lambda nested in it,
  loads it.  ``import a.b`` binds ``a``; ``import x as x`` and
  ``from m import x as x`` are explicit re-exports; ``__future__``
  imports are never unused.
* **F821** -- a name loaded but bound nowhere in its module (no
  assignment, definition, parameter, import, ``global``, handler or
  pattern capture in any scope) and not a builtin.  A module with a
  star import is skipped.

Both read scopes loosely: a name bound in one function and loaded in
another counts as bound, and a module-level import loaded only in a
scope that shadows it counts as read.  So they miss what ruff's scope
analysis finds there.  Every other selected rule (the rest of F,
E4/E7/E9, B, SIM) is ruff's alone.

``# noqa`` on the import's or the name's line, bare or naming the code,
silences a finding, and ``[tool.ruff.lint] ignore`` and
``per-file-ignores`` in ``pyproject.toml`` apply as ruff applies them.
"""

from __future__ import annotations

import ast
import builtins
import fnmatch
import re
import sys
import tomllib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

# Names every module may load without binding them.
MODULE_NAMES = frozenset(dir(builtins)) | {
    "__file__", "__name__", "__doc__", "__spec__", "__loader__",
    "__package__", "__builtins__", "__path__", "__annotations__",
    "__class__", "__module__", "__qualname__", "__debug__",
}

NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:[,\s]+[A-Z]+[0-9]+)*))?", re.I)

Finding = Tuple[Path, int, str, str]


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """Names a quoted annotation reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                args.vararg, args.kwarg
            ]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _dunder_all(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [node.target], node.value
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(value, (ast.List, ast.Tuple)):
                names.update(
                    e.value for e in value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
    return names


def _bound_names(tree: ast.AST) -> Set[str]:
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            bound.add(node.rest)
        elif type(node).__name__ in ("TypeVar", "ParamSpec", "TypeVarTuple"):
            bound.add(node.name)
    return bound


def _reads(tree: ast.AST) -> Set[str]:
    """Names loaded anywhere in ``tree``, quoted annotations included."""
    names = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        names.update(_annotation_names(annotation))
    return names


def _imports(tree: ast.AST, reads: Set[str]) -> Iterator[Tuple[ast.AST, Set[str]]]:
    """Every import under ``tree`` with the names its scope reads: a
    function's own reads for an import in its body (unless the function
    declares the name ``global`` or ``nonlocal``), else ``reads``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, reads
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            declared = {
                name for sub in ast.walk(node)
                if isinstance(sub, (ast.Global, ast.Nonlocal))
                for name in sub.names
            }
            yield from _imports(node, _reads(node) | (reads & declared))
        else:
            yield from _imports(node, reads)


def check_source(source: str, path: Path) -> List[Finding]:
    """The findings in one module's source, before suppression."""
    tree = ast.parse(source, filename=str(path))
    loads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    ]

    findings: List[Finding] = []
    for node, loaded in _imports(tree, _reads(tree) | _dunder_all(tree)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if alias.asname == alias.name:
                continue  # ``x as x``: an explicit re-export
            if (alias.asname or alias.name).split(".")[0] in loaded:
                continue
            shown = alias.name
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                shown = f"{module}.{shown}" if node.module else module + shown
            findings.append(
                (path, node.lineno, "F401", f"`{shown}` imported but unused")
            )

    star = any(
        isinstance(n, ast.ImportFrom) and any(a.name == "*" for a in n.names)
        for n in ast.walk(tree)
    )
    if not star:
        bound = _bound_names(tree) | MODULE_NAMES
        for node in loads:
            if node.id not in bound:
                findings.append(
                    (path, node.lineno, "F821", f"undefined name `{node.id}`")
                )
    return findings


def _suppressed(line: str, code: str) -> bool:
    match = NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in re.split(r"[,\s]+", codes.upper())


def _config(root: Path) -> Tuple[Set[str], Dict[str, Set[str]]]:
    path = root / "pyproject.toml"
    if not path.exists():
        return set(), {}
    lint = tomllib.loads(path.read_text()).get("tool", {}).get("ruff", {}).get("lint", {})
    per_file = {
        pattern: set(codes)
        for pattern, codes in lint.get("per-file-ignores", {}).items()
    }
    return set(lint.get("ignore", ())), per_file


def _ignored(rel: str, code: str, ignore: Set[str], per_file: Dict[str, Set[str]]) -> bool:
    if code in ignore:
        return True
    for pattern, codes in per_file.items():
        # ruff's globs: ``**/`` also matches no directory at all.
        patterns = {pattern, pattern.replace("**/", "")}
        if code in codes and any(fnmatch.fnmatch(rel, p) for p in patterns):
            return True
    return False


def _files(paths: Iterable[str]) -> Iterator[Path]:
    for arg in paths:
        path = Path(arg)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py")
                if not any(part.startswith(".") or part == "__pycache__" for part in p.parts)
            )
        else:
            yield path


def lint(paths: Iterable[str], root: Path = ROOT) -> List[Finding]:
    """Every unsuppressed finding under ``paths`` (files or directories)."""
    ignore, per_file = _config(root)
    found: List[Finding] = []
    for path in _files(paths):
        source = path.read_text()
        lines = source.splitlines()
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        for finding in check_source(source, path):
            _, lineno, code, _ = finding
            if _ignored(rel, code, ignore, per_file):
                continue
            if lineno <= len(lines) and _suppressed(lines[lineno - 1], code):
                continue
            found.append(finding)
    return found


def main(argv: List[str]) -> int:
    findings = lint(argv or ["src", "tests"])
    for path, lineno, code, message in findings:
        print(f"{path}:{lineno}: {code} {message}")
    if findings:
        print(f"Found {len(findings)} error(s) (stdlib fallback: F401, F821).")
        return 1
    print("All checks passed (stdlib fallback: F401, F821).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
