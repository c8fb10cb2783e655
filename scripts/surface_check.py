#!/usr/bin/env python
"""Public-surface check for CI (wired into scripts/check.sh).

One AST walk over every module under ``src/`` feeds two gates:

1. **Every definition is mentioned** — each function, method and class
   defined at module or class level under ``src/`` must have its name
   appear somewhere besides its own definition: in ``src/``, ``tests/``,
   ``benchmarks/``, ``perfbench/``, ``scripts/``, ``examples/``, ``docs/``
   or README.md.  A name nothing mentions has no caller.  Dunder methods
   are exempt, since Python itself calls them.
2. **No unused module-level imports** — in every module except a package
   ``__init__`` (which imports to re-export), each name a module-level
   ``import`` binds must be read somewhere in that module.

The name match is textual, so a mention in a comment or a docstring counts;
the gate catches names with no mention at all, not every unused method.

Usage:  python scripts/surface_check.py
Exit status is non-zero on any finding.
"""

from __future__ import annotations

import ast
import os
import re
from collections import Counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories whose files count as mentions, and the suffixes read in them.
MENTION_DIRS = ("src", "tests", "benchmarks", "perfbench", "scripts",
                "examples", "docs")
MENTION_SUFFIXES = (".py", ".md", ".sh")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _files(directory: str, suffixes: tuple[str, ...]) -> list[str]:
    found = []
    for root, dirs, names in os.walk(os.path.join(REPO_ROOT, directory)):
        dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__pycache__")))
        found.extend(os.path.join(root, name) for name in sorted(names)
                     if name.endswith(suffixes))
    return found


def _statements(tree: ast.Module, into_classes: bool) -> list[ast.stmt]:
    """Module-level statements, through ``if``/``try`` blocks and, when
    *into_classes*, class bodies."""
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        found.append(node)
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
        elif into_classes and isinstance(node, ast.ClassDef):
            pending.extend(node.body)
    return found


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """Functions, methods and classes at module or class level."""
    return [node for node in _statements(tree, into_classes=True)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _module_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every module-level import."""
    bound = []
    for node in _statements(tree, into_classes=False):
        if isinstance(node, ast.Import):
            bound.extend((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((alias.asname or alias.name, node.lineno)
                         for alias in node.names if alias.name != "*")
    return bound


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module reads, including its ``__all__`` entries."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read.update(element.value for element in node.value.elts
                        if isinstance(element, ast.Constant))
    return read


def check() -> list[str]:
    mentions: Counter[str] = Counter()
    texts = [os.path.join(REPO_ROOT, "README.md")]
    for directory in MENTION_DIRS:
        texts.extend(_files(directory, MENTION_SUFFIXES))
    for path in texts:
        with open(path, encoding="utf-8") as fh:
            mentions.update(_IDENTIFIER.findall(fh.read()))

    definitions: Counter[str] = Counter()
    found: list[tuple[str, int, str]] = []   # (path, line, name)
    problems = []
    for path in _files("src", (".py",)):
        relative = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=relative)
        for node in _definitions(tree):
            definitions[node.name] += 1
            found.append((relative, node.lineno, node.name))
        if os.path.basename(path) != "__init__.py":
            read = _names_read(tree)
            problems.extend(
                f"{relative}:{line}: import of {name!r} is never used"
                for name, line in sorted(_module_imports(tree), key=lambda b: b[1])
                if name not in read)

    for relative, line, name in found:
        dunder = name.startswith("__") and name.endswith("__")
        if not dunder and mentions[name] <= definitions[name]:
            problems.append(f"{relative}:{line}: {name!r} is mentioned nowhere "
                            "but its definition")
    return sorted(problems)


def main() -> int:
    problems = check()
    for problem in problems:
        print(f"  {problem}")
    if problems:
        print(f"surface check: {len(problems)} problem(s)")
        return 1
    print("surface check: every definition is mentioned, no unused imports")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
