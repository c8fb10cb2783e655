#!/usr/bin/env python
"""Documentation checks for CI (wired into scripts/check.sh).

Two gates:

1. **Internal links resolve** — every relative markdown link in
   ``docs/*.md`` and ``README.md`` must point at an existing file or
   directory in the repository (anchors are stripped; external schemes are
   skipped).
2. **Public-API doctests pass** — the runnable examples in the docstrings
   of the public API surface (``repro.predict`` / ``repro.measure`` /
   ``repro.advise`` / ``run_campaign`` / ``ResultStore`` /
   ``build_machine``) are executed with
   :mod:`doctest`.  (``python -m doctest`` cannot import package-relative
   modules directly, so this script drives the same machinery through
   ``doctest.testmod``.)

Exit status is non-zero on any broken link or failing doctest.
"""

from __future__ import annotations

import doctest
import importlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Modules whose docstring examples are the documented public API.
DOCTEST_MODULES = (
    "repro",                    # package quickstart + predict + measure
    "repro.advisor.search",     # advise
    "repro.explore.campaign",   # run_campaign
    "repro.explore.sharding",   # partition_key / shard_of determinism
    "repro.explore.store",      # ResultStore
    "repro.obs",                # enable/span/counter facade
    "repro.serve.protocol",     # ServeOptions eager validation
    "repro.stages",             # parse/compile/price stage caches
    "repro.system.machine",     # build_machine + register_machine recipe
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _markdown_files() -> list[str]:
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs):
        files.extend(os.path.join(docs, name) for name in sorted(os.listdir(docs))
                     if name.endswith(".md"))
    return [f for f in files if os.path.exists(f)]


def check_links() -> list[str]:
    problems = []
    for path in _markdown_files():
        base = os.path.dirname(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for target in _LINK.findall(text):
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = os.path.normpath(os.path.join(base, relative))
            if not os.path.exists(resolved):
                problems.append(
                    f"{os.path.relpath(path, REPO_ROOT)}: broken link -> {target}")
    return problems


def run_doctests() -> list[str]:
    problems = []
    for name in DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        status = "ok" if result.failed == 0 else "FAILED"
        print(f"  doctest {name}: {result.attempted} examples, "
              f"{result.failed} failures [{status}]")
        if result.failed:
            problems.append(f"{name}: {result.failed} doctest failure(s)")
        if result.attempted == 0:
            problems.append(f"{name}: no doctest examples found "
                            "(docstring examples were removed?)")
    return problems


def main() -> int:
    print("== docs check: internal markdown links")
    problems = check_links()
    for problem in problems:
        print(f"  {problem}")
    if not problems:
        print(f"  {len(_markdown_files())} files, all relative links resolve")

    print("== docs check: public-API doctests")
    problems.extend(run_doctests())

    if problems:
        print(f"docs check: {len(problems)} problem(s)")
        return 1
    print("docs check: all green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
