"""``run.py selfcheck``: the benchmark measures the program only from
outside, and this proves it from the benchmark's own source.

Every ``import`` of every file in this directory is read from the AST
and held against the allow-list: the public packages of each layer.
Modules ROADMAP items 3 and 4 are about to delete or move may never be
imported, so those PRs cannot break the benchmark and need not edit it.
"""

from __future__ import annotations

import ast
import fnmatch
import os
from typing import List, Tuple

from common import SPINE_DIR

#: Packages whose public names (and submodules) the benchmark may use.
ALLOWED = ("repro.engine", "repro.noc", "repro.mem", "repro.pim",
           "repro.pgas", "repro.kernels", "repro.workloads",
           "repro.experiments", "repro.serve", "repro.pdes")
#: Importable only as the package itself: its submodules are private.
PACKAGE_LEVEL_ONLY = ("repro", "repro.orch")
#: Named so a violation says why, not just "not allowed".
DENIED = ("repro.profile", "repro.perf", "repro.cli", "repro.runtime.host",
          "repro.orch.pool", "repro.orch._pool")
FORBIDDEN_FILENAMES = ("bench_*.py", "test_*.py")


def _imports(path: str) -> List[Tuple[int, str]]:
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module or ""))
    return found


def verdict(module: str) -> str:
    """'' when ``module`` may be imported, else the reason it may not."""
    if module != "repro" and not module.startswith("repro."):
        return ""
    for denied in DENIED:
        if module == denied or module.startswith(denied + "."):
            return f"{denied} is on the deny-list (ROADMAP items 3 and 4)"
    if module in PACKAGE_LEVEL_ONLY:
        return ""
    for allowed in ALLOWED:
        if module == allowed or module.startswith(allowed + "."):
            return ""
    return "not on the allow-list"


def main() -> int:
    problems = []
    checked = 0
    for name in sorted(os.listdir(SPINE_DIR)):
        if any(fnmatch.fnmatch(name, pat) for pat in FORBIDDEN_FILENAMES):
            problems.append(f"{name}: would be collected by pytest")
        if not name.endswith(".py"):
            continue
        for lineno, module in _imports(os.path.join(SPINE_DIR, name)):
            checked += 1
            why = verdict(module)
            if why:
                problems.append(f"{name}:{lineno}: import {module}: {why}")
    for problem in problems:
        print("selfcheck:", problem)
    print(f"selfcheck: {checked} imports in {SPINE_DIR}: "
          + ("ok" if not problems else f"{len(problems)} violation(s)"))
    return 1 if problems else 0
