"""Replay the mutation list `tests/mutants.json` against this checkout.

Each entry names a source file, an exact text in it, the text that
replaces it and the tests that must fail once it does.  For each entry,
one at a time, the runner copies src/, tests/, bench/ and pyproject.toml
to a temporary directory, applies the mutation there and runs the named
tests in one pytest process.  A mutant is caught when every named test
fails; otherwise it survived.  The report is a Markdown table on stdout,
one row per mutant, and the exit status is 1 if any mutant survived.

    python tests/mutate.py [NAME ...]

Names pick entries of the list; without them every entry runs.  Only the
standard library and pytest are needed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "tests", "mutants.json")
COPIED = ("src", "tests", "bench")


def apply(tree: str, mutant: dict) -> None:
    """Replace the one occurrence of the mutant's old text in its file under `tree`."""
    path = os.path.join(tree, mutant["file"])
    with open(path, encoding="utf-8") as f:
        source = f.read()
    if source.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['name']}: old text occurs {source.count(mutant['old'])} times in {mutant['file']}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(source.replace(mutant["old"], mutant["new"]))


def failed_tests(tree: str, ids: list) -> set:
    """The ids among `ids` that fail (or error) in one pytest process run in `tree`."""
    report = os.path.join(tree, "report.xml")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--junitxml", report, *ids]
    subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not os.path.exists(report):  # pytest stopped before running anything
        return set()
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            # classname "tests.test_search" is the file tests/test_search.py
            failed.add(f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}")
    return failed


def run(mutant: dict) -> set:
    """The named tests that fail with `mutant` applied to a copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        ignore = shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache")
        for name in COPIED:
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tree, name), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        apply(tree, mutant)
        return failed_tests(tree, mutant["fails"])


def main(argv: list) -> int:
    with open(MUTANTS, encoding="utf-8") as f:
        mutants = json.load(f)
    unknown = set(argv) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    survived = 0
    print("| mutant | file | result |\n|---|---|---|")
    for mutant in mutants:
        if argv and mutant["name"] not in argv:
            continue
        failed = run(mutant)
        passed = [test for test in mutant["fails"] if test not in failed]
        if passed:
            survived += 1
            result = f"SURVIVED: {len(passed)} of {len(mutant['fails'])} named tests passed: {', '.join(passed)}"
        else:
            result = f"caught by {len(failed)}: {', '.join(mutant['fails'])}"
        print(f"| {mutant['name']} | {mutant['file']} | {result} |", flush=True)
    print(f"\n{survived} survived" if survived else "\nevery mutant caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
