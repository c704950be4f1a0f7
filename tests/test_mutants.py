"""The mutation list `tests/mutants.json` still applies to this tree.

Running the mutants is `python tests/mutate.py`, outside Tier-1; this only
checks that each entry can be replayed: its old text occurs exactly once in
its file, and each test it names is a test function of its file.
"""

import ast
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _test_functions(path: str) -> set:
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_each_mutant_applies_once_and_names_existing_tests():
    with open(os.path.join(ROOT, "tests", "mutants.json"), encoding="utf-8") as f:
        mutants = json.load(f)
    assert mutants and len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert m["old"] != m["new"] and m["fails"], m["name"]
        with open(os.path.join(ROOT, m["file"]), encoding="utf-8") as f:
            assert f.read().count(m["old"]) == 1, m["name"]
        for test in m["fails"]:
            path, _, name = test.partition("::")
            assert name.split("[")[0] in _test_functions(path), (m["name"], test)
