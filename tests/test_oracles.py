"""Every second route in `tests/oracles.py` is exercised by some test.

The package computes each answer once; its independent checks live in
`tests/oracles.py`, and an oracle that no test module uses checks nothing.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def oracle_functions() -> list[str]:
    tree = ast.parse((TESTS / "oracles.py").read_text())
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]


def names_used(path: Path) -> set[str]:
    """Names read in a module, by themselves or as an attribute; an import
    alone does not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_oracle_is_used_by_a_test_module():
    used = set().union(*(names_used(p) for p in TESTS.glob("test_*.py")))
    oracles = oracle_functions()
    assert len(oracles) >= 10
    assert [name for name in oracles if name not in used] == []
