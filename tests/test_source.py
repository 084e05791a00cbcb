"""Rules the package's source code keeps."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "qpsurf").glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so invariants are explicit raises
    found = {
        path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Assert)]
        for path in SOURCES
    }
    assert "cli.py" in found
    assert not any(found.values()), {name: lines for name, lines in found.items() if lines}
