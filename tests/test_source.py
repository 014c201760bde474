import ast
import pathlib

import bruhat_kit


def test_package_has_no_assert_statements():
    # python -O strips assert statements; invariants raise typed errors
    files = sorted(pathlib.Path(bruhat_kit.__file__).parent.glob("*.py"))
    assert len(files) >= 10
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
