import ast
import pathlib
import sys

import bruhat_kit

FILES = sorted(pathlib.Path(bruhat_kit.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements; invariants raise typed errors
    assert len(FILES) >= 10
    found = [f"{path.name}:{node.lineno}" for path in FILES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    imported = []
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert len(imported) >= 10
    outside = [(name, module) for name, module in imported
               if module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_only_cli_main_prints():
    # human and --json output leave through cli.main, the one print site
    printing, in_main = [], 0
    for path in FILES:
        tree = ast.parse(path.read_text())
        main = {id(node) for top in tree.body
                if path.name == "cli.py" and isinstance(top, ast.FunctionDef) and top.name == "main"
                for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                if id(node) in main:
                    in_main += 1
                else:
                    printing.append(f"{path.name}:{node.lineno}")
    assert printing == [] and in_main >= 2
