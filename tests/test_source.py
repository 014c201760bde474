import ast
import os
import pathlib
import subprocess
import sys

import pytest

import bruhat_kit
from bruhat_kit import affinegraph, affineperm, embedding, kschur, rbruhat

FILES = sorted(pathlib.Path(bruhat_kit.__file__).parent.glob("*.py"))
RECORDS = {
    rbruhat.SchubertChain: "start steps",
    affinegraph.AffineEdge: "a b target",
    affinegraph.AffinePath: "start edges",
    affinegraph.VerificationReport: "tag u letters lhs_word rhs_word lhs rhs holds",
    affinegraph.SweepResult: "tag k trials checked nonzero failures",
    affineperm.CorePartition: "partition modulus",
    kschur.KMatrix: "k degree rows columns entries",
    embedding.EmbeddingData: "k s u v source_interval u_prime_window",
    embedding.EmbeddingReport: "data chains_total mapped_nonzero common_endpoint "
                               "k_schubert k_affine dominated failures",
}


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


def test_importing_the_cli_generates_no_code():
    # the records are named tuples, so neither dataclasses nor inspect is loaded
    probe = ("import sys; before = set(sys.modules); import bruhat_kit.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(bruhat_kit.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", probe], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"


def test_records_are_positional_and_read_only():
    for cls, fields in RECORDS.items():
        names = fields.split()
        values = [f"<{name}>" for name in names]
        if cls is affineperm.CorePartition:
            values = [(4, 1, 1, 0), 5]
        record = cls(*values)
        if cls is affineperm.CorePartition:
            values[0] = (4, 1, 1)  # canonicalized on construction
        assert [getattr(record, name) for name in names] == values, cls
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
