"""No verdict may depend on ``assert``, which ``python -O`` strips."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import slicescope
from slicescope.cli import main

PACKAGE = Path(slicescope.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"bare asserts vanish under python -O: {found}"


def test_package_has_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {elt.value for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)
                    for elt in node.value.elts}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read and name not in exported]
    assert not unused, f"imported but never read: {unused}"


def test_package_has_no_orphaned_private_helpers():
    # A module-level _name is the module's own; if the module never reads
    # it, nothing does.
    orphaned = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined[target.id] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        orphaned += [f"{path.name}:{line} {name}" for name, line in defined.items()
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read]
    assert not orphaned, f"private names the module never reads: {orphaned}"


def test_verifier_keeps_vectors_sparse():
    # The verify path passes sparse rows end to end; the dense views are
    # for the benchmark's kernel observer.
    path = PACKAGE / "verifier.py"
    dense = [f"{path.name}:{node.lineno} .{node.attr}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute)
             and node.attr in ("basis", "flatten", "from_flat")]
    assert not dense, f"densifying reads on the verify path: {dense}"


def test_verify_under_python_O_matches_in_process(capsys):
    argv = ["verify", "--case", "sp6-33", "--seed", "0"]
    code = main(argv)
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-m", "slicescope.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, expected)
    assert code == 0 and expected
