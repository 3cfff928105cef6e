"""inkscan has one output path: every file it writes goes through
`netpbm.write_file`, and every `--json` summary through `cli._report`.
The rules are read off the AST of each `src/inkscan/*.py`, so a second
writer or printer fails here before it can drift from the first."""

import ast
from pathlib import Path

import inkscan

SRC = Path(inkscan.__file__).resolve().parent


def callers(is_target) -> set[str]:
    """`module.name` of each top-level function or class of the package that
    makes a call `is_target` accepts; `module` for a call outside them."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if any(isinstance(node, ast.Call) and is_target(node.func)
                   for node in ast.walk(stmt)):
                named = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                found.add(f"{path.stem}.{stmt.name}" if named else path.stem)
    return found


def test_files_are_written_only_by_write_file():
    def writes(func):
        return ((isinstance(func, ast.Name) and func.id == "open")
                or (isinstance(func, ast.Attribute)
                    and func.attr in ("write_text", "write_bytes")))

    assert callers(writes) == {"netpbm.write_file"}


def test_json_is_printed_only_by_report():
    def dumps(func):
        return (isinstance(func, ast.Attribute) and func.attr == "dumps"
                and isinstance(func.value, ast.Name) and func.value.id == "json")

    assert callers(dumps) == {"cli._report"}
