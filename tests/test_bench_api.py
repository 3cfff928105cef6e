"""The benchmark under bench/ calls inkscan's modules directly; every
`<module>.<attr>` it names must exist, so no change can delete API the
benchmark still runs. (bench/selftest.py runs it end to end, too slowly
for this suite.)"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_references() -> set[tuple[str, str]]:
    """(module, attribute) for each `module.attr` on an inkscan module."""
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "inkscan"
            for alias in node.names
        }
        refs |= {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    return refs


def test_bench_calls_only_existing_api():
    refs = bench_references()
    assert {("cluster", "assign"), ("segment", "write_rgb_ppm"),
            ("hsi_cube", "write_gray_pgm")} <= refs
    missing = sorted(f"{module}.{attr}" for module, attr in refs
                     if not hasattr(importlib.import_module(f"inkscan.{module}"), attr))
    assert missing == []
