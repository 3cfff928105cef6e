"""The benchmark under bench/ calls inkscan's modules directly; every
`<module>.<attr>` it names must exist, and every call it makes must bind
to the function's current signature, so no change can delete or reshape
API the benchmark still runs. (bench/selftest.py runs it end to end, too
slowly for this suite.)"""

import ast
import importlib
import inspect
from pathlib import Path

from inkscan import segment, synth

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_trees():
    """(path, AST, {local name: inkscan module name}) for each bench script."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "inkscan"
            for alias in node.names
        }
        yield path, tree, modules


def bench_references() -> set[tuple[str, str]]:
    """(module, attribute) for each `module.attr` on an inkscan module."""
    return {
        (modules[node.value.id], node.attr)
        for _, tree, modules in bench_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def bench_calls() -> list[tuple[str, str, ast.Call]]:
    """(where, module.function, call node) for each call of an inkscan module's function."""
    return [
        (f"{path.name}:{node.lineno}", f"{modules[node.func.value.id]}.{node.func.attr}", node)
        for path, tree, modules in bench_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
    ]


def test_bench_calls_only_existing_api():
    refs = bench_references()
    assert {("cluster", "assign"), ("segment", "write_rgb_ppm"),
            ("hsi_cube", "write_gray_pgm")} <= refs
    missing = sorted(f"{module}.{attr}" for module, attr in refs
                     if not hasattr(importlib.import_module(f"inkscan.{module}"), attr))
    assert missing == []


def test_bench_calls_bind_current_signatures():
    """Each call's AST argument nodes stand in for its values."""
    calls = bench_calls()
    names = {name for _, name, _ in calls}
    assert {"cluster.assign", "segment.render_segmentation", "segment.default_palette"} <= names
    unbound = []
    for where, name, call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
        assert all(kw.arg is not None for kw in call.keywords), where
        module, function = name.split(".")
        target = getattr(importlib.import_module(f"inkscan.{module}"), function)
        try:
            inspect.signature(target).bind(*call.args,
                                           **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"{where} {name}: {exc}")
    assert unbound == []


def test_synth_scorer_is_the_segment_scorer():
    """bench/ scores through synth.best_permutation_accuracy: an alias, never a second copy."""
    assert synth.best_permutation_accuracy is segment.best_permutation_accuracy
