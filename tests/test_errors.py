"""Every failure has one name: each error class in inkscan.errors, the base
class aside, is raised somewhere in src/inkscan, so a class whose last
raise was folded into another fails here instead of lingering as dead API.
Read from the source with `ast`, like test_bench_api.py."""

import ast
import inspect
from pathlib import Path

from inkscan import errors

SRC = Path(errors.__file__).resolve().parent


def raised_names() -> set[str]:
    """Names of the classes that some `raise X` or `raise X(...)` in the package names."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def error_classes() -> list[str]:
    return [name for name, obj in vars(errors).items()
            if inspect.isclass(obj) and issubclass(obj, errors.InkscanError)
            and obj is not errors.InkscanError]


def test_every_error_class_is_raised():
    classes = error_classes()
    assert {"DimensionMismatch", "InvalidSpec", "TooManyClusters"} <= set(classes)
    assert sorted(set(classes) - raised_names()) == []

