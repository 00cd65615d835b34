"""Every refusal the package raises is a ViewretError."""

import ast
import inspect
from pathlib import Path

import viewret
from viewret import errors
from viewret.errors import ViewretError

SOURCES = sorted(Path(viewret.__file__).parent.glob("*.py"))

# argparse's protocol for a usage error in a `type=` parser, and the exit a usage error makes
ALLOWED = {"ViewretError", "argparse.ArgumentTypeError", "SystemExit"}


def raised_names(tree):
    """(line, name) of every non-bare `raise` in ``tree``; name is None unless it raises a call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            yield node.lineno, ast.unparse(exc.func) if isinstance(exc, ast.Call) else None


def test_every_raise_is_bare_or_an_allowed_call():
    assert SOURCES
    offenders = [f"{path.name}:{line}: {name}"
                 for path in SOURCES
                 for line, name in raised_names(ast.parse(path.read_text(encoding="utf-8")))
                 if name not in ALLOWED]
    assert offenders == []


def test_errors_defines_one_class_a_value_error():
    classes = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)]
    assert classes == [ViewretError]
    assert issubclass(ViewretError, ValueError)
    assert viewret.ViewretError is ViewretError
