"""The names a traced benchmark run wraps, and the package's public names,
must exist: a deleted one would otherwise surface only in a `--trace 1`
perfbench run, as a KeyError."""

import pathlib
import types

import ssbc
import ssbc.formats

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    # compiled from its text, so nothing is written next to it
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_is_defined_where_it_is_wrapped():
    wraps = _spans_module().targets(ssbc)
    assert wraps
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in wraps if attr not in owner.__dict__]
    assert missing == []


def test_every_public_name_resolves():
    missing = [name for name in ssbc.__all__ if not hasattr(ssbc, name)]
    assert missing == []
