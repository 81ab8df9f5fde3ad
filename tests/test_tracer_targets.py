"""The benchmark's tracer names tki functions by string; check that every
name still resolves, so that a rename fails here rather than in a traced
benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_tki_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(name):
    layer, attr = name.split(".", 1)
    owner = importlib.import_module(f"tki.{layer}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_every_target_resolves(tracer):
    for name in tracer.target_names():
        target = _resolve(name)
        if name.count(".") == 2:
            # "Class.attr" (FrameField.smoothness): the tracer rewraps the
            # class-dict property
            assert isinstance(target, property), name
        else:
            assert callable(target), name


class _Sized:
    """Stands in for a grid, or for an object holding one."""

    def __init__(self, n):
        self.sizes = (n,)
        self.grid = self


def test_node_count_arguments_match(tracer):
    # a work count reads its argument by position or by keyword; both must
    # pick the same parameter of the traced function
    for name, count in tracer.NODE_COUNTS.items():
        params = list(inspect.signature(_resolve(name)).parameters)
        stand_ins = [_Sized(i + 2) for i in range(len(params))]
        by_position = count(tuple(stand_ins), {})
        by_keyword = count((), dict(zip(params, stand_ins)))
        assert by_position == by_keyword, name
