import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "tki").glob("*.py")),
                         ids=lambda p: p.name)
def test_parts_sum_to_the_line_count(path):
    text = path.read_text(encoding="utf-8")
    parts = count_lines.count(text)
    assert sum(parts.values()) == len(text.splitlines())
    assert parts["code"] > 0


def test_each_kind_is_recognised():
    text = ('"""Module\ndocstring."""\n\n# a comment\n'
            'def f():\n    """One line."""\n    return 1  # trailing\n')
    assert count_lines.count(text) == {"code": 2, "docstring": 3,
                                       "comment": 1, "blank": 1}
