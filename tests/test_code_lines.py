"""tools/code_lines.py on a small literal source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment


# A comment on its own line.
def f(x):
    """A function docstring."""
    return math.hypot(
        x,
        1.0,
    )
'''


def test_counts_code_lines_per_module_and_total(tmp_path, capsys):
    # import, def, and the four lines of the multi-line call.
    assert code_lines.code_lines(SOURCE) == 6
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["6", "a.py", "1", "b.py", "7", "total"]
