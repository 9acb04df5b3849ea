from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
two lines."""

# a comment
import os  # counts: code with a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return (os.sep,
                text)
'''


def test_counts_code_lines_outside_docstrings_and_comments():
    # import, class, def, the two-line string, and the two-line return.
    assert code_lines.code_lines(SAMPLE) == 7
