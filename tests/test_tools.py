"""`tools/code_lines.py` counts code lines: each module's lines that hold a
token outside comments and docstrings, and their total."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def code_lines(*paths) -> list[tuple[int, str]]:
    out = subprocess.run(
        [sys.executable, "tools/code_lines.py", *map(str, paths)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return [(int(n), name) for n, name in (line.split(" ", 1) for line in out.stdout.splitlines())]


def test_total_is_the_sum_of_the_modules():
    rows = code_lines("src/dyadlab")
    *modules, (total, label) = rows
    assert label == "total"
    assert sorted(Path(name).name for _, name in modules) == sorted(p.name for p in (ROOT / "src/dyadlab").glob("*.py"))
    assert total == sum(n for n, _ in modules) > 0


def test_comments_docstrings_and_blank_lines_not_counted(tmp_path):
    source = (
        '"""Module docstring\n\nover three lines."""\n'
        "# a comment\n"
        "\n"
        "import math  # a trailing comment\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    text = '''a string that is\n"
        "    not a docstring'''\n"
        "    return (x +\n"
        "            math.pi)\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    y = 1\n"
    )
    (tmp_path / "m.py").write_text(source)
    # import, def, both string lines, both return lines, class, y
    assert code_lines(tmp_path / "m.py") == [(8, str(tmp_path / "m.py")), (8, "total")]
