"""`tools/code_lines.py` counts code lines: each module's lines that hold a
token outside comments and docstrings, and their total.  `tools/pass_digest.py`
keys a pass's numbers by case and field, and its --compare reports every
changed value and every key found in one file only."""

import importlib.util
import json
import math
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


def pass_digest(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "tools/pass_digest.py", *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )


def load_pass_digest():
    """tools/pass_digest.py as a module, for its pure functions."""
    spec = importlib.util.spec_from_file_location("pass_digest", ROOT / "tools" / "pass_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# two workloads' numbers as `pass_digest.py --values` writes them
VALUES = {
    "diagnostics": {
        "seed=0 ledger": {"attempted": 2, "failed": 0},
        "seed=0 N=4096 call=a2 power": {"a2": 1.2345678901234567},
        "seed=0 N=1024 call=expansion shift": {"residual": 2.5e-15, "lhs": 31.25},
    },
    "ratio_sweep": {
        "seed=0 N=32 symbol=quartic_bump pair=flat": {"schatten/2.0": 6.5, "ratios/2.0/besov": 2.75},
    },
}


def write_values(path, values) -> Path:
    path.write_text(json.dumps(values))
    return path


class TestPassDigestValues:
    def test_rows_keyed_by_case_and_field(self):
        rows = [
            {"N": 4096, "call": "Besov forms", "besov_forms": [1.0, 2.0], "intervals": 8190},
            {"N": 32, "symbol": "sin", "pair": "flat", "schatten": {2.0: 3.5}, "ratios": {2.0: {"besov": 1.5}}},
            {"N": 1024, "call": "expansion shift"},  # a failed operation keeps no field
        ]
        assert load_pass_digest().case_values(1, rows) == {
            "seed=1 N=4096 call=Besov forms": {"besov_forms/0": 1.0, "besov_forms/1": 2.0, "intervals": 8190},
            "seed=1 N=32 symbol=sin pair=flat": {"schatten/2.0": 3.5, "ratios/2.0/besov": 1.5},
            "seed=1 N=1024 call=expansion shift": {},
        }

    def test_a_file_against_itself_is_an_empty_diff(self, tmp_path):
        a = write_values(tmp_path / "a.json", VALUES)
        out = pass_digest("--compare", a, a)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "diagnostics: 0 of 5 shared values changed, largest relative change 0",
            "ratio_sweep: 0 of 2 shared values changed, largest relative change 0",
        ]

    def test_one_ulp_change_reported_under_its_key(self, tmp_path):
        moved = json.loads(json.dumps(VALUES))
        case = moved["diagnostics"]["seed=0 N=4096 call=a2 power"]
        case["a2"] = math.nextafter(case["a2"], math.inf)
        a, b = write_values(tmp_path / "a.json", VALUES), write_values(tmp_path / "b.json", moved)
        out = pass_digest("--compare", a, b)
        assert out.returncode == 1, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0].startswith("diagnostics: 1 of 5 shared values changed, largest relative change 1.8")
        assert lines[1] == (
            f"  changed seed=0 N=4096 call=a2 power: a2  {VALUES['diagnostics']['seed=0 N=4096 call=a2 power']['a2']!r}"
            f" -> {case['a2']!r} (1.8e-16)"
        )
        assert lines[2:] == ["ratio_sweep: 0 of 2 shared values changed, largest relative change 0"]

    def test_missing_case_reported(self, tmp_path):
        moved = json.loads(json.dumps(VALUES))
        del moved["diagnostics"]["seed=0 N=1024 call=expansion shift"]
        del moved["ratio_sweep"]
        a, b = write_values(tmp_path / "a.json", VALUES), write_values(tmp_path / "b.json", moved)
        out = pass_digest("--compare", a, b)
        assert out.returncode == 1, out.stderr
        assert out.stdout.splitlines() == [
            "diagnostics: 0 of 3 shared values changed, largest relative change 0",
            f"  only in {a}: seed=0 N=1024 call=expansion shift: lhs",
            f"  only in {a}: seed=0 N=1024 call=expansion shift: residual",
            f"ratio_sweep: only in {a}",
        ]
