import runpy
from pathlib import Path

import pytest

GRID_DIFF = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "grid_diff.py"))


def _grids(tmp_path, a: dict, b: dict):
    dirs = []
    for name, files in (("a", a), ("b", b)):
        d = tmp_path / name
        d.mkdir()
        for fname, text in files.items():
            (d / fname).write_text(text, encoding="utf-8")
        dirs.append(d)
    return dirs


@pytest.mark.parametrize("b_text, code, printed", [
    ('{"p": 0.25, "n": 7}\n', 0, None),
    ('{"p": 0.25000000000000006, "n": 7}\n', 0, "2.22e-16"),
    ('{"p": 0.2500000001, "n": 7}\n', 1, "4e-10"),
    ('{"p": 0.25, "n": 8}\n', 1, "0.125"),
    ('{"q": 0.25, "n": 7}\n', 1, "non-numeric text differs"),
    ('{"p": 0.25, "n": 7, "m": 1}\n', 1, "non-numeric text differs"),
])
def test_grid_diff_verdicts(tmp_path, capsys, b_text, code, printed):
    a, b = _grids(tmp_path, {"x.json": '{"p": 0.25, "n": 7}\n'}, {"x.json": b_text})
    assert GRID_DIFF["main"](a, b) == code
    out = capsys.readouterr().out
    assert (printed in out) if printed else out == ""


def test_grid_diff_flags_a_file_on_one_side(tmp_path, capsys):
    a, b = _grids(tmp_path, {"x.csv": "1\n", "y.csv": "2\n"}, {"x.csv": "1\n"})
    assert GRID_DIFF["main"](a, b) == 1
    assert "y.csv: only in" in capsys.readouterr().out
