"""scripts/traffic.py: the functions a tiny config's CLI runs never enter."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_spec = importlib.util.spec_from_file_location("traffic", SCRIPTS / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

TINY = """
[obstacle]
preset = quadratic
height = 0.2
curvature = 1.5

[checks]
run = caccioppoli

[sweep]
n = 32
scale = 1, 4
"""


def test_unentered_functions_are_listed_once_and_sorted(tmp_path, capsys):
    # without a measure, verify and solve run the Newton loop and never a
    # mollification sequence; potential does not run
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    assert traffic.main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and len(set(lines)) == len(lines)
    names = {line.split()[1] for line in lines}
    assert "solve_op_sequence" in names and "_minimize" not in names
    where = [line.split()[0].rsplit(":", 1) for line in lines]
    assert all(path.endswith(".py") and "potlab" in Path(path).parts for path, _ in where)
    assert where == sorted(where, key=lambda w: (w[0], int(w[1])))
