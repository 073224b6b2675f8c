"""scripts/solve_counts.py: the count table of a tiny config."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_spec = importlib.util.spec_from_file_location("solve_counts", SCRIPTS / "solve_counts.py")
solve_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_counts)

TINY_CONTACT = """
[growth]
kind = power
p = 3.0

[obstacle]
preset = quadratic
height = 0.2
curvature = 1.5

[checks]
run = caccioppoli

[sweep]
n = 16, 32
scale = 1, 4
"""


def test_table_has_one_row_of_counts_per_config(tmp_path, capsys):
    path = tmp_path / "tiny_contact.ini"
    path.write_text(TINY_CONTACT)
    assert solve_counts.main([str(path), str(path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["config", "solves", "newton", "LUs", "CG", "iters", "CG",
                              "misses", "LU", "nnz"]
    assert len(rows) == 2 and rows[0] == rows[1]
    name, *values = rows[0].split()
    assert name == "tiny_contact.ini" and all(v.isdigit() for v in values)
    solves, newton, lus, _, misses, nnz = map(int, values)
    # caccioppoli solves each of its 2 x 2 cells once; a miss costs an LU
    assert solves == 4 and newton >= 1 and lus >= 1 + misses and nnz > 0


def test_unreadable_config_is_an_error_line(tmp_path, capsys):
    assert solve_counts.main([str(tmp_path / "absent.ini")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
