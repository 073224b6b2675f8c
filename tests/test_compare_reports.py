"""scripts/compare_reports.py: exit status and output on small report trees."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = _load("compare_reports")
compare_with = _load("compare_with")

LHS = 1.19513870397
CSV = (
    "check,point_x,point_y,radius,lhs,rhs,ratio,flag\n"
    "gradient_bounds,0.602694334164,0.585101738978,0.15,{lhs},8.10939574708,"
    "0.147377035385,{flag}\n"
    "gradient_bounds,0.610296552193,0.567962054587,0.0375,0.295175139676,"
    "8.17533648569,0.036105564608,oscillation\n"
)
SUMMARY = (
    "check                             rows    max_ratio      drift  pass\n"
    "gradient_bounds                      2 0.147377035385 4.08181567418    ok\n"
    "    note: oscillation exponent alpha = 0.4\n"
)


def write_tree(root: Path, lhs: float = LHS, flag: str = "") -> Path:
    (root / "dirac").mkdir(parents=True)
    (root / "dirac" / "check_gradient_bounds.csv").write_text(
        CSV.format(lhs=f"{lhs:.12g}", flag=flag))
    (root / "dirac" / "summary.txt").write_text(SUMMARY)
    return root


def run(tmp_path, **change) -> int:
    old = write_tree(tmp_path / "old")
    new = write_tree(tmp_path / "new", **change)
    return compare_reports.main(["compare_reports.py", str(old), str(new)])


def test_identical_trees_agree_byte_for_byte(tmp_path, capsys):
    assert run(tmp_path) == 0
    out = capsys.readouterr().out
    assert out.count("byte-identical") == 3
    assert out.endswith("2 of 2 files byte-identical\nreports agree\n")


def test_flipped_flag_fails(tmp_path, capsys):
    assert run(tmp_path, flag="degenerate-skip") == 1
    assert "row 1 flag" in capsys.readouterr().out


@pytest.mark.parametrize("rel, code", [(1e-5, 1), (1e-9, 0)])
def test_numeric_change_against_the_limit(tmp_path, capsys, rel, code):
    assert run(tmp_path, lhs=LHS * (1 + rel)) == code
    out = capsys.readouterr().out
    assert "check_gradient_bounds.csv: rows and flags equal" in out
    assert "1 of 2 files byte-identical\n" in out


ENERGY = -0.0123456789012
DIAGNOSTICS = ("iterations 5\nenergy {energy:.12g}\ncomplementarity 3.1e-10\nresidual 2.2e-09\n"
               "factorizations {factorizations}\nkrylov_iterations 37\nkrylov_misses 1\n"
               "lu_nnz 390080\n")


def run_diagnostics(tmp_path, energy=ENERGY, factorizations=7, start=None) -> int:
    """Compare trees that also hold a `potlab solve` diagnostics file; the
    new one with a `start` line when ``start`` is given."""
    old = write_tree(tmp_path / "old")
    new = write_tree(tmp_path / "new")
    for root, e, k, s in ((old, ENERGY, 7, None), (new, energy, factorizations, start)):
        (root / "dirac" / "diagnostics.txt").write_text(
            ("" if s is None else f"start {s}\n") + DIAGNOSTICS.format(energy=e, factorizations=k))
    return compare_reports.main(["compare_reports.py", str(old), str(new)])


def test_changed_solver_count_fails(tmp_path, capsys):
    assert run_diagnostics(tmp_path, factorizations=8) == 1
    out = capsys.readouterr().out
    assert "FAIL dirac/diagnostics.txt: solver counts differ" in out
    assert "factorizations: '7' -> '8'" in out


def test_energy_within_the_limit_passes(tmp_path, capsys):
    assert run_diagnostics(tmp_path, energy=ENERGY * (1 + 1e-9)) == 0
    out = capsys.readouterr().out
    assert "ok   dirac/diagnostics.txt: solver counts equal" in out
    assert out.endswith("2 of 3 files byte-identical\nreports agree\n")


def test_a_flat_start_line_is_a_file_without_one(tmp_path, capsys):
    assert run_diagnostics(tmp_path, start="flat", factorizations=8) == 1
    assert "factorizations: '7' -> '8'" in capsys.readouterr().out


@pytest.mark.parametrize("energy, code", [(ENERGY, 0), (ENERGY * (1 + 1e-5), 1)])
def test_another_start_reports_its_counts_and_compares_the_energy(tmp_path, capsys, energy,
                                                                  code):
    # a solve from the coarse cell takes fewer steps to the same energy
    assert run_diagnostics(tmp_path, energy, factorizations=3, start="n=64") == code
    lines = capsys.readouterr().out.splitlines()
    verdict = "ok  " if code == 0 else "FAIL"
    assert lines[1].startswith(f"{verdict} dirac/diagnostics.txt: solver counts reported; "
                               f"max rel diff energy=")
    assert lines[2:4] == ["     start: 'flat' -> 'n=64'",
                          "     row 1 factorizations: '7' -> '3'"]


VALUE = 2.41365120982
POTENTIAL = "x,y,value,truncation_flag\n0.431,0.552,{value},{flag}\n0.602,0.381,1.25,0\n"


def run_potential(tmp_path, value=VALUE, flag=0) -> int:
    """Compare trees that also hold the `potlab potential` CSVs."""
    old = write_tree(tmp_path / "old")
    new = write_tree(tmp_path / "new")
    for root, v, f in ((old, VALUE, 0), (new, value, flag)):
        for name in ("wolff.csv", "maximal.csv"):
            (root / "dirac" / name).write_text(POTENTIAL.format(value=f"{v:.12g}", flag=f))
    return compare_reports.main(["compare_reports.py", str(old), str(new)])


@pytest.mark.parametrize("value, flag, code", [
    (VALUE, 0, 0), (VALUE * (1 + 1e-9), 0, 0), (VALUE * (1 + 1e-5), 0, 1), (VALUE, 1, 1)])
def test_potential_csvs_compare_flags_exactly_and_values_to_the_limit(
        tmp_path, capsys, value, flag, code):
    assert run_potential(tmp_path, value, flag) == code
    out = capsys.readouterr().out
    if value == VALUE and not flag:
        assert out.endswith("4 of 4 files byte-identical\nreports agree\n")
    elif flag:
        assert "FAIL dirac/wolff.csv: rows and truncation flags differ" in out
        assert "row 1 truncation_flag: '0' -> '1'" in out
    else:
        assert "dirac/maximal.csv: rows and truncation flags equal" in out
        assert "2 of 4 files byte-identical\n" in out


def test_compare_with_prints_every_differing_file(tmp_path, capsys):
    # a moved number in one file: compare_with names that file and the
    # verdicts, and drops the byte-identical file's line
    run(tmp_path, lhs=LHS * (1 + 1e-9))
    out = capsys.readouterr().out
    assert compare_with.report_lines(out) == [
        "ok   dirac/check_gradient_bounds.csv: rows and flags equal; max rel diff "
        "point_x=0.00e+00 point_y=0.00e+00 radius=0.00e+00 lhs=1.00e-09 rhs=0.00e+00 "
        "ratio=0.00e+00",
        "1 of 2 files byte-identical",
        "reports agree",
    ]
    # a flipped flag keeps its detail line
    run(tmp_path / "flag", flag="degenerate-skip")
    lines = compare_with.report_lines(capsys.readouterr().out)
    assert lines[0].startswith("FAIL dirac/check_gradient_bounds.csv: rows and flags differ")
    assert lines[1:] == ["     row 1 flag: '' -> 'degenerate-skip'",
                         "1 of 2 files byte-identical", "reports differ"]
