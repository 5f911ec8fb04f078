"""Command-line interface: argument handling, outputs, exit codes."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import declab
from declab import (
    SolverError, build_dual, perturbed_mesh, read_mesh, star_inverse_matrix, symmetric_mesh,
)
from declab.cli import main
from declab.operators import dec_system
from oracles import hodge_laplacian_matrix


# -- convergence --------------------------------------------------------------


def test_convergence_markdown_to_stdout(capsys):
    assert main(["convergence", "--k", "2", "--levels", "1..2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "| h | e_u | rate | e_rho | rate |"
    assert "2^-2" in out


def test_convergence_csv_to_file(tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        ["convergence", "--k", "0", "--levels", "2", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("level,h,e_u,rate_e_u")
    assert len(lines) == 2  # single level


def test_convergence_perturbed_family(capsys):
    code = main(
        ["convergence", "--k", "1", "--levels", "1..2", "--family", "perturbed", "--seed", "2"]
    )
    assert code == 0
    assert "de_rho" in capsys.readouterr().out


def test_convergence_solver_failure_exit_code(capsys):
    code = main(
        ["convergence", "--k", "0", "--levels", "5", "--solver-maxit", "2"]
    )
    assert code == 2
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "1", "2"])
def test_convergence_csv_does_not_depend_on_the_blas_thread_count(k):
    """A threaded BLAS call splits its sums by thread and rounds
    differently, so declab makes no BLAS or LAPACK call: the CSV under one
    and two threads is the same but for wall_time, the de Rham sums, the
    k = 0 weighted means and the regularised coarse solve included.  (On a
    one-core host OpenBLAS runs one thread either way.)"""
    src = str(Path(declab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "declab.cli", "convergence", "--k", k,
               "--family", "symmetric", "--levels", "7", "--format", "csv"]
    runs = [
        subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": n})
        for n in ("1", "2")
    ]
    tables = []
    for run in runs:
        out, _ = run.communicate(timeout=300)
        assert run.returncode == 0
        tables.append([line.rsplit(",", 1)[0] for line in out.splitlines()])
    assert tables[0][0].endswith(",iterations") and len(tables[0]) == 2
    assert tables[0] == tables[1]


@pytest.mark.parametrize(
    "option",
    [["--solver-tol", "nan"], ["--solver-tol", "inf"], ["--solver-tol", "0"],
     ["--solver-maxit", "0"], ["--solver-maxit", "-5"]],
)
def test_convergence_rejects_bad_solver_arguments(option, capsys, monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("CG ran with bad solver arguments")

    monkeypatch.setattr("declab.experiments.cg_solve", no_cg)
    code = main(["convergence", "--k", "0", "--levels", "2", *option])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0..2", "3..1", "x", "1..y"])
def test_convergence_rejects_bad_level_ranges(bad, capsys):
    with pytest.raises(SystemExit):
        main(["convergence", "--k", "0", "--levels", bad])


# argparse's own rejections exit with its code 2 and print the usage line
# first; the perfbench gate test pins that code for a bad level range.
@pytest.mark.parametrize(
    "option, name",
    [(["--k", "7"], "--k"), (["--solver-tol", "abc"], "--solver-tol")],
)
def test_convergence_rejects_bad_argument_values_with_usage(option, name, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--k", "0", "--levels", "2", *option])
    assert exc.value.code not in (0, None)
    err = capsys.readouterr().err
    assert err.startswith("usage: declab convergence")
    assert err.splitlines()[-1].startswith(f"declab convergence: error: argument {name}")


# every parser takes options in full: no prefix, nor another subcommand's --level, stands in
@pytest.mark.parametrize("argv", [
    "convergence --k 0 --levels 2 --level 3", "convergence --k 0 --lev 2", "--he",
    "convergence --k 0 --levels 2 --solver-m 1", "diagnostics --k 0 --lev 2",
    "gen-mesh --lev 2 --out mesh.txt", "dual-report --lev 2", "dump-operators --k 0 --lev 2",
])
def test_abbreviated_options_exit_2_with_usage(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # where gen-mesh would write, were --lev read as --level
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: declab")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: declab convergence")
    text = " ".join(out.split())  # argparse wraps the help to the terminal's width
    assert "--solver-tol SOLVER_TOL CG's relative residual target (default 1e-12)" in text
    assert "--solver-maxit SOLVER_MAXIT CG's iteration budget (default 50 sqrt(n) + 1000" in text


_MESH_SOURCE = {"--family", "--seed", "--alpha", "--level", "--mesh", "--out"}
_OPTIONS = {  # each subcommand's options and the ones it requires
    "convergence": ({"--k", "--levels", "--family", "--seed", "--alpha", "--format", "--out",
                     "--solver-tol", "--solver-maxit"}, {"--k", "--levels"}),
    "diagnostics": ({"--k", *_MESH_SOURCE}, {"--k"}),
    "gen-mesh": ({"--family", "--seed", "--alpha", "--level", "--out"}, {"--level", "--out"}),
    "dual-report": (_MESH_SOURCE, set()),
    "dump-operators": ({"--k", *_MESH_SOURCE}, {"--k"}),
}


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_each_subcommand_takes_its_options(command, capsys):
    """The option strings each --help lists, and the ones its usage line
    requires (those outside brackets): an option group shared between
    subcommands must give none of them an option it lacks, or drop one."""
    options, required = _OPTIONS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    usage, listed = out.split("\n\n", 1)
    listed = re.findall(r"^  (-[\w-]+)(?:, (--[\w-]+))?", listed, re.M)
    assert {name for pair in listed for name in pair if name} == {"-h", "--help", *options}
    assert set(re.findall(r"--[\w-]+", re.sub(r"\[[^]]*\]", "", usage))) == required


# -- gen-mesh -----------------------------------------------------------------


def test_gen_mesh_round_trip(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    code = main(
        ["gen-mesh", "--family", "perturbed", "--level", "2", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    assert "wrote 15 vertices, 16 cells" in capsys.readouterr().out
    K = read_mesh(path)
    assert np.array_equal(K.vertices, perturbed_mesh(2, seed=3).vertices)


def test_gen_mesh_rejects_bad_alpha(tmp_path, capsys):
    code = main(
        ["gen-mesh", "--family", "perturbed", "--level", "1", "--alpha", "0.7",
         "--out", str(tmp_path / "m.txt")]
    )
    assert code == 1
    assert "alpha" in capsys.readouterr().err


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_from_level(capsys):
    assert main(["diagnostics", "--k", "1", "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "centroid condition: PASS" in out


def test_diagnostics_from_mesh_file(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    main(["gen-mesh", "--family", "perturbed", "--level", "3", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    assert main(["diagnostics", "--k", "0", "--mesh", str(path)]) == 0
    assert "centroid condition: FAIL" in capsys.readouterr().out


def test_missing_mesh_file_is_a_mesh_error(capsys):
    code = main(["diagnostics", "--k", "0", "--mesh", "/nonexistent/mesh.txt"])
    assert code == 3
    assert "mesh generation failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["dual-report"], ["diagnostics", "--k", "0"]])
def test_binary_mesh_file_is_a_mesh_error(tmp_path, capsys, command):
    path = tmp_path / "mesh.bin"
    path.write_bytes(b"\xff\xfe\x00garbage\x80")
    assert main([*command, "--mesh", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot read mesh file" in err


# -- dual-report --------------------------------------------------------------


def test_dual_report_consistency(capsys):
    assert main(["dual-report", "--level", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dim,simplex_id,primal_volume,dual_volume,ratio_a,is_boundary"
    assert len(lines) == 1 + 6 + 9 + 4
    K = symmetric_mesh(1)
    for line in lines[1:]:
        dim_s, idx_s, pv_s, dv_s, a_s, bd_s = line.split(",")
        k, i = int(dim_s), int(idx_s)
        assert float(pv_s) == K.volumes(k)[i]
        assert float(a_s) * float(pv_s) == pytest.approx(float(dv_s), rel=1e-12)
        assert int(bd_s) == int(K.is_boundary(k)[i])


def test_dual_report_gives_every_triangle_a_point_dual_of_volume_1(capsys):
    # |*T| = 1, the volume of a point, where a_2 |T| rounds off 1
    K = perturbed_mesh(4, 1)
    assert (build_dual(K).hodge_ratio_a[2] * K.volumes(2) != 1.0).any()
    assert main(["dual-report", "--family", "perturbed", "--level", "4", "--seed", "1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    star_volumes = [dv for dim, _, _, dv, _, _ in rows if dim == "2"]
    assert len(star_volumes) == K.n_simplices(2)
    assert set(star_volumes) == {"1"}


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_dual_report_rejects_non_finite_mesh_file(tmp_path, capsys, bad):
    path = tmp_path / "mesh.txt"
    path.write_text(f"2 3 1\n0 0\n1 0\n0.5 {bad}\n0 1 2\n")
    assert main(["dual-report", "--mesh", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "vertex 2 has a non-finite coordinate" in err


@pytest.mark.filterwarnings("error")  # the overflow is rejected, not warned of
@pytest.mark.parametrize("command", [["dual-report"], ["diagnostics", "--k", "0"]])
def test_overflowing_mesh_file_is_a_mesh_error(tmp_path, capsys, command):
    # finite coordinates whose cell area overflows to NaN
    path = tmp_path / "mesh.txt"
    path.write_text("2 3 1\n0 0\n2e155 1e155\n1e155 1e155\n0 1 2\n")
    assert main([*command, "--mesh", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "cell 0 is degenerate" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["dual-report"], ["diagnostics", "--k", "0"]])
@pytest.mark.parametrize(
    "vertices, reason",
    [
        # right triangle: its circumcenter lies on the hypotenuse
        ("0 0\n1 0\n0 1", "does not contain its circumcenter"),
        # acute, but its circumcenter weights overflow to NaN
        ("0 0\n1e80 0\n3e79 1e80", "circumcenter weights that overflow"),
    ],
)
def test_mesh_file_without_circumcentric_dual_is_a_mesh_error(
    tmp_path, capsys, command, vertices, reason
):
    path = tmp_path / "mesh.txt"
    path.write_text(f"2 3 1\n{vertices}\n0 1 2\n")
    assert main([*command, "--mesh", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "not well-centered" in err and reason in err


def test_dual_report_requires_mesh_or_level(capsys):
    assert main(["dual-report"]) == 1
    assert "either --mesh or --level" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["diagnostics", "--k", "0"], ["dual-report"], ["dump-operators", "--k", "1"]]
)
def test_mesh_and_level_together_are_rejected_before_the_file_is_read(capsys, command):
    """--level was dropped silently; the path does not exist, so exit code 1
    rather than 3 shows that the file was never read."""
    code = main([*command, "--mesh", "/nonexistent/mesh.txt", "--level", "3"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and "give --mesh or --level, not both" in err


# -- dump-operators -----------------------------------------------------------


def _parse_sections(text: str) -> dict[str, tuple[tuple[int, int], list[tuple[int, int, float]]]]:
    sections: dict[str, tuple[tuple[int, int], list[tuple[int, int, float]]]] = {}
    name = None
    for line in text.strip().splitlines():
        if line.startswith("# operator "):
            _, _, name, _, rows, cols, _, nnz = line.split()
            sections[name] = ((int(rows), int(cols)), [])
            expected = int(nnz)
            sections[name + "/nnz"] = expected  # type: ignore[assignment]
        else:
            r, c, v = line.split()
            sections[name][1].append((int(r), int(c), float(v)))
    return sections


def test_dump_operators_matches_assembled_matrices(capsys):
    assert main(["dump-operators", "--k", "1", "--level", "1"]) == 0
    sections = _parse_sections(capsys.readouterr().out)
    names = [n for n in sections if not n.endswith("/nnz")]
    assert names == ["coboundary_d1", "hodge_star_1", "codifferential_1", "laplacian_1"]
    K = symmetric_mesh(1)
    shape, triplets = sections["coboundary_d1"]
    assert shape == (4, 9)
    assert len(triplets) == sections["coboundary_d1/nnz"]
    D1 = K.coboundary_matrix(1).tocoo()
    want = sorted(zip(D1.row.tolist(), D1.col.tolist(), D1.data.tolist()))
    assert triplets == want  # %.17g round-trips signs and values exactly
    # the Laplacian printed is S^-1 times the solved system, to the last bit,
    # and the composition D delta + delta D to rounding
    dual = build_dual(K)
    L = (star_inverse_matrix(dual, 1) @ dec_system(K, dual.hodge_ratio_a, 1)).tocoo()
    _, triplets = sections["laplacian_1"]
    assert triplets == sorted(zip(L.row.tolist(), L.col.tolist(), L.data.tolist()))
    oracle = hodge_laplacian_matrix(K, dual, 1).toarray()
    got = np.zeros_like(oracle)
    for r, c, v in triplets:
        got[r, c] = v
    assert np.abs(got - oracle).max() <= 1e-15 * np.abs(oracle).max()


def test_dump_operators_section_lists_by_degree(capsys):
    assert main(["dump-operators", "--k", "0", "--level", "1"]) == 0
    out0 = capsys.readouterr().out
    assert "coboundary_d0" in out0 and "codifferential_0" not in out0
    assert main(["dump-operators", "--k", "2", "--level", "1"]) == 0
    out2 = capsys.readouterr().out
    assert "coboundary_d2" not in out2 and "codifferential_2" in out2


# -- output -------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, code",
    [
        (["gen-mesh", "--level", "2"], 3),
        (["convergence", "--k", "0", "--levels", "1"], 1),
        (["diagnostics", "--k", "0", "--level", "1"], 1),
        (["dual-report", "--level", "1"], 1),
        (["dump-operators", "--k", "0", "--level", "1"], 1),
    ],
)
def test_unwritable_out_is_a_one_line_error(tmp_path, capsys, command, code):
    out = tmp_path / "missing" / "out.txt"
    assert main([*command, "--out", str(out)]) == code
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("\n") == 1 and str(out) in err


@pytest.mark.parametrize("where", ["missing-dir", "directory", "file-as-dir", "trailing-slash"])
def test_convergence_checks_out_before_the_study(where, tmp_path, capsys, monkeypatch):
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran before --out was checked")

    monkeypatch.setattr("declab.cli.run_convergence", no_study)
    (tmp_path / "file").write_text("kept")
    out = {
        "missing-dir": tmp_path / "missing" / "out.csv",
        "directory": tmp_path,
        "file-as-dir": tmp_path / "file" / "out.csv",
        "trailing-slash": f"{tmp_path / 'new'}{os.sep}",
    }[where]
    assert main(["convergence", "--k", "2", "--levels", "2..7", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot write output:")
    assert str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_convergence_out_check_creates_and_truncates_nothing(tmp_path, monkeypatch):
    """A writable --out passes the check untouched: a study that fails
    leaves an existing file as it was and a new path uncreated."""
    def failing_study(*args, **kwargs):
        raise SolverError("stop")

    monkeypatch.setattr("declab.cli.run_convergence", failing_study)
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("previous table")
    for out in (kept, new):
        assert main(["convergence", "--k", "0", "--levels", "2", "--out", str(out)]) == 2
    assert kept.read_text() == "previous table"
    assert not new.exists()


# -- packaging ----------------------------------------------------------------


@pytest.mark.skipif(shutil.which("declab") is None, reason="console script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["declab", "diagnostics", "--k", "0", "--level", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "centroid condition" in proc.stdout
