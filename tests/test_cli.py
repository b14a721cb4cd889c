import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from sematlas import cli, enumeration, semmap
from sematlas.cli import build_parser, main
from sematlas.constructions import (
    NotGridMap,
    SeriesParams,
    equivelar_series,
    subdivide_alternate_diagonals,
    subdivide_layer_diagonals,
    subdivide_to_3636,
)
from sematlas.core import PolyhedralMap, SematlasError, is_orientable
from sematlas.export import SvgUnsupported, to_svg
from sematlas.enumeration import SearchInvariantError
from sematlas.atlas import _data_root


FIX = _data_root()


def run(capsys, *argv):
    """Exit code, stdout and stderr of one ``sematlas`` call."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", str(FIX / "T_1_10__3-3-3-4-4.map"))
    assert code == 0 and out.startswith("OK")


@pytest.mark.parametrize("command, text, witness", [
    ("validate", "semmap 1\nvertices 3\nface 0 1 2\nface 0 2 1\n",
     "FaceIntersectionViolation"),
    ("validate", "# tag: {bad\nsemmap 1\nvertices 4\nface 0 1 2\nface 0 1 3\n"
     "face 0 2 3\nface 1 2 3\n", "SemmapFormatError: bad tag comment"),
    ("invariants", "semmap 1\nvertices 3\nface 0 1 2\n", "EdgeDegreeViolation"),
], ids=["pillow", "bad-tag", "edge-in-one-face"])
def test_validate_rejects(tmp_path, capsys, command, text, witness):
    bad = tmp_path / "bad.map"
    bad.write_text(text)
    code, out, _ = run(capsys, command, str(bad))
    assert code == 1 and out.startswith(f"INVALID: {witness}")


def test_validate_missing_file(capsys):
    assert main(["validate", "no-such-file.map"]) == 2


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "--json",
                       str(FIX / "K_1_14__3-3-3-4-4.map"))
    assert code == 0
    rep = json.loads(out)
    assert rep["surface"] == "klein_bottle"
    assert rep["orientable"] is False
    assert rep["semi_equivelar_type"] == "3,3,3,4,4"
    assert rep["char_poly_coefficients"][-1] == 1


def test_invariants_sphere(tmp_path, capsys):
    p = tmp_path / "tet.map"
    p.write_text("semmap 1\nvertices 4\nface 0 1 2\nface 0 1 3\n"
                 "face 0 2 3\nface 1 2 3\n")
    code, out, _ = run(capsys, "invariants", p.as_posix())
    assert code == 0
    assert "sphere" in out and "euler characteristic 2" in out


def test_projective_plane_has_no_systole_and_no_cover(tmp_path, capsys, rp2):
    p = tmp_path / "rp2.map"
    semmap.save(rp2, p)
    code, out, _ = run(capsys, "invariants", str(p))
    assert code == 0
    assert "other(chi=1, non-orientable)" in out
    assert "homological systole None" in out.splitlines()
    code, out, err = run(capsys, "cover", str(p))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: NotFlat")


def test_iso(capsys):
    code, out, _ = run(capsys, "iso", str(FIX / "T_1_12__3-3-3-4-4.map"),
                       str(FIX / "T_1_12__3-3-3-4-4.map"))
    assert code == 0 and out.startswith("isomorphic")
    code, out, _ = run(capsys, "iso", str(FIX / "T_1_12__3-3-3-4-4.map"),
                       str(FIX / "T_2_12__3-3-3-4-4.map"))
    assert code == 1 and "not isomorphic" in out


def test_enumerate_writes_maps(tmp_path, capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "3,3,3,4,4",
                       "--n", "10", "--out", str(tmp_path))
    assert code == 0 and "2 map(s)" in out
    written = sorted(p.name for p in tmp_path.glob("*.map"))
    assert written == ["K_1_10__3-3-3-4-4.map", "T_1_10__3-3-3-4-4.map"]
    for p in tmp_path.glob("*.map"):
        semmap.load(p)


def test_classify_text_and_determinism(tmp_path, capsys):
    args = ["classify", "--max-vertices", "12", "--types", "3,3,3,4,4",
            "--out", str(tmp_path / "a")]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert "total maps: 7" in out1
    args[-1] = str(tmp_path / "b")
    code, out2, _ = run(capsys, *args)
    blob_a = {p.name: p.read_bytes() for p in (tmp_path / "a").glob("*")}
    blob_b = {p.name: p.read_bytes() for p in (tmp_path / "b").glob("*")}
    assert blob_a == blob_b


def test_classify_default_jobs_is_byte_identical(tmp_path, capsys):
    """Without --jobs the census runs one process per usable CPU, and
    prints and writes the same bytes as in one process."""
    got = []
    for sub, jobs in (("one", ["--jobs", "1"]), ("default", [])):
        code, out, err = run(capsys, "classify", "--max-vertices", "16",
                             "--types", "all", "--format", "json",
                             "--out", str(tmp_path / sub), *jobs)
        assert code == 0 and err == ""
        got.append((out, {p.name: p.read_bytes()
                          for p in sorted((tmp_path / sub).glob("*"))}))
    assert got[0] == got[1]
    assert got[0][1]


def test_classify_jobs_default_is_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                        raising=False)
    args = build_parser().parse_args(["classify", "--max-vertices", "8"])
    assert args.jobs == 3


def test_classify_names_a_repeated_type_once(capsys):
    once = run(capsys, "classify", "--max-vertices", "12", "--types", "3,3,3,4,4")
    twice = run(capsys, "classify", "--max-vertices", "12",
                "--types", "3,3,3,4,4;4,4,3,3,3")
    assert twice == once
    assert "total maps: 7 " in once[1]


def test_classify_csv_and_json(capsys):
    code, out, _ = run(capsys, "classify", "--max-vertices", "12",
                       "--types", "3,3,3,4,4;3,12,12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,n,total,orientable,non_orientable,maps,infeasible_reason"
    assert any("3,12,12" in ln and "closed star" in ln for ln in lines)

    code, out, _ = run(capsys, "classify", "--max-vertices", "12",
                       "--types", "3,3,3,4,4", "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == "sematlas/1"
    for row in payload["rows"]:
        assert row["total"] == row["orientable"] + row["non_orientable"]


@pytest.mark.parametrize("types", ["3,3,3", "3,3,3,3,3,3,3", "3,4,3,4", "7,7,7"])
def test_classify_reports_a_type_that_is_not_flat(capsys, types):
    code, out, err = run(capsys, "classify", "--max-vertices", "30",
                         "--types", types)
    assert (code, err) == (0, "")
    assert f"{types:16}   -     -        -        -  infeasible: not flat:" in out
    assert "total maps: 0 " in out


def test_enumerate_still_finds_the_tetrahedron(tmp_path, capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "3,3,3", "--n", "4",
                       "--out", str(tmp_path))
    assert code == 0 and "1 map(s)" in out
    (p,) = tmp_path.glob("*.map")
    assert semmap.load(p).n_faces == 4


def test_construct_and_verify(tmp_path, capsys):
    out_file = tmp_path / "grid.map"
    code, out, err = run(capsys, "construct", "--family", "4x4", "--surface",
                         "torus", "--n", "7", "--out", str(out_file), "--verify")
    assert code == 0
    m = semmap.load(out_file)
    assert m.n_vertices == 14
    assert "type=(4,4,4,4)" in err


def test_construct_bad_params(capsys):
    code, _, err = run(capsys, "construct", "--family", "4^4", "--surface",
                       "torus", "--n", "4")
    assert code == 1 and "ParamOutOfRange" in err


def test_derive_chain(tmp_path, capsys):
    hexmap = tmp_path / "hex.map"
    code, _, _ = run(capsys, "construct", "--family", "6^3", "--surface",
                     "torus", "--n", "7", "--out", str(hexmap))
    assert code == 0
    out_file = tmp_path / "out.map"
    code, out, err = run(capsys, "derive", "--ops", "truncate",
                         str(hexmap), "--out", str(out_file), "--verify")
    assert code == 0
    assert semmap.load(out_file).n_vertices == 42
    assert "type=(3,12,12)" in err

    code, _, err = run(capsys, "derive", "--ops",
                       "truncate,build-3464,subdivide-3464-to-346",
                       str(hexmap), "--out", str(tmp_path / "big.map"))
    assert code == 0
    assert semmap.load(tmp_path / "big.map").n_vertices == 168


def test_derive_unknown_op(tmp_path, capsys):
    p = tmp_path / "x.map"
    p.write_text((FIX / "T_1_10__3-3-3-4-4.map").read_text())
    code, _, err = run(capsys, "derive", "--ops", "frobnicate", str(p))
    assert code == 2 and "unknown op" in err


def test_cover_command(tmp_path, capsys):
    out_file = tmp_path / "cover.map"
    code, out, _ = run(capsys, "cover", str(FIX / "K_1_14__3-3-3-4-4.map"),
                       "--out", str(out_file))
    assert code == 0
    assert semmap.load(out_file).n_vertices == 28
    assert "projection:" in out

    code, _, err = run(capsys, "cover", str(FIX / "T_1_10__3-3-3-4-4.map"))
    assert code == 1 and "AlreadyOrientable" in err


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", str(FIX / "T_1_10__3-3-3-4-4.map"))
    assert code == 0
    assert out.startswith("graph map {")
    assert out.count(" -- ") == 25


def test_export_svg_fallback(capsys):
    code, out, err = run(capsys, "export", "--format", "svg",
                         str(FIX / "T_1_10__3-3-3-4-4.map"))
    assert code == 0
    assert "falling back to DOT" in err
    assert out.startswith("graph map {")


def test_atlas_list_and_get(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "atlas")
    assert code == 0
    assert "T_1_10__3-3-3-4-4" in out and out.count("\n") == 21
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "atlas", "--get", "K_1_14__3-3-3-4-4")
    assert code == 0
    assert semmap.load(tmp_path / "K_1_14__3-3-3-4-4.map").n_vertices == 14
    # ids come from the manifest, not from the file system
    for fid in ("nope", "manifest", "../data/T_1_10__3-3-3-4-4"):
        code, out, err = run(capsys, "atlas", "--get", fid, "--out", "-")
        assert code == 1 and out == ""
        assert err.startswith(f"error: unknown atlas id {fid!r}; known ids: K_1_10")
        assert len(err.splitlines()) == 1


def test_env_budget_caps_search(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEM_ATLAS_BUDGET", "5")
    code, _, err = run(capsys, "enumerate", "--type", "3,3,3,4,4", "--n", "12")
    assert code == 1 and "BudgetExceeded" in err
    monkeypatch.delenv("SEM_ATLAS_BUDGET")
    code, out, _ = run(capsys, "enumerate", "--type", "3,3,3,4,4", "--n", "12")
    assert code == 0 and "5 map(s)" in out


@pytest.mark.parametrize("budget,error", [("1000", "BudgetExceeded"),
                                          (None, "SearchTooDeep")])
def test_hostile_n_is_a_domain_failure(capsys, monkeypatch, budget, error):
    """A huge --n costs no memory up front; the search stops at the node
    budget, or, without one, at the recursion limit (one level per face),
    either way with one error line and exit 1."""
    if budget is None:
        monkeypatch.delenv("SEM_ATLAS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SEM_ATLAS_BUDGET", budget)
    code, out, err = run(capsys, "enumerate", "--type", "3,3,3,4,4",
                         "--n", str(2**62))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {error}: ") and len(err.splitlines()) == 1
    assert f"n = {2**62}" in err


@pytest.mark.parametrize("budget,cell", [("50", "(3,3,3,4,4), n = 12"),
                                         ("300", "(3,3,3,4,4), n = 16")])
def test_budget_failure_is_the_same_with_jobs(capsys, monkeypatch, budget, cell):
    """The census reports the first cell in census order that runs out,
    with its type and n, however many processes search it, also with the
    default of one per usable CPU."""
    monkeypatch.setenv("SEM_ATLAS_BUDGET", budget)
    got = [run(capsys, "classify", "--max-vertices", "20", *jobs)
           for jobs in (["--jobs", "1"], ["--jobs", "2"], [])]
    assert got[0] == got[1] == got[2]
    code, out, err = got[0]
    assert code == 1 and out == ""
    assert err.startswith(f"error: BudgetExceeded: exceeded {budget} search "
                          f"nodes in cell {cell};")


@pytest.mark.parametrize("jobs", ["1", "2", None])
def test_hostile_max_vertices_stops_at_the_budget(jobs):
    """A huge --max-vertices costs nothing before the first search: the
    census searches its cells as the gate yields them, also in a pool, so
    a node budget ends it at the first cell that exhausts it, with the
    error that a census to 20 vertices gives under the same budget.  Run
    as a subprocess, so a census that never stops fails on its timeout.
    ``None`` runs without --jobs, so with its default."""
    jobs_args = [] if jobs is None else ["--jobs", jobs]
    src = Path(enumeration.__file__).resolve().parents[1]
    env = {**os.environ, "SEM_ATLAS_BUDGET": "10",
           "PYTHONPATH": os.pathsep.join(
               [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    got = []
    for n_max in ("20", str(10**12)):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "sematlas.cli", "classify",
             "--max-vertices", n_max, *jobs_args], env=env,
            capture_output=True, text=True, timeout=60)
        assert time.monotonic() - start < 30
        got.append((done.returncode, done.stdout, done.stderr))
    assert got[0] == got[1]
    code, out, err = got[1]
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: BudgetExceeded: exceeded 10 search nodes "
                          "in cell (3,3,3,4,4), n = 10;")


def test_a_dying_census_worker_is_one_error_line(tmp_path):
    """A census worker process that dies mid-cell, as under the
    out-of-memory killer, ends the census with one ``WorkerDied`` line and
    exit 1, not a hang.  Run as a subprocess, so a hang fails on its
    timeout; the worker searching n = 10 of two workers' census exits its
    process, so the first cell without a row is n = 8 or n = 10."""
    script = tmp_path / "census.py"
    script.write_text(textwrap.dedent("""
        import os, sys
        from sematlas import cli, enumeration

        cell_row = enumeration._cell_row

        def dying_row(cell, budget):
            if cell[1] == 10:
                os._exit(1)
            return cell_row(cell, budget)

        if __name__ == "__main__":
            enumeration.usable_cpus = lambda: 2
            enumeration._cell_row = dying_row
            sys.exit(cli.main(["classify", "--max-vertices", "14",
                               "--types", "3,3,3,4,4", "--jobs", "2"]))
        """))
    src = Path(enumeration.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("SEM_ATLAS_BUDGET", None)
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert re.fullmatch(r"error: WorkerDied: cell \(3,3,3,4,4\), n = (8|10): "
                        r"a worker process died before the cell's row was "
                        r"returned\n", done.stderr), done.stderr


def test_any_sematlas_error_is_one_error_line(capsys, monkeypatch):
    """The command line reports every ``SematlasError`` as one ``error:``
    line and exit 1, also one of a class that it never names."""
    class FreshFailure(SematlasError):
        pass

    def fail(args):
        raise FreshFailure("a domain failure of a new kind")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert run(capsys, "validate", "any.map") == (
        1, "", "error: FreshFailure: a domain failure of a new kind\n")


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5", "\u0664"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--type", "3,3,3,4,4", "--n", "10"],
    ["classify", "--max-vertices", "10", "--jobs", "1"],
    ["classify", "--max-vertices", "10", "--jobs", "2"],
])
def test_malformed_env_budget_is_a_usage_error(capsys, monkeypatch, argv, raw):
    monkeypatch.setenv("SEM_ATLAS_BUDGET", raw)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: SEM_ATLAS_BUDGET={raw!r} is not a non-negative integer\n"


def test_iso_pin(capsys):
    path = str(FIX / "T_1_10__3-3-3-4-4.map")
    code, out, _ = run(capsys, "iso", path, path, "--pin", "0", "3")
    assert code == 0 and "0->3" in out


def test_classify_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--max-vertices", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["enumerate", "--type", "3,x", "--n", "10"],
    ["enumerate", "--type", "3,3", "--n", "10"],
    # sizes are ASCII digits only, as in semmap files
    ["enumerate", "--type", "+3,3_0,3,4,4", "--n", "10"],
    ["enumerate", "--type", "\u0663,\u0663,\u0663,\u0664,\u0664", "--n", "10"],
    ["enumerate", "--type", "3,3,3,4,4", "--n", "-4"],
    ["enumerate", "--type", "3,3,3,4,4", "--n", "2"],
    ["classify", "--max-vertices", "10", "--types", "3,x"],
    ["classify", "--max-vertices", "10", "--types", "3,3"],
    ["classify", "--max-vertices", "10", "--jobs", "0"],
    ["classify", "--max-vertices", "10", "--jobs", "-3"],
    ["classify", "--max-vertices", "10", "--types", ";"],
    ["iso", str(FIX / "T_1_10__3-3-3-4-4.map"), str(FIX / "T_1_10__3-3-3-4-4.map"),
     "--pin", "0", "99"],
    ["iso", str(FIX / "T_1_10__3-3-3-4-4.map"), str(FIX / "T_1_10__3-3-3-4-4.map"),
     "--pin", "-1", "3"],
    # every subcommand that reads a map, on a missing and a non-UTF-8 file
    *([*cmd, bad] for bad in ("{missing}", "{non-utf-8}") for cmd in (
        ["validate"],
        ["invariants"],
        ["iso", str(FIX / "T_1_10__3-3-3-4-4.map")],
        ["derive", "--ops", "dual"],
        ["export"],
        ["cover"],
    )),
    # integer options are ASCII digits only, too
    ["enumerate", "--type", "3,3,3,4,4", "--n", "+1_0"],
    ["classify", "--max-vertices", "\u0661\u0660"],
    ["classify", "--max-vertices", "8", "--jobs", "+1"],
    ["iso", str(FIX / "T_1_10__3-3-3-4-4.map"), str(FIX / "T_1_10__3-3-3-4-4.map"),
     "--pin", "0", "+1"],
    ["construct", "--family", "4^4", "--surface", "torus", "--n", "8",
     "--twist", "1_0"],
    # argparse's own errors: no subcommand, a missing required option, an
    # unrecognised argument
    [],
    ["enumerate", "--type", "3,3,3,4,4"],
    ["classify", "--max-vertices", "8", "--bogus"],
])
def test_usage_errors_exit_2_with_one_line(capsys, tmp_path, argv):
    (tmp_path / "non-utf-8.map").write_bytes(b"\xff\xfe semmap 1\n")
    argv = [str(tmp_path / f"{a[1:-1]}.map") if a.startswith("{") else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sematlas")


def test_twist_takes_a_minus_sign(capsys, tmp_path):
    out = tmp_path / "grid.map"
    code, _, _ = run(capsys, "construct", "--family", "4^4", "--surface", "torus",
                     "--n", "8", "--twist", "-4", "--out", str(out))
    assert code == 0
    assert semmap.load(out) == equivelar_series(SeriesParams("4^4", "torus", 8, twist=-4))


def test_classify_checks_euler_characteristic(monkeypatch):
    monkeypatch.setattr(enumeration, "euler_characteristic", lambda m: 1)
    with pytest.raises(SearchInvariantError):
        main(["classify", "--max-vertices", "10", "--types", "3,3,3,4,4"])


def test_classify_out_tests_each_map_orientable_once(tmp_path, capsys, monkeypatch):
    from sematlas import cli

    calls = []

    def counting(m):
        calls.append(m)
        return is_orientable(m)

    for module in (enumeration, cli):
        monkeypatch.setattr(module, "is_orientable", counting)
    code, _, _ = run(capsys, "classify", "--max-vertices", "14",
                     "--out", str(tmp_path), "--jobs", "1")
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("*.map"))
    assert len(names) == len(calls) == 11
    assert sum(name.startswith("T_") for name in names) == sum(map(is_orientable, calls))


def test_export_svg_matches_golden(tmp_path, capsys):
    grid = tmp_path / "grid.map"
    run(capsys, "construct", "--family", "4^4", "--surface", "torus",
        "--n", "7", "--out", str(grid))
    code, out, _ = run(capsys, "export", "--format", "svg", str(grid))
    assert code == 0
    golden = Path(__file__).parent / "data" / "torus_44_n7.svg"
    assert out == golden.read_text()


def retagged_grid(tmp_path, twist=None, **tags):
    """The 4^4 torus grid with ``tags`` laid over its own, and its file."""
    m = equivelar_series(SeriesParams("4^4", "torus", 8 if twist else 7, twist=twist))
    m = PolyhedralMap(m.n_vertices, m.faces, tags={**m.tags, **tags})
    path = tmp_path / "grid.map"
    semmap.save(m, path)
    return m, str(path)


def assert_one_error_line(code, out, err, name):
    assert code == 1 and out == ""
    assert err.startswith(f"error: {name}: ") and len(err.splitlines()) == 1


GRID_COORDS = equivelar_series(SeriesParams("4^4", "torus", 7)).tags["coords"]


@pytest.mark.parametrize("coords", [
    5,
    None,
    [[0, 0]],
    {**GRID_COORDS, "0": [0]},
    {**GRID_COORDS, "0": [0, "1"]},
    {**GRID_COORDS, "0": [True, 1]},
    {k: rc for k, rc in GRID_COORDS.items() if k != "0"},
    {**GRID_COORDS, "x": [0, 0]},
    # keys that ``int`` reads as vertex 0 and vertex 1
    {("+0" if k == "0" else k): rc for k, rc in GRID_COORDS.items()},
    {("\u0661" if k == "1" else k): rc for k, rc in GRID_COORDS.items()},
])
def test_malformed_coords_are_svg_unsupported(tmp_path, capsys, coords):
    m, path = retagged_grid(tmp_path, coords=coords)
    with pytest.raises(SvgUnsupported):
        to_svg(m)
    code, out, err = run(capsys, "export", "--format", "svg", path)
    assert_one_error_line(code, out, err, "SvgUnsupported")


def test_svg_title_skips_a_series_tag_that_is_not_an_object(tmp_path):
    m, _ = retagged_grid(tmp_path, series=[1])
    assert "<title></title>" in to_svg(m)


@pytest.mark.parametrize("series", [
    {"family": "4^4", "n": 7},
    {"family": "4^4", "surface": 3, "n": 7},
    {"family": "4^4", "surface": "torus"},
    {"family": "4^4", "surface": "torus", "n": "7"},
    {"family": "4^4", "surface": "torus", "n": 0},
    # refused by the vertex count, before n columns are laid out
    {"family": "4^4", "surface": "torus", "n": 10**12},
])
def test_malformed_series_is_not_a_grid_map(tmp_path, capsys, series):
    m, path = retagged_grid(tmp_path, series=series)
    for op in (subdivide_layer_diagonals, subdivide_alternate_diagonals,
               subdivide_to_3636):
        with pytest.raises(NotGridMap):
            op(m)
    code, out, err = run(capsys, "derive", "--ops", "subdivide-layer", path)
    assert_one_error_line(code, out, err, "NotGridMap")


def test_alternating_a_layer_subdivided_grid_is_not_a_grid_map(tmp_path, capsys):
    _m, path = retagged_grid(tmp_path, twist=-4)
    code, out, err = run(capsys, "derive", "--ops",
                         "subdivide-layer,subdivide-alternate", path)
    assert_one_error_line(code, out, err, "NotGridMap")


def test_malformed_coords_or_twist_is_not_a_grid_map(tmp_path, capsys):
    m, path = retagged_grid(tmp_path, coords=5)
    with pytest.raises(NotGridMap):
        subdivide_layer_diagonals(m)
    code, out, err = run(capsys, "derive", "--ops", "subdivide-layer", path)
    assert_one_error_line(code, out, err, "NotGridMap")

    series = {"family": "4^4", "surface": "torus", "n": 8, "twist": "x"}
    coords = retagged_grid(tmp_path, twist=-4)[0].tags["coords"]
    # well-typed coords off the grid's rows 0..1 and columns 0..n-1
    for tags in ({"series": series},
                 {"coords": {v: [5, c] for v, (_r, c) in coords.items()}},
                 {"coords": {v: [r, c + 3] for v, (r, c) in coords.items()}}):
        m, path = retagged_grid(tmp_path, twist=-4, **tags)
        with pytest.raises(NotGridMap):
            subdivide_alternate_diagonals(m)
        code, out, err = run(capsys, "derive", "--ops", "subdivide-alternate", path)
        assert_one_error_line(code, out, err, "NotGridMap")
