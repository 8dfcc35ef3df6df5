"""Command line flows: construction, analysis, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from trinorm import build
from trinorm.cli import main
from trinorm.triangulation import parse, serialize


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "trinorm.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_construct_lst(tmp_path):
    out = tmp_path / "t.tri"
    assert main(["construct", "lst", "--p", "1", "--q", "3",
                 "-o", str(out)]) == 0
    tri = parse(out.read_text())
    assert tri.tet_count == 2
    meta = json.loads((tmp_path / "t.meta.json").read_text())
    assert meta["family"] == "lst" and meta["schema_version"] == 1


def test_fold_file_flow(tmp_path):
    t = tmp_path / "t.tri"
    main(["construct", "lst", "--p", "1", "--q", "2", "-o", str(t)])
    out = tmp_path / "l.tri"
    assert main(["fold", str(t), "--edge", "q", "-o", str(out)]) == 0
    meta = json.loads((tmp_path / "l.meta.json").read_text())
    assert meta["fold"]["lens"] == [4, 1]
    folded = parse(out.read_text())
    assert folded.is_closed


def test_fold_record_ignores_argument_order(tmp_path, capsys):
    # --edge pq names the same fold in either order, and --edge p of
    # (6, 1) the same fold as --edge q of (1, 6)
    def record(p, q, edge):
        out = tmp_path / f"l{p}-{q}-{edge}.tri"
        assert main(["fold", "--p", str(p), "--q", str(q), "--edge", edge,
                     "-o", str(out)]) == 0
        stdout = json.loads(capsys.readouterr().out)
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        return (stdout["lens"], stdout["homology"], meta["fold"],
                meta["predicted_homology"])

    assert record(6, 1, "pq") == record(1, 6, "pq")
    assert record(1, 6, "pq")[0] == [5, 1]
    assert record(6, 1, "p") == record(1, 6, "q")


def test_family_and_analyze(tmp_path, capsys):
    out = tmp_path / "m111.tri"
    assert main(["construct", "family", "--tag", "M", "-k", "1", "-m", "1",
                 "-n", "1", "-o", str(out)]) == 0
    assert parse(out.read_text()).tet_count == 8
    assert main(["analyze", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["skeleton"]["tet_count"] == 8
    assert report["homology"]["z2_rank"] == 1
    assert len(report["classes"]) == 1
    assert report["classes"][0]["chi"] == -3
    assert len(report["maximal_layered_solid_tori"]) == 3


def test_loop_and_twisted_squares(tmp_path, capsys):
    out = tmp_path / "loop.tri"
    main(["construct", "loop", "--n", "6", "--twisted", "-o", str(out)])
    assert main(["twisted-squares", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert any(sq["kind"] == "klein" for sq in data["twisted_squares"])


def test_colourings_surface_bounds(tmp_path, capsys):
    out = tmp_path / "l.tri"
    main(["fold", "--p", "1", "--q", "6", "--edge", "q", "-o", str(out)])
    capsys.readouterr()
    assert main(["colourings", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["classes"]) == 1

    assert main(["surface", str(out)]) == 0
    text = capsys.readouterr().out
    assert "|" in text            # coordinate dump lines

    assert main(["bounds", str(out), "--family", "balanced-lens"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bounds"][0]["identity_lhs"] == data["bounds"][0]["identity_rhs"]


def test_moves_and_promote(tmp_path, capsys):
    src = tmp_path / "m.tri"
    main(["construct", "family", "--tag", "M", "-k", "1", "-m", "1", "-n", "1",
          "-o", str(src)])
    out = tmp_path / "p.tri"
    assert main(["promote", str(src), "-o", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["flips"]
    tri = parse(out.read_text())
    assert tri.tet_count == 8

    bigger = tmp_path / "b.tri"
    tri0 = parse(src.read_text())
    face = next(fc.index for fc in tri0.skeleton.face_classes
                if tri0.gluing(*fc.slots[0])[0] != fc.slots[0][0])
    assert main(["moves", str(src), "--move", "23", "--face", str(face),
                 "-o", str(bigger)]) == 0
    assert parse(bigger.read_text()).tet_count == 9


def test_lgraph_and_enumerate(capsys):
    assert main(["lgraph", "--depth", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["nodes"]) == 7

    assert main(["enumerate-lens", "--depth", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert any(f["classification"] == "balanced" for f in data["families"])


def test_verify_filter(capsys):
    assert main(["verify", "--quick", "--only", "one_tet"]) == 0
    out = capsys.readouterr().out
    assert "PASS one_tet_folds" in out


def test_exit_codes(tmp_path):
    code, _, err = run_cli(["construct", "lst", "--p", "2", "--q", "4",
                            "-o", str(tmp_path / "x.tri")])
    assert code == 1 and "coprime" in err
    code, _, _ = run_cli(["bogus-subcommand"])
    assert code == 2


def test_corrupted_file_pinpoints_line(tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 2\ntet 0: 1:0123 - - -\ntet 1: - - - -\n")
    code, _, err = run_cli(["analyze", str(bad)])
    assert code == 1 and "line 2" in err and "non-involutive" in err


def test_reports_are_deterministic(tmp_path):
    out = tmp_path / "q.tri"
    main(["construct", "loop", "--n", "6", "--twisted", "-o", str(out)])
    r1 = run_cli(["analyze", str(out)])
    r2 = run_cli(["analyze", str(out)])
    assert r1 == r2


def test_round_trip_canonical_emission(tmp_path):
    tri, _ = build.seifert_family("M", 1, 1, 1)
    text = serialize(tri)
    assert serialize(parse(text)) == text


def test_reports_validate_against_published_schema(tmp_path, capsys):
    import jsonschema
    from trinorm.cli import report_schema
    schema = report_schema()
    cases = [
        ["construct", "family", "--tag", "M'", "-k", "1", "-m", "2", "-n", "1"],
        ["construct", "loop", "--n", "6", "--twisted"],
        ["fold", "--p", "1", "--q", "6", "--edge", "q"],
    ]
    for i, cmd in enumerate(cases):
        out = tmp_path / f"case{i}.tri"
        main([*cmd, "-o", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema)


ERROR_CASES = {
    "surface class past the end": (["surface", "LENS", "--class", "7"], 1),
    "surface negative class": (["surface", "LENS", "--class", "-1"], 1),
    "promote class past the end": (["promote", "M111", "--class", "9",
                                    "-o", "OUT"], 1),
    "surface b edge past the end": (["surface", "LENS", "--b", "99"], 1),
    "bounds class past the end": (["bounds", "LENS", "--class", "7"], 1),
    "moves edge past the end": (["moves", "M111", "--move", "32",
                                 "--edge", "999", "-o", "OUT"], 1),
    "missing input file": (["analyze", "NOFILE"], 1),
    "unknown fold style": (["construct", "augmented", "--annulus", "fold:weird",
                            "--annulus", "fold:cross", "--annulus",
                            "lst:5,1,6", "-o", "OUT"], 1),
    "moves 23 without face": (["moves", "M111", "--move", "23",
                               "-o", "OUT"], 2),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    main(["fold", "--p", "1", "--q", "6", "--edge", "q",
          "-o", str(d / "lens.tri")])
    main(["construct", "family", "--tag", "M", "-k", "1", "-m", "1", "-n", "1",
          "-o", str(d / "m111.tri")])
    return {"LENS": str(d / "lens.tri"), "M111": str(d / "m111.tri"),
            "OUT": str(d / "out.tri"), "NOFILE": str(d / "missing.tri")}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_contract(case, cli_inputs):
    argv, expected = ERROR_CASES[case]
    code, _, err = run_cli([cli_inputs.get(a, a) for a in argv])
    assert code == expected
    assert err.startswith("error: ") and "Traceback" not in err
