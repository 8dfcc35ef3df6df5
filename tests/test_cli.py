"""Command line flows: construction, analysis, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trinorm import build, cli, verifysuite
from trinorm.cli import main
from trinorm.perm import ALL_PERMS
from trinorm.triangulation import (EDGE_VERTICES, FACET_VERTICES,
                                   TriangulationError, parse, serialize)
from test_skeleton import gluing_tables
from test_surface import NON_ORIENTABLE_TRI


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


def test_bounds_certificate_checks_the_family(tmp_path, capsys):
    out = tmp_path / "loop.tri"
    main(["construct", "loop", "--n", "6", "--twisted", "-o", str(out)])
    capsys.readouterr()
    assert main(["bounds", str(out), "--family", "balanced-lens"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["certified"] is False
    assert cert["reason"] == ("no balanced-lens member with 6 tetrahedra is "
                              "isomorphic to the input")
    assert main(["bounds", str(out), "--family", "Q"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["certified"] is True and "reason" not in cert


def test_bounds_accepts_every_family_spelling(tmp_path, capsys):
    # the spellings construct accepts name the same family in bounds, and
    # the certificate reports the canonical one
    out = tmp_path / "mprime.tri"
    assert main(["construct", "family", "--tag", "M'", "-k", "1", "-m", "1",
                 "-n", "1", "-o", str(out)]) == 0
    capsys.readouterr()
    outputs = []
    for family in ("MPRIME", "M'", "M\u2032", "mprime"):
        assert main(["bounds", str(out), "--family", family]) == 0
        outputs.append(capsys.readouterr().out)
        cert = json.loads(outputs[-1])["certificate"]
        assert cert["certified"] is True and cert["family"] == "MPRIME"
    assert len(set(outputs)) == 1
    assert main(["bounds", str(out), "--family", "M\u2033"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["certified"] is False and cert["family"] == "M\u2033"
    assert cert["reason"].startswith("unknown family 'M\u2033'")


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
    face = next(c for c, x in enumerate(tri0.skeleton.face_first)
                if tri0.gluing(*divmod(x, 4))[0] != x // 4)
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


def test_verify_times_each_criterion_on_stderr(capsys):
    assert main(["verify", "--quick"]) == 0
    captured = capsys.readouterr()
    # stdout as it was before the timings existed
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        "e2edc0971d42d37153fe70f9b0fb420b66b7377dff7a251f2b8331f2d177fb44"
    lines = captured.err.splitlines()
    assert [line.split()[0] for line in lines] == \
        [name for name, _ in verifysuite.CHECKS]
    assert all(re.fullmatch(r"\S+ \d+\.\d{3}", line) for line in lines)


def test_exit_codes(tmp_path):
    code, _, err = run_cli(["construct", "lst", "--p", "2", "--q", "4",
                            "-o", str(tmp_path / "x.tri")])
    assert code == 1 and "coprime" in err
    code, _, _ = run_cli(["bogus-subcommand"])
    assert code == 2


def test_bare_fold_takes_the_library_default(tmp_path):
    rest = ["--annulus", "fold:cross", "--annulus", "lst:5,1,6"]
    written = {}
    for spec in ("fold", "fold:cross"):
        out = tmp_path / f"{spec.replace(':', '-')}.tri"
        code, _, err = run_cli(["construct", "augmented", "--annulus", spec,
                                *rest, "-o", str(out)])
        assert (code, err) == (0, "")
        written[spec] = out.read_text()
    assert written["fold"] == written["fold:cross"]
    assert parse(written["fold"]).tet_count > 0
    out = tmp_path / "straight.tri"
    code, stdout, err = run_cli(["construct", "augmented", "--annulus",
                                 "fold:straight", *rest, "-o", str(out)])
    assert code == 1 and stdout == "" and err.startswith("error: ")
    assert not out.exists()


def test_header_only_file_stops_at_the_first_missing_tetrahedron(tmp_path):
    # the claimed count is never walked, so this costs no memory
    path = tmp_path / "huge.tri"
    path.write_text("tri 1000000000\n")
    code, out, err = run_cli(["analyze", str(path)])
    assert (code, out, err) == (
        1, "", "error: missing entry for tetrahedron 0\n")
    path.write_text("tri 1000000000\ntet 0: - - - -\n")
    code, _, err = run_cli(["analyze", str(path)])
    assert (code, err) == (1, "error: missing entry for tetrahedron 1\n")


def test_corrupted_file_pinpoints_line(tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 2\ntet 0: 1:0123 - - -\ntet 1: - - - -\n")
    code, _, err = run_cli(["analyze", str(bad)])
    assert code == 1 and "line 2" in err and "non-involutive" in err


# closed, one vertex, with an edge identified with itself reversed
INVALID_EDGE_TRI = """tri 4
tet 0: 1:2103 1:0321 3:3012 3:1320
tet 1: 2:2103 2:0321 0:2103 0:0321
tet 2: 3:2103 3:0321 1:2103 1:0321
tet 3: 0:3021 0:1230 2:2103 2:0321
"""


# every command that reads a .tri file, with the options it needs
FILE_COMMANDS = {
    "analyze": [], "bounds": [], "colourings": [], "find-lst": [],
    "surface": [], "twisted-squares": [],
    "moves": ["--move", "32", "--edge", "0", "-o", "{out}"],
    "promote": ["-o", "{out}"],
    "fold": ["--edge", "p", "-o", "{out}"],
    "construct fold": ["--edge", "p", "-o", "{out}"],
}


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_invalid_edge_is_a_domain_error(command, tmp_path, capsys):
    path = tmp_path / "invalid.tri"
    path.write_text(INVALID_EDGE_TRI)
    tri = parse(INVALID_EDGE_TRI)
    assert tri.is_closed and tri.skeleton.vertex_count == 1
    assert not tri.is_valid
    out = tmp_path / "out.tri"
    extra = [a.format(out=out) for a in FILE_COMMANDS[command]]
    assert main(command.split() + [str(path)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: homology requires all edges valid "
                            "(no reversed self-gluing)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_file_that_is_not_utf8_is_named(command, tmp_path, capsys):
    path = tmp_path / "latin1.tri"
    path.write_bytes(b"tri 1\ntet 0: - - - -\n# \xff\n")
    out = tmp_path / "out.tri"
    extra = [a.format(out=out) for a in FILE_COMMANDS[command]]
    assert main(command.split() + [str(path)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {path}: not UTF-8 text\n"
    assert not out.exists()


# closed, valid, one vertex, no self-glued facet, and not a manifold: two
# edge classes for two tetrahedra, so V - E + T = 1 and the vertex link is
# not a sphere
NON_MANIFOLD_TRI = """tri 2
tet 0: 1:0213 1:3102 1:3120 1:2013
tet 1: 0:0213 0:2130 0:3120 0:1203
"""


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_closed_non_manifold_is_a_domain_error(command, tmp_path, capsys):
    path = tmp_path / "non_manifold.tri"
    path.write_text(NON_MANIFOLD_TRI)
    tri = parse(NON_MANIFOLD_TRI)
    sk = tri.skeleton
    assert tri.is_closed and tri.is_valid and not sk.self_glued_facets
    assert (sk.vertex_count, sk.edge_count, tri.tet_count) == (1, 2, 2)
    out = tmp_path / "out.tri"
    extra = [a.format(out=out) for a in FILE_COMMANDS[command]]
    assert main(command.split() + [str(path)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: not a 3-manifold: a vertex link is not "
                            "a sphere\n")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_empty_triangulation_is_a_domain_error(command, tmp_path, capsys):
    path = tmp_path / "empty.tri"
    path.write_text("tri 0\n")
    tri = parse(path.read_text())
    assert tri.tet_count == 0 and tri.is_closed and tri.is_valid
    out = tmp_path / "out.tri"
    extra = [a.format(out=out) for a in FILE_COMMANDS[command]]
    assert main(command.split() + [str(path)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not a 3-manifold: no tetrahedra\n"
    assert not out.exists()


def _link_euler_characteristics(tri):
    """Each vertex link's Euler characteristic, counted cell by cell: its
    vertices are the edge ends at the vertex, its edges the face corners
    and its triangles the tetrahedron corners."""
    sk = tri.skeleton
    chi = [0] * sk.vertex_count
    for x in sk.edge_first:
        t, ei = divmod(x, 6)
        for v in EDGE_VERTICES[ei]:
            chi[sk.vertex_class[4 * t + v]] += 1
    for x in sk.face_first:
        t, f = divmod(x, 4)
        for v in FACET_VERTICES[f]:
            chi[sk.vertex_class[4 * t + v]] -= 1
    for c in sk.vertex_class:
        chi[c] += 1
    return chi


@settings(max_examples=200, deadline=None)
@given(tri=gluing_tables(kinds=("pair",)))
def test_load_rejects_exactly_the_closed_non_manifolds(tri, fuzz_dir):
    path = fuzz_dir / "closed.tri"
    path.write_text(serialize(tri))
    if not tri.is_valid:
        with pytest.raises(TriangulationError, match="edges valid"):
            cli._load(path)
        return
    links = _link_euler_characteristics(tri)
    sk = tri.skeleton
    assert sum(links) == 2 * sk.edge_count - 2 * tri.tet_count
    if all(chi == 2 for chi in links):
        assert cli._load(path) == tri
    else:
        with pytest.raises(TriangulationError, match="not a 3-manifold"):
            cli._load(path)


def test_parser_is_built_once_and_dispatches_by_name(tmp_path, monkeypatch,
                                                     capsys):
    from trinorm import cli
    built = []
    make = cli.make_parser

    def counted():
        built.append(1)
        return make()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "make_parser", counted)
    tri, _ = build.lst(2, 3)
    path = tmp_path / "lst.tri"
    path.write_text(serialize(tri))
    assert main(["find-lst", str(path)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze",
                        lambda args: seen.append(args.input) or 7)
    assert main(["analyze", str(path)]) == 7
    assert built == [1] and seen == [str(path)]
    capsys.readouterr()


def test_analyze_counts_and_searches_once(tmp_path, monkeypatch, capsys):
    from trinorm import analyze, surface
    from trinorm import homology
    calls = {"euler_char": 0, "edge_weights": 0, "find_maximal_lsts": 0,
             "first_homology": 0}

    def counted(module, name):
        original = getattr(module, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, run)

    counted(surface, "euler_char")
    counted(surface, "edge_weights")
    counted(analyze, "find_maximal_lsts")
    counted(homology, "first_homology")
    # L(10,1): one colouring class, and degree-3 edges for the lint
    tri, _, _ = build.lens_space(1, 8)
    path = tmp_path / "lens.tri"
    path.write_text(serialize(tri))
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["classes"]) == 1 and report["lint"]["degree_3"]
    # the canonical surface is counted once, its edge weights are checked
    # once, and the lint reuses the tori the report found
    assert calls == {"euler_char": 1, "edge_weights": 1,
                     "find_maximal_lsts": 1, "first_homology": 1}

    tri, _ = build.seifert_family("M", 1, 2, 1)
    path.write_text(serialize(tri))
    calls["edge_weights"] = 0
    assert main(["analyze", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["classes"]) == 1
    assert calls["edge_weights"] == 1

    # L(4,1) on one tetrahedron has a degree-2 edge, which the lint
    # labels from the homology the report computed
    tri, _, record = build.lens_space(1, 2)
    assert (tri.tet_count, record.lens_a) == (1, 4)
    path.write_text(serialize(tri))
    calls["first_homology"] = 0
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lint"]["degree_2"] == [
        {"edge": 1, "classification": "lens_order_4_exception"}]
    assert calls["first_homology"] == 1


def test_surface_counts_the_canonical_surface_once(tmp_path, monkeypatch,
                                                   capsys):
    from trinorm import surface
    calls = []
    euler_char = surface.euler_char

    def counted(*args, **kwargs):
        calls.append(args[1])
        return euler_char(*args, **kwargs)

    monkeypatch.setattr(surface, "euler_char", counted)
    tri, _, _ = build.lens_space(1, 8)
    path = tmp_path / "lens.tri"
    path.write_text(serialize(tri))
    assert main(["surface", str(path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    # the report prints the chi the canonical surface was counted with
    assert len(calls) == 1
    assert report["chi"] == report["chi_formula"] == euler_char(tri, calls[0])
    # a b-modification is counted once, by its own check, and the report
    # prints that chi
    even = report["cocycle"].index("0")
    assert main(["surface", str(path), "--b", str(even)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert len(calls) == 3 and calls[1] == calls[0] != calls[2]
    assert report["chi"] == euler_char(tri, calls[-1]) == \
        report["chi_formula"] - 2 * report["octagons"] + 2


def _count_calls(monkeypatch, calls, name, *modules):
    """Count the calls of ``name`` through each module that binds it."""
    original = getattr(modules[0], name)

    def run(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, run)


def test_bounds_and_analyze_derive_each_class_once(tmp_path, monkeypatch,
                                                   capsys):
    from trinorm import analyze, cocycle, homology, surface
    calls = dict.fromkeys(("all_nonzero_classes", "first_homology",
                           "classify_tetrahedra"), 0)
    _count_calls(monkeypatch, calls, "all_nonzero_classes", cocycle, analyze)
    _count_calls(monkeypatch, calls, "first_homology", homology)
    _count_calls(monkeypatch, calls, "classify_tetrahedra",
                 cocycle, analyze, surface)
    # M'(1,1,1): three classes, each with quad and tri tetrahedra
    tri, _ = build.seifert_family("MPRIME", 1, 1, 1)
    path = tmp_path / "mp.tri"
    path.write_text(serialize(tri))
    # the one member that --family rebuilds checks its own homology
    for argv, homologies in (([], 1), (["--class", "1", "--k-phi", "2"], 1),
                             (["--family", "MPRIME"], 2)):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["bounds", str(path), *argv]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["certificate"]["classes"]) == 3
        assert calls == {"all_nonzero_classes": 1,
                         "first_homology": homologies,
                         "classify_tetrahedra": 3}
    calls.update(dict.fromkeys(calls, 0))
    assert main(["analyze", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["classes"]) == 3
    assert calls["classify_tetrahedra"] == 3


def test_bounds_reports_a_bounded_input_before_homology(tmp_path, capsys):
    tri, _ = build.lst(2, 3)
    path = tmp_path / "lst.tri"
    path.write_text(serialize(tri))
    for argv in ([], ["--class", "0"], ["--family", "M"]):
        assert main(["bounds", str(path), *argv]) == 1
        assert capsys.readouterr() == (
            "", "error: cocycles require a closed triangulation\n")


def test_closed_stdout_pipe_exits_one_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trinorm.cli", "lgraph", "--depth", "6"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_a_broken_pipe_off_stdout_is_an_error_line(monkeypatch, capsys):
    # a pipe that breaks elsewhere (an output file that is a FIFO, say)
    # is reported, and stdout is left alone
    def broken(args):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(cli, "cmd_lgraph", broken)
    assert main(["lgraph", "--depth", "1"]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 32] Broken pipe\n")


def test_running_out_of_memory_is_an_error_line(tmp_path):
    # a 300 MiB address-space limit, set in the child process only, is too
    # small for three million tetrahedra
    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "trinorm.cli", "construct", "loop", "--n",
         "3000000", "--twisted", "-o", str(tmp_path / "big.tri")],
        preexec_fn=limited, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_sidecar_that_runs_out_of_memory_takes_its_tri_along(
        tmp_path, monkeypatch, capsys):
    def exhausted(obj, depth=0):
        raise MemoryError
    monkeypatch.setattr(cli, "_dumps", exhausted)
    assert main(["construct", "lst", "--p", "1", "--q", "3",
                 "-o", str(tmp_path / "t.tri")]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []


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
    # in a non-orientable manifold the surface's orientability is null
    out = tmp_path / "non_orientable.tri"
    out.write_text(NON_ORIENTABLE_TRI)
    assert main(["analyze", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, schema)
    assert report["orientable"] is False
    assert [c["surface"]["orientable"] for c in report["classes"]] == [None]


# JSON trees for the writer: ints past 64 bits, the three constants,
# floats, strs with the characters the encoder escapes or that look like
# its syntax, keys that sort differently as numbers, and empty and nested
# lists, tuples and dicts at every depth
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\,[]{}:\n\t'),
                               st.characters()), max_size=6)
_JSON_SCALARS = st.one_of(st.integers(-2 ** 80, 2 ** 80),
                          st.sampled_from([True, False, None]),
                          st.floats(), _JSON_TEXT)
_JSON_TREES = st.recursive(_JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.sampled_from(["10", "9", ""]), _JSON_TEXT),
                    children, max_size=4)), max_leaves=30)


def _indented(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


@settings(max_examples=400, deadline=None)
@given(_JSON_TREES)
def test_writer_matches_indented_json_dumps(obj):
    assert cli._dumps(obj) == _indented(obj)


def test_writer_without_the_c_encoder(monkeypatch):
    # where json has no C encoder, the per-depth encoders are json's own
    monkeypatch.setattr(cli, "c_make_encoder", None)
    monkeypatch.setattr(cli, "_FLAT_ENCODERS", [])
    for obj in ([], {}, [[]], (1, ("a", None)), {"10": [1.5], "9": {}},
                [{"b": [True, -2 ** 70], "a": "\u00e9\n"}, [[], [[{}]]]]):
        assert cli._dumps(obj) == _indented(obj)
    assert cli._FLAT_ENCODERS


def test_writer_rejects_what_json_dumps_rejects():
    # unsupported values, at the top, in a container with no container
    # inside and in one with, raise json's TypeError
    for obj in (object(), [object()], [[1], {1, 2}], {"a": [{(1, 2): 0}]},
                {"a": {1, 2}, "b": [1]}):
        with pytest.raises(TypeError) as want:
            _indented(obj)
        with pytest.raises(TypeError) as got:
            cli._dumps(obj)
        assert str(got.value) == str(want.value)
    # a key that is no str raises TypeError too
    with pytest.raises(TypeError):
        _indented({(1, 2): [1]})
    with pytest.raises(TypeError):
        cli._dumps({(1, 2): [1]})


def test_sidecar_is_written_by_the_writer(tmp_path, capsys):
    out = tmp_path / "f.tri"
    main(["fold", "--p", "7", "--q", "31", "--edge", "pq", "-o", str(out)])
    report = capsys.readouterr().out
    text = out.with_suffix(".meta.json").read_text()
    for written in (text, report):
        assert written == _indented(json.loads(written)) + "\n"


ERROR_CASES = {
    "surface class past the end": (["surface", "LENS", "--class", "7"], 1),
    "surface negative class": (["surface", "LENS", "--class", "-1"], 1),
    "promote class past the end": (["promote", "M111", "--class", "9",
                                    "-o", "OUT"], 1),
    "surface b edge past the end": (["surface", "LENS", "--b", "99"], 1),
    "surface b not a number": (["surface", "LENS", "--b", "x"], 2),
    "analyze negative k-phi": (["analyze", "LENS", "--k-phi", "-3"], 2),
    "bounds negative k-phi": (["bounds", "LENS", "--k-phi", "-1"], 2),
    "bounds class past the end": (["bounds", "LENS", "--class", "7"], 1),
    "moves edge past the end": (["moves", "M111", "--move", "32",
                                 "--edge", "999", "-o", "OUT"], 1),
    "moves axis out of range": (["moves", "M111", "--move", "44",
                                 "--edge", "0", "--axis", "2", "-o", "OUT"],
                                2),
    "missing input file": (["analyze", "NOFILE"], 1),
    "unknown fold style": (["construct", "augmented", "--annulus", "fold:weird",
                            "--annulus", "fold:cross", "--annulus",
                            "lst:5,1,6", "-o", "OUT"], 1),
    "moves 23 without face": (["moves", "M111", "--move", "23",
                               "-o", "OUT"], 2),
    # an option the chosen move or family ignores
    "moves 23 with an edge": (["moves", "M111", "--move", "23", "--face",
                               "0", "--edge", "0", "-o", "OUT"], 2),
    "moves 32 with a face": (["moves", "M111", "--move", "32", "--edge",
                              "0", "--face", "0", "-o", "OUT"], 2),
    "moves 44 with a face": (["moves", "M111", "--move", "44", "--edge",
                              "3", "--axis", "1", "--face", "5",
                              "-o", "OUT"], 2),
    "construct family P with -m": (["construct", "family", "--tag", "P",
                                    "-k", "1", "-m", "2", "-o", "OUT"], 2),
    "construct family Q with -n": (["construct", "family", "--tag", "q",
                                    "-k", "4", "-n", "9", "-o", "OUT"], 2),
    "promote obstruction": (["promote", "LENS15PQ", "-o", "OUT"], 1),
    "verify only matches nothing": (["verify", "--only", "no_such_check"], 2),
    "annulus with two weights": (["construct", "augmented", "--annulus",
                                  "lst:1,2", "--annulus", "fold:cross",
                                  "--annulus", "fold:cross", "-o", "OUT"], 1),
    "annulus with non-integer weights": (
        ["construct", "augmented", "--annulus", "lst:a,b,c", "--annulus",
         "fold:cross", "--annulus", "fold:cross", "-o", "OUT"], 1),
    "annulus with a straight fold": (
        ["construct", "augmented", "--annulus", "fold:straight", "--annulus",
         "fold:cross", "--annulus", "lst:5,1,6", "-o", "OUT"], 1),
    # usage errors of fold are reported before the input file is read
    "fold with a file and --p --q": (["fold", "NOFILE", "--p", "1", "--q",
                                      "6", "--edge", "p", "-o", "OUT"], 2),
    "fold with a bad edge": (["fold", "NOFILE", "--edge", "r",
                              "-o", "OUT"], 2),
    "fold without a file or --q": (["fold", "--p", "1", "--edge", "p",
                                    "-o", "OUT"], 2),
    # an output path that cannot be written
    "construct lst into a missing directory": (
        ["construct", "lst", "--p", "3", "--q", "5", "-o", "NODIR"], 1),
    "construct lst onto a directory": (
        ["construct", "lst", "--p", "3", "--q", "5", "-o", "DIR"], 1),
    "fold into a missing directory": (
        ["fold", "--p", "1", "--q", "6", "--edge", "q", "-o", "NODIR"], 1),
    "construct family into a missing directory": (
        ["construct", "family", "--tag", "M", "-k", "1", "-m", "1", "-n", "1",
         "-o", "NODIR"], 1),
    "construct loop into a missing directory": (
        ["construct", "loop", "--n", "6", "--twisted", "-o", "NODIR"], 1),
    "promote into a missing directory": (["promote", "M111", "-o", "NODIR"],
                                         1),
    "construct lst with its sidecar path a directory": (
        ["construct", "lst", "--p", "3", "--q", "5", "-o", "SIDECAR"], 1),
}
# the cases argparse rejects: its usage line, then this error line
PARSER_ERRORS = {
    "surface b not a number":
        "trinorm surface: error: argument --b: invalid edge class list: 'x'\n",
    "analyze negative k-phi":
        "trinorm analyze: error: argument --k-phi: "
        "invalid nonnegative int value: '-3'\n",
    "bounds negative k-phi":
        "trinorm bounds: error: argument --k-phi: "
        "invalid nonnegative int value: '-1'\n",
    "moves axis out of range":
        "trinorm moves: error: argument --axis: "
        "invalid choice: 2 (choose from 0, 1)\n",
}
# the whole message, where the case pins it, with the paths of
# ``cli_inputs`` in braces
ERROR_MESSAGES = {
    "verify only matches nothing": "error: --only matched no criterion\n",
    "annulus with two weights": "error: bad annulus entry 'lst:1,2'\n",
    "annulus with non-integer weights":
        "error: bad annulus entry 'lst:a,b,c'\n",
    "annulus with a straight fold":
        "error: homology requires all edges valid (no reversed self-gluing)\n",
    "fold with a file and --p --q":
        "error: give either a .tri file or both --p and --q\n",
    "fold with a bad edge": "error: --edge must be one of p, q, pq\n",
    "moves 23 with an edge": "error: --move 23 takes no --edge\n",
    "moves 32 with a face": "error: --move 32 takes no --face\n",
    "moves 44 with a face": "error: --move 44 takes no --face\n",
    "construct family P with -m": "error: family P takes no -m or -n\n",
    "construct family Q with -n": "error: family Q takes no -m or -n\n",
    "fold without a file or --q":
        "error: give either a .tri file or both --p and --q\n",
    "construct lst into a missing directory":
        "error: cannot write {NODIR}: No such file or directory\n",
    "construct lst onto a directory":
        "error: cannot write {DIR}: Is a directory\n",
    "fold into a missing directory":
        "error: cannot write {NODIR}: No such file or directory\n",
    "construct family into a missing directory":
        "error: cannot write {NODIR}: No such file or directory\n",
    "construct loop into a missing directory":
        "error: cannot write {NODIR}: No such file or directory\n",
    "promote into a missing directory":
        "error: cannot write {NODIR}: No such file or directory\n",
    "construct lst with its sidecar path a directory":
        "error: cannot write {SIDECAR_META}: Is a directory\n",
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    main(["fold", "--p", "1", "--q", "6", "--edge", "q",
          "-o", str(d / "lens.tri")])
    main(["construct", "family", "--tag", "M", "-k", "1", "-m", "1", "-n", "1",
          "-o", str(d / "m111.tri")])
    # its supportive torus's univalent edge meets a tetrahedron twice, so
    # no 4-4 flip applies
    main(["fold", "--p", "1", "--q", "5", "--edge", "pq",
          "-o", str(d / "lens15pq.tri")])
    # a .tri that can be written next to a sidecar path that cannot
    (d / "sidecar" / "x.meta.json").mkdir(parents=True)
    return {"LENS": str(d / "lens.tri"), "M111": str(d / "m111.tri"),
            "LENS15PQ": str(d / "lens15pq.tri"),
            "OUT": str(d / "out.tri"), "NOFILE": str(d / "missing.tri"),
            "NODIR": str(d / "missing" / "out.tri"), "DIR": str(d),
            "SIDECAR": str(d / "sidecar" / "x.tri"),
            "SIDECAR_META": str(d / "sidecar" / "x.meta.json")}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_contract(case, cli_inputs):
    argv, expected = ERROR_CASES[case]
    code, out, err = run_cli([cli_inputs.get(a, a) for a in argv])
    assert code == expected
    if case in PARSER_ERRORS:
        assert err.startswith("usage: trinorm ") and out == ""
        assert err.endswith(PARSER_ERRORS[case])
    else:
        assert err.startswith("error: ")
    assert "Traceback" not in err
    if case in ERROR_MESSAGES:
        assert err == ERROR_MESSAGES[case].format_map(cli_inputs)
        assert out == ""
    # no case writes its output file or sidecar
    written = Path(cli_inputs["OUT"])
    assert not written.exists()
    assert not written.with_suffix(".meta.json").exists()
    # nor leaves a .tri behind when only its sidecar cannot be written
    assert not Path(cli_inputs["SIDECAR"]).exists()


# The stdout of the read-only reports on these inputs is pinned by sha256.
# The digests were recorded with the induced-subcomplex torus search, and
# those of surface and colourings before the surface report reused the
# canonical chi; a refactor that moves one byte of a report fails here,
# and a deliberate change of output must record new digests.
PINNED_INPUTS = {
    "fold-1-6-q": ["fold", "--p", "1", "--q", "6", "--edge", "q"],
    "fold-1-5-pq": ["fold", "--p", "1", "--q", "5", "--edge", "pq"],
    "fold-7-31-pq": ["fold", "--p", "7", "--q", "31", "--edge", "pq"],
    "M-1-2-1": ["construct", "family", "--tag", "M",
                "-k", "1", "-m", "2", "-n", "1"],
    "Mprime-1-1-1": ["construct", "family", "--tag", "M'",
                     "-k", "1", "-m", "1", "-n", "1"],
    "P-1": ["construct", "family", "--tag", "P", "-k", "1"],
    "Q-6": ["construct", "family", "--tag", "Q", "-k", "6"],
    "augmented-cross-cross-7-1-8": [
        "construct", "augmented", "--annulus", "fold:cross",
        "--annulus", "fold:cross", "--annulus", "lst:7,1,8"],
}
PINNED_COMMANDS = ("analyze", "find-lst", "bounds", "twisted-squares",
                   "surface", "colourings")
PINNED_SHA256 = {
    "fold-1-6-q analyze":
        "463bd2f33dee28bbdc1f6a4b8ea7cfaa0ec37282960d0ecd32eb34e98059c9c7",
    "fold-1-6-q find-lst":
        "76b4952b6a55890d302e6f3703b3e50696ed2ea4e9afb8fe37428d5af034970a",
    "fold-1-6-q bounds":
        "c5f5842735bd41d8e52e9a86455bb9fbf0df3edaa507a17fa378feeac20cf7be",
    "fold-1-6-q twisted-squares":
        "5b623fb2eb532d982a23f88f1ce1c6517116c2bdcb15604686f7b7831cfd4789",
    "fold-1-6-q surface":
        "a7af5d701b1f9cdefcdf55caaa12f79f67dd53ab9d1158ac0022de6b9a4744fe",
    "fold-1-6-q colourings":
        "6c9dbd2a6c95d47a28d467bd903617bc6cc6492687282c14199d9b8233a24385",
    "fold-1-5-pq analyze":
        "e286a46669f40dc4fc3835ac553b1be626dbd25d66b8007357980d00744acdb7",
    "fold-1-5-pq find-lst":
        "9902f52fc56ec0e7c0712ff612696a69be14452a1f1b60b596b6295f3d742575",
    "fold-1-5-pq bounds":
        "d907d77b73c8790c531745d264544c15d7f5432c07271014deea048b3fd4a7dd",
    "fold-1-5-pq twisted-squares":
        "561a602f67ea02df8e0dc1420ef73a8494c6a18371077f69ee0fca1e470c905e",
    "fold-1-5-pq surface":
        "474fb76105be916f18f6d1e37f67c75d7dcaac72706f3ec44cf9e88c07c9d53c",
    "fold-1-5-pq colourings":
        "020f73171587ed1f6c7fa7228ecd4bdeec4e9c57670401d934cfb7aff5c7b58e",
    "fold-7-31-pq analyze":
        "9234342c2a16523af8bf4d954489343e4f56d53c1ac3adc78734f7d163292c2e",
    "fold-7-31-pq find-lst":
        "4c7bd97f2634e28604db76df384334280d1cb1aad3f87c03ed06f2538cfea708",
    "fold-7-31-pq bounds":
        "31a664ac6ed12d2863ac093c5c88c4b32d4d85f5677bee83ad6ca7cc32d49ec8",
    "fold-7-31-pq twisted-squares":
        "ad975458318e68f33d3eb1d4ef0a1844faa41301a4ba1372f07e44e9dc43ea7f",
    "fold-7-31-pq surface":
        "551e192511cd16553ce843939725e565a8c9ce7354d2c51dad736f72c0987bdb",
    "fold-7-31-pq colourings":
        "fa53760040a5413ce7536270ecb3764e4d29e0b73108159fed400e7e10e83959",
    "M-1-2-1 analyze":
        "ebbabda6121368fa6334e65abc31bb79f0e6eb204445382d11f0266ae3f178f1",
    "M-1-2-1 find-lst":
        "f7448788c50ad82d6ba32b13c55466a2a20436c9197023e7e58cc753c6f52a72",
    "M-1-2-1 bounds":
        "688715a9160e47735b434d5f10db26dbe5c15749426c946d2255f149e549b263",
    "M-1-2-1 twisted-squares":
        "e03441b982a54f06857d01bc7d1511f797d759d98fae45d2d8fde2e6ef0ea146",
    "M-1-2-1 surface":
        "14ecf85606e578307b857ac6ff7dcda4704351b136cb944eb065fac09382c77e",
    "M-1-2-1 colourings":
        "17724d2f32dcac64aeb92c7133765a8224d136b7d30b748b02ee926d9968d036",
    "Mprime-1-1-1 analyze":
        "7bf9a8b05622b344978d2cdc1e63347b24578f88d81c73f7f2c65d25356f6fe2",
    "Mprime-1-1-1 find-lst":
        "4c2dc41c37d01aaf7bd15058f20304288daf1a0ad512a5ab8b1956f37f76a280",
    "Mprime-1-1-1 bounds":
        "c2bcbceecea796751a0d55952253c17a294214275c496ae071cf455b895c32cd",
    "Mprime-1-1-1 twisted-squares":
        "683b068f5d7bc78daaa12b2cc367de15bde700b8a216a95c41f6c25ff8292e86",
    "Mprime-1-1-1 surface":
        "8477dae920ca83c1a46590c6d010485fdbce87c4501a7af018d86101edab3fd5",
    "Mprime-1-1-1 colourings":
        "946e82e9cfc32f8e51c87515a47d16810bdef50c0dc2022504a1959448933b8b",
    "P-1 analyze":
        "76b9b0a71d0ac832d5baea3f43bfe1b8f37dc9bf2a370c26693168f77e2b45bd",
    "P-1 find-lst":
        "a8a24aa02b479cddd100b924849458b453009ca710c847f26539618572599c02",
    "P-1 bounds":
        "24ee2bd71c4b699fbf5c37f48df43efa198e014d07dfda086b85e13f5bcf69d8",
    "P-1 twisted-squares":
        "38c750fe2ebb66211b80b00c2fb40995adde249f0ef4535d60161f12e4004766",
    "P-1 surface":
        "a89c4e61c71f6ecebc1999abb2ae093d7aeccdd02e176c979140c556599a2b1e",
    "P-1 colourings":
        "616939706b29f91dcef2828314e826691deea383c4653938ce4026bcdd120d91",
    "Q-6 analyze":
        "06ee29c19f127dddf9cbf9214ff702b4f77b1f88a65f548082bd69af1ae99314",
    "Q-6 find-lst":
        "9c6b489acd32a55c681b56301cc135356bdddefa5533e1419c33f7693dd03290",
    "Q-6 bounds":
        "bae0a506f9c7c2fd3323f04c060a507cc279a552cc3b4ef47e6de267729acd1f",
    "Q-6 twisted-squares":
        "34b49d157fa8b31a225e91b8721e1add204c4cbc926b4496ef42af98295d1196",
    "Q-6 surface":
        "fe436d75369db3bcfd716aa66c33d093a3c05cadd76ec4f74181c56c4b61c077",
    "Q-6 colourings":
        "3e664d5b7a71213ec549b0382a848386552f50e51835cd6c386c9139789c7596",
    "augmented-cross-cross-7-1-8 analyze":
        "43bb6ea34f52ff9e9b0eeb945d9c0bd9473570363ec790a8dfcca91bf5c70daf",
    "augmented-cross-cross-7-1-8 find-lst":
        "85e9088f0b8cd7a0c61ad41d276534f3fe79b50af3f169003bd99c92f7e9b36f",
    "augmented-cross-cross-7-1-8 bounds":
        "b960c9dba47c324d7ff726da6d6f34a1c901d3b6ab834c723c8cfb865b310272",
    "augmented-cross-cross-7-1-8 twisted-squares":
        "683b068f5d7bc78daaa12b2cc367de15bde700b8a216a95c41f6c25ff8292e86",
    "augmented-cross-cross-7-1-8 surface":
        "408896738aec35228b24f2bcdaa2d1b6a37468dff97e5344873f62b82499115a",
    "augmented-cross-cross-7-1-8 colourings":
        "9b22d5a060b721b56de94e13aa56cc8b123c9d53ed9524f449240f7025a7ce7f",
}


@pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
def test_report_output_is_pinned(name, tmp_path, monkeypatch, capsys):
    # relative paths, so the file name the analyze report echoes is fixed
    monkeypatch.chdir(tmp_path)
    assert main([*PINNED_INPUTS[name], "-o", f"{name}.tri"]) == 0
    capsys.readouterr()
    for command in PINNED_COMMANDS:
        assert main([command, f"{name}.tri"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == PINNED_SHA256[f"{name} {command}"], command


# ----- mutated .tri files through the read-only reports ---------------------

FUZZ_COMMANDS = ("analyze", "colourings", "find-lst", "bounds",
                 "twisted-squares", "surface")


def _fuzz_bases():
    """The gluing tokens, row by row, of valid files as construct and fold
    write them."""
    tris = [build.lst(3, 7)[0], build.lens_space(1, 6, 6)[0],
            build.lens_space(1, 5, 6)[0],
            build.seifert_family("M", 1, 1, 1)[0],
            build.seifert_family("Q", 4)[0]]
    return [tuple(tuple(line.split(":", 1)[1].split())
                  for line in serialize(tri).splitlines()[1:])
            for tri in tris]


FUZZ_BASES = _fuzz_bases()


@st.composite
def mutated_tri_texts(draw):
    rows = [list(row) for row in draw(st.sampled_from(FUZZ_BASES))]
    n = len(rows)
    slots = st.tuples(st.integers(0, n - 1), st.integers(0, 3))

    def unglue(t, f):
        # an earlier junk token has no partner to free: only a well-formed
        # gluing into the file frees the facet it names
        u, _, perm = rows[t][f].partition(":")
        if (u.isdigit() and int(u) < n and len(perm) == 4
                and perm[f] in "0123"):
            rows[int(u)][int(perm[f])] = "-"
        rows[t][f] = "-"

    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("token", "swap", "unglue", "reglue")))
        (t, f), (u, g) = draw(slots), draw(slots)
        if kind == "token":
            # any token: another one of the file's, a boundary mark, or junk
            rows[t][f] = draw(st.one_of(
                st.sampled_from([tok for row in rows for tok in row]),
                st.just("-"),
                st.builds("{}:{}".format, st.integers(-1, n),
                          st.text("01234x", min_size=3, max_size=5))))
        elif kind == "swap":
            rows[t][f], rows[u][g] = rows[u][g], rows[t][f]
        else:
            unglue(t, f)
            if kind == "reglue" and (t, f) != (u, g):
                # a consistent gluing of two facets: the file stays
                # involutive but need not be a manifold any more
                unglue(u, g)
                perm = draw(st.sampled_from(
                    [p for p in ALL_PERMS if p[f] == g]))
                rows[t][f] = f"{u}:{perm.compact()}"
                rows[u][g] = f"{t}:{perm.inverse().compact()}"
    header = draw(st.sampled_from((n, n, n, n - 1, n + 1)))
    return f"tri {header}\n" + "".join(
        f"tet {i}: {' '.join(row)}\n" for i, row in enumerate(rows))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_contract(argv):
    """The command exits 0, 1 or 2, never with a traceback, and never
    fails an internal check: a loaded input is a manifold, so a failed
    check is a bug."""
    # in process: an uncaught exception here is the traceback the command
    # line would have printed
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert "internal check failed" not in err.getvalue(), \
        (argv, err.getvalue())


def _assert_exit_contract(text, path):
    """Every read-only report on the file keeps the contract."""
    path.write_text(text)
    for command in FUZZ_COMMANDS:
        _assert_contract([command, str(path)])


@st.composite
def moves_on(draw, text):
    """A move for the file and its site: a class whose degree the move
    takes (any face for 2-3, an edge of degree 3 or 4 for 3-2 or 4-4),
    any class, one past the last, or a negative index."""
    kind = draw(st.sampled_from(("23", "32", "44")))
    try:
        sk = parse(text).skeleton
        count = sk.face_count if kind == "23" else sk.edge_count
        fitting = range(count) if kind == "23" else [
            e for e, d in enumerate(sk.edge_degrees) if d == int(kind[0])]
    except TriangulationError:
        count, fitting = 0, []
    site = draw(st.one_of(
        st.sampled_from(fitting or [0]), st.integers(0, max(count - 1, 0)),
        st.integers(count, count + 3), st.integers(-3, -1)))
    return kind, site, draw(st.integers(0, 1))


def _assert_move_contract(text, path, move):
    """``moves`` with the given move and ``promote`` on the file keep the
    contract."""
    path.write_text(text)
    kind, site, axis = move
    out = str(path.with_name("out.tri"))
    _assert_contract(["moves", str(path), "--move", kind,
                      "--face" if kind == "23" else "--edge", str(site),
                      "--axis", str(axis), "-o", out])
    _assert_contract(["promote", str(path), "-o", out])


@settings(max_examples=60, deadline=None)
@given(text=mutated_tri_texts())
def test_mutated_files_keep_the_exit_contract(text, fuzz_dir):
    _assert_exit_contract(text, fuzz_dir / "mutated.tri")


@settings(max_examples=100, deadline=None)
@given(tri=st.one_of(gluing_tables(), gluing_tables(kinds=("pair",))))
def test_random_gluing_tables_keep_the_exit_contract(tri, fuzz_dir):
    # valid tables with free, self-glued and non-orientable gluings and
    # invalid edges, and closed ones that pass the input checks, so every
    # reader of the skeleton lists meets them
    _assert_exit_contract(serialize(tri), fuzz_dir / "random.tri")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), text=mutated_tri_texts())
def test_moves_on_mutated_files_keep_the_exit_contract(data, text, fuzz_dir):
    _assert_move_contract(text, fuzz_dir / "mutated.tri",
                          data.draw(moves_on(text)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       tri=st.one_of(gluing_tables(), gluing_tables(kinds=("pair",))))
def test_moves_on_random_gluing_tables_keep_the_exit_contract(data, tri,
                                                              fuzz_dir):
    # bounded tables reach the move readers with free facets, closed ones
    # with non-orientable gluings
    text = serialize(tri)
    _assert_move_contract(text, fuzz_dir / "random.tri",
                          data.draw(moves_on(text)))
