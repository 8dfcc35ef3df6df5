"""The long criteria of ``trinorm verify`` walk their grids in two shares,
share 1 in a forked child when more than one CPU is usable: together the
shares are the serial walk, the forked and in-process paths report the
same, share 0's first failure wins over share 1's, a failure inside a
child reaches the report, each split criterion of a run forks one child,
and no child outlives its criterion.
"""

import copy
import importlib
import inspect
import multiprocessing
import os
import pickle
import pkgutil
import subprocess
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import trinorm
from trinorm import build, cli, homology, surface, verifysuite
from trinorm.analyze import PromotionObstruction
from trinorm.cli import UsageError, _StdoutClosed
from trinorm.surface import CoordinateError
from trinorm.triangulation import (GluingError, ParseError,
                                   TriangulationError)

from test_surface import _octagon_formula_modifications

SHARED = ("lst_counts", "fold_homology", "chi_two_methods",
          "octagon_formula", "moves", "lst_recognition")


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(verifysuite, "_usable_cpus", lambda: cpus)


def _no_child_left():
    """No child process is running, and none is left unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _path(monkeypatch, forked):
    """Within the block a direct ``check_*`` call takes the forked path
    (share 1 in a child, even on one CPU) or the in-process one."""
    _cpus(monkeypatch, 2 if forked else 1)
    verifysuite._forking = True
    try:
        yield
    finally:
        verifysuite._forking = False
    _no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The number of processes forked so far; a criterion forks its child
    through ``os.fork``."""
    count = [0]
    real = os.fork

    def counted():
        count[0] += 1
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return lambda: count[0]


@pytest.mark.parametrize("depth", range(1, 10))
def test_shares_are_the_walk(depth):
    whole = [(node, tri.gluings) for node, tri, _ in build.lst_tree(depth)]
    shares = [(node, tri.gluings) for share in (0, 1)
              for node, tri, _ in build.lst_tree(depth, share)]
    assert shares == whole
    whole = [(node, w, folded.gluings)
             for node, w, folded in verifysuite._lens_grid(depth)]
    shares = [(node, w, folded.gluings) for share in (0, 1)
              for node, w, folded in verifysuite._lens_grid(depth, share)]
    assert shares == whole


def test_share_zero_holds_the_root_and_the_first_child():
    assert [node.depth for node, _, _ in build.lst_tree(1, 1)] == []
    first = [(node.p, node.q) for node, _, _ in build.lst_tree(2, 0)]
    second = [(node.p, node.q) for node, _, _ in build.lst_tree(2, 1)]
    assert (first, second) == ([(1, 2), (1, 3)], [(2, 3)])
    for share in (2, -1, "0", True, 1.0):
        with pytest.raises(TriangulationError, match="^no share"):
            next(build.lst_tree(3, share))


# the grids dealt alternately, as fresh serial streams of comparable items
STREAMS = {
    "octagon": lambda quick: (
        (name, tri.gluings, canon, b)
        for name, tri, canon, b in verifysuite._octagon_items(quick)),
    "round_trips": lambda quick: (
        (tri.gluings, faces)
        for tri, faces in verifysuite._round_trips(quick)),
    "family": verifysuite._family_params,
    "mm": lambda quick: verifysuite._mm_params(("M", "MPRIME"), quick),
}


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("stream", STREAMS)
def test_dealt_shares_interleave_to_the_serial_stream(stream, quick):
    shares = [list(verifysuite._dealt(STREAMS[stream](quick), share))
              for share in (0, 1)]
    merged = [None] * (len(shares[0]) + len(shares[1]))
    merged[0::2], merged[1::2] = shares
    assert merged == list(STREAMS[stream](quick))


@pytest.mark.parametrize("quick", [True, False])
def test_octagon_items_are_the_modifications(quick):
    items = [(tri.gluings, canon, b)
             for _, tri, canon, b in verifysuite._octagon_items(quick)]
    whole = [(tri.gluings, canon, b)
             for tri, canon, b in _octagon_formula_modifications(quick)]
    assert items == whole
    assert len(whole) == (82 if quick else 4196)


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("name", SHARED)
def test_pooled_path_reports_as_the_in_process_path(monkeypatch, name,
                                                    quick):
    check = dict(verifysuite.CHECKS)[name]
    results = []
    for forked in (True, False):
        with _path(monkeypatch, forked):
            results.append(check(quick=quick))
    # outside a run a direct call walks its shares in process
    _cpus(monkeypatch, 2)
    results.append(check(quick=quick))
    _no_child_left()
    assert results[0] == results[1] == results[2]
    assert results[0][0], results[0][1]


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("name", SHARED)
def test_a_run_reports_alike_on_any_number_of_cpus(monkeypatch, name, quick):
    summaries = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        summary = verifysuite.run(only=name, quick=quick)
        _no_child_left()
        del summary["elapsed_ns"]
        summaries.append(summary)
    assert summaries[0] == summaries[1] == summaries[2]
    assert summaries[0]["passed"] == len(summaries[0]["lines"]) == 1


def _quick_folds(share):
    return list(verifysuite._lens_grid(6, share))


def test_first_failure_in_walker_order_wins(monkeypatch):
    # misreport the last fold of share 0 and the first of share 1: share 1
    # finds its failure first, but the serial walk reports share 0's
    node0, w0, fold0 = _quick_folds(0)[-1]
    node1, w1, fold1 = _quick_folds(1)[0]
    real = homology.first_homology

    def misreported(tri):
        if tri.gluings in (fold0.gluings, fold1.gluings):
            return SimpleNamespace(betti=0, order=-1)
        return real(tri)

    monkeypatch.setattr(homology, "first_homology", misreported)
    p, q = node0.p, node0.q
    expect = {p: 2 * q + p, q: 2 * p + q, p + q: abs(p - q)}[w0]
    for forked in (True, False):
        with _path(monkeypatch, forked):
            assert verifysuite.check_fold_homology(quick=True) == (
                False, f"fold of {p}/{q} along {w0}: |H1| = -1, "
                       f"expected {expect}")


def test_first_octagon_failure_in_serial_order_wins(monkeypatch):
    # the last modification dealt to share 0 and the first dealt to share 1
    # both fail: share 1's comes first in the grid, but the shares are read
    # in order, share 0 then share 1
    last = list(verifysuite._dealt(verifysuite._octagon_items(True), 0))[-1]
    first = next(verifysuite._dealt(verifysuite._octagon_items(True), 1))
    bad = {(tri.gluings, b) for _, tri, _, b in (last, first)}
    real = surface.b_modification

    def failing(tri, canon, b):
        if (tri.gluings, b) in bad:
            raise AssertionError(f"formula fails at {b}")
        return real(tri, canon, b)

    monkeypatch.setattr(surface, "b_modification", failing)
    for forked in (True, False):
        with _path(monkeypatch, forked):
            assert verifysuite.check_octagon_formula(quick=True) == (
                False, f"{last[0]}: formula fails at {last[3]}")


def test_an_exception_in_a_worker_reaches_the_report(monkeypatch):
    _, _, fold1 = _quick_folds(1)[0]
    real = homology.first_homology

    def raising(tri):
        if tri.gluings == fold1.gluings:
            raise GluingError("facet 2 of tetrahedron 1 glued twice", (1, 2))
        return real(tri)

    monkeypatch.setattr(homology, "first_homology", raising)
    lines = []
    for forked in (True, False):
        with _path(monkeypatch, forked):
            with pytest.raises(GluingError) as caught:
                verifysuite.check_fold_homology(quick=True)
        assert caught.value.slot == (1, 2)
        lines.append(verifysuite.run(only="fold_homology",
                                     quick=True)["lines"])
        _no_child_left()
    assert lines[0] == lines[1] == [
        "FAIL fold_homology: raised facet 2 of tetrahedron 1 glued twice"]


def test_a_worker_that_dies_fails_its_criterion(monkeypatch, capfd):
    parent = os.getpid()
    real = homology.first_homology

    def dying(tri):
        if os.getpid() != parent:
            os._exit(3)
        return real(tri)

    monkeypatch.setattr(homology, "first_homology", dying)
    _cpus(monkeypatch, 2)
    assert cli.main(["verify"]) == 1
    _no_child_left()
    out, err = capfd.readouterr()
    # chi_two_methods and lst_recognition reach first_homology through
    # build.seifert_family, and moves checks every move with it
    died = "a worker process died: exit code 3"
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {name}: {died}" for name in (
        "fold_homology", "chi_two_methods", "moves", "lst_recognition")]
    assert "Traceback" not in out + err


def test_a_run_forks_its_workers_once(monkeypatch, forks):
    # one child per criterion that splits, however many CPUs are usable
    for cpus in (2, 3, 8):
        _cpus(monkeypatch, cpus)
        before = forks()
        assert verifysuite.run(quick=True)["failed"] == 0
        assert forks() - before == len(SHARED)
        _no_child_left()
        before = forks()
        assert verifysuite.run(only="lst_recognition",
                               quick=True)["failed"] == 0
        assert forks() - before == 1
        _no_child_left()


def test_a_run_with_nothing_to_share_forks_no_worker(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    summary = verifysuite.run(only="one_tet_folds")
    assert (summary["passed"], forks()) == (1, 0)
    _cpus(monkeypatch, 1)
    assert verifysuite.run(only="moves", quick=True)["passed"] == 1
    assert forks() == 0


def test_a_child_that_dies_fails_only_its_criterion(monkeypatch, tmp_path,
                                                    forks):
    # exactly one child dies, in the first criterion; the next criterion
    # forks a fresh child and passes
    parent = os.getpid()
    died = tmp_path / "died"
    ran = tmp_path / "ran"
    real = homology.first_homology

    def dying_once(tri):
        if os.getpid() != parent:
            try:
                os.close(os.open(died, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                with open(ran, "a") as log:
                    log.write(f"{os.getpid()}\n")
            else:
                os._exit(3)
        return real(tri)

    monkeypatch.setattr(homology, "first_homology", dying_once)
    check = verifysuite.check_fold_homology
    monkeypatch.setattr(verifysuite, "CHECKS", (("fold_homology", check),
                                                ("fold_homology_again",
                                                 check)))
    _cpus(monkeypatch, 2)
    lines = verifysuite.run(quick=True)["lines"]
    _no_child_left()
    assert lines == [
        "FAIL fold_homology: a worker process died: exit code 3",
        "PASS fold_homology_again: 189 folds matched the lens table to "
        "depth 6"]
    assert forks() == 2 and ran.exists()


@pytest.mark.parametrize("case", ["passes", "child dies",
                                  "share 0 fails first"])
def test_no_child_outlives_a_split_criterion(monkeypatch, case):
    parent = os.getpid()
    line = "PASS fold_homology: 189 folds matched the lens table to depth 6"
    real = homology.first_homology
    if case == "child dies":
        line = "FAIL fold_homology: a worker process died: exit code 3"
        monkeypatch.setattr(homology, "first_homology", lambda tri: (
            os._exit(3) if os.getpid() != parent else real(tri)))
    elif case == "share 0 fails first":
        # the child stalls for 20 s at its first fold: it is killed, not
        # waited for
        node, w, fold = _quick_folds(0)[0]
        p, q = node.p, node.q
        expect = {p: 2 * q + p, q: 2 * p + q, p + q: abs(p - q)}[w]
        line = (f"FAIL fold_homology: fold of {p}/{q} along {w}: "
                f"|H1| = -1, expected {expect}")
        stalls = [20]

        def misreported_here_slow_there(tri):
            if os.getpid() != parent and stalls:
                time.sleep(stalls.pop())
            if tri.gluings == fold.gluings:
                return SimpleNamespace(betti=0, order=-1)
            return real(tri)

        monkeypatch.setattr(homology, "first_homology",
                            misreported_here_slow_there)
    _cpus(monkeypatch, 2)
    summary = verifysuite.run(only="fold_homology", quick=True)
    _no_child_left()
    assert summary["lines"] == [line]
    assert summary["elapsed_ns"]["fold_homology"] < 10 * 10**9


def test_importing_the_package_loads_no_process_pool():
    code = ("import sys, trinorm, trinorm.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(trinorm.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def _exception_classes():
    found = set()
    for info in pkgutil.iter_modules(trinorm.__path__):
        module = importlib.import_module(f"trinorm.{info.name}")
        found |= {obj for _, obj in inspect.getmembers(module, inspect.isclass)
                  if issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__}
    return found


def _exception_samples():
    torus = build.lst(2, 5)[1]
    return [TriangulationError("depth limit must be at least 1"),
            GluingError("facet 2 of tetrahedron 1 glued twice", (1, 2)),
            ParseError("expected four gluings", line=3),
            ParseError("empty input"),
            CoordinateError("coordinates of different sizes"),
            PromotionObstruction(torus, "no 4-4 flip removes it"),
            UsageError("--only matched no criterion"),
            _StdoutClosed()]


def test_every_exception_survives_pickle_and_copy():
    samples = _exception_samples()
    assert {type(exc) for exc in samples} == _exception_classes()
    for exc in samples:
        for twin in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
            assert type(twin) is type(exc)
            assert str(twin) == str(exc)
            for attr in ("slot", "line", "torus", "reason"):
                assert getattr(twin, attr, None) == getattr(exc, attr, None)
