"""The fraction-tree criteria of ``trinorm verify`` walk the tree in
shares, in forked worker processes when more than one CPU is usable: the
shares are the walk, the pooled and in-process paths report the same, and
a failure inside a worker reaches the report as the serial walk gives it.
"""

import copy
import importlib
import inspect
import multiprocessing
import os
import pickle
import pkgutil
from types import SimpleNamespace

import pytest

import trinorm
from trinorm import build, cli, homology, verifysuite
from trinorm.analyze import PromotionObstruction
from trinorm.cli import UsageError, _StdoutClosed
from trinorm.surface import CoordinateError
from trinorm.triangulation import (GluingError, ParseError,
                                   TriangulationError)

SHARED = ("lst_counts", "fold_homology", "chi_two_methods")


def _pooled(monkeypatch, pooled):
    """Take the pooled path (two workers, even on one CPU) or the
    in-process one."""
    monkeypatch.setattr(verifysuite, "_usable_cpus",
                        lambda: 2 if pooled else 1)


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
    for share in (2, -1, "0"):
        with pytest.raises(TriangulationError, match="^no share"):
            next(build.lst_tree(3, share))


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("name", SHARED)
def test_pooled_path_reports_as_the_in_process_path(monkeypatch, name,
                                                    quick):
    check = dict(verifysuite.CHECKS)[name]
    results = []
    for pooled in (True, False):
        _pooled(monkeypatch, pooled)
        results.append(check(quick=quick))
        assert multiprocessing.active_children() == []
    assert results[0] == results[1]
    assert results[0][0], results[0][1]


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
    for pooled in (True, False):
        _pooled(monkeypatch, pooled)
        assert verifysuite.check_fold_homology(quick=True) == (
            False, f"fold of {p}/{q} along {w0}: |H1| = -1, "
                   f"expected {expect}")
        assert multiprocessing.active_children() == []


def test_an_exception_in_a_worker_reaches_the_report(monkeypatch):
    _, _, fold1 = _quick_folds(1)[0]
    real = homology.first_homology

    def raising(tri):
        if tri.gluings == fold1.gluings:
            raise GluingError("facet 2 of tetrahedron 1 glued twice", (1, 2))
        return real(tri)

    monkeypatch.setattr(homology, "first_homology", raising)
    lines = []
    for pooled in (True, False):
        _pooled(monkeypatch, pooled)
        with pytest.raises(GluingError) as caught:
            verifysuite.check_fold_homology(quick=True)
        assert caught.value.slot == (1, 2)
        lines.append(verifysuite.run(only="fold_homology",
                                     quick=True)["lines"])
        assert multiprocessing.active_children() == []
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
    _pooled(monkeypatch, True)
    assert cli.main(["verify"]) == 1
    assert multiprocessing.active_children() == []
    out, err = capfd.readouterr()
    # chi_two_methods reaches first_homology through build.seifert_family
    died = ("a worker process died: A process in the process pool was "
            "terminated abruptly while the future was running or pending.")
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL fold_homology: {died}",
                      f"FAIL chi_two_methods: {died}"]
    assert "Traceback" not in out + err


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
