"""The long criteria of ``trinorm verify`` walk their grids in two shares,
share 1 in a forked child when more than one CPU is usable: together the
shares are the serial walk, the forked and in-process paths report the
same, share 0's first failure wins over share 1's, a failure inside a
child reaches the report, each split walk of a run forks one child, and no
child outlives its criterion.

The four tree criteria share one walk of the fraction tree per share.  The
share walkers they had each on their own are kept here, word for word, as
the serial oracle the shared walk is held to.
"""

import copy
import importlib
import inspect
import logging
import multiprocessing
import os
import pickle
import pkgutil
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import chain
from types import SimpleNamespace

import pytest

import trinorm
from trinorm import (analyze, build, cli, cocycle, homology, surface,
                     verifysuite)
from trinorm.analyze import PromotionObstruction
from trinorm.cli import UsageError, _StdoutClosed
from trinorm.surface import CoordinateError
from trinorm.triangulation import (GluingError, ParseError,
                                   TriangulationError)
from trinorm.verifysuite import _dealt, _family_params, _member, _mm_params

from test_surface import _octagon_formula_modifications

SHARED = ("lst_counts", "fold_homology", "chi_two_methods",
          "octagon_formula", "moves", "lst_recognition")
TREE = ("lst_counts", "fold_homology", "chi_two_methods", "lst_recognition")
# one child for the shared tree walk, one each for octagon_formula and moves
FORKS_PER_RUN = 3


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
    (share 1 in a child, even on one CPU) or the in-process one, walking
    for its own criterion as inside a run that did not select it."""
    _cpus(monkeypatch, 2 if forked else 1)
    verifysuite._walked = {}
    try:
        yield
    finally:
        verifysuite._walked = None
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


# The serial oracle: the share walkers of the four tree criteria as each
# walked the tree on its own, and the share-taking lens grid they read.

def _lens_grid(depth, share=None):
    """(node, w, folded) for the three folds of every fraction-tree node to
    the given depth, along p, q and p+q, in the walker's depth-first
    order; ``share`` as for ``build.lst_tree``."""
    for node, tri, meta in build.lst_tree(depth, share):
        for w in (meta.p, meta.q, meta.p + meta.q):
            folded, _ = build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)
            yield node, w, folded


def _lst_counts_share(share, depth):
    n = 0
    for node, tri, meta in build.lst_tree(depth, share):
        sk = tri.skeleton
        k = tri.tet_count
        if not (sk.vertex_count == 1 and sk.edge_count == k + 2
                and sk.face_count == 2 * k + 1 and k == node.depth):
            return n, f"counts wrong at {node.p}/{node.q}"
        n += 1
    return n, None


def _fold_homology_share(share, depth):
    n = 0
    for node, w, folded in _lens_grid(depth, share):
        p, q = node.p, node.q
        # the lens table written out: the reference the homology oracle and
        # build.fold_record are both held to
        expect = {p: 2 * q + p, q: 2 * p + q, p + q: abs(p - q)}[w]
        h = homology.first_homology(folded)
        if h.betti or h.order != expect:
            return n, (f"fold of {p}/{q} along {w}: |H1| = {h.order}, "
                       f"expected {expect}")
        n += 1
    return n, None


def _chi_two_methods_share(share, quick):
    """The family grid dealt, then the lens grid's share."""
    family = ((f"{tag}{params}", _member(tag, params))
              for tag, params in _dealt(_family_params(quick), share))
    lens = ((f"lens {node.p}/{node.q} fold {w}", folded)
            for node, w, folded in _lens_grid(5 if quick else 10, share))
    n = 0
    for label, tri in chain(family, lens):
        for phi in cocycle.all_nonzero_classes(tri):
            types = cocycle.classify_tetrahedra(tri, phi)
            census = cocycle.parity_census(tri, phi, types)
            canon = surface.canonical_surface(tri, phi, types)
            if canon.chi != surface.chi_formula(census):
                return n, f"{label}: {canon.chi} != formula"
            n += 1
    return n, None


def _lst_recognition_share(share, quick):
    """The folds along p and q of the fraction tree's share from depth 3
    on, then the M and M' grid dealt."""
    n = 0
    for node, tri, meta in build.lst_tree(6 if quick else 8, share):
        if node.depth < 3:
            continue
        for w in (meta.p, meta.q):
            folded, _ = build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)
            lsts = analyze.find_maximal_lsts(folded)
            if len(lsts) != 2:
                return n, (f"lens {node.p}/{node.q} fold {w}: "
                           f"{len(lsts)} maximal tori")
            joint = set(lsts[0].tets) & set(lsts[1].tets)
            if len(joint) != folded.tet_count - 2:
                return n, (f"lens {node.p}/{node.q}: tori meet in "
                           f"{len(joint)} tetrahedra")
            n += 1
    for tag, kmn in _dealt(_mm_params(("M", "MPRIME"), quick), share):
        tri = _member(tag, kmn)
        lsts = analyze.find_maximal_lsts(tri)
        if len(lsts) != 3:
            return n, f"{tag}{kmn}: {len(lsts)} maximal tori"
        mat = analyze.lst_intersection_matrix(tri, lsts)
        if any(mat[i][j] > 1 for i in range(3) for j in range(3) if i != j):
            return n, f"{tag}{kmn}: shared edges {mat}"
        n += 1
    return n, None


# each tree criterion's oracle walker and the argument it took
ORACLES = {
    "lst_counts": (_lst_counts_share, lambda quick: 8 if quick else 12),
    "fold_homology": (_fold_homology_share, lambda quick: 6 if quick else 10),
    "chi_two_methods": (_chi_two_methods_share, lambda quick: quick),
    "lst_recognition": (_lst_recognition_share, lambda quick: quick),
}


def _oracle(name, share, quick):
    walk, arg = ORACLES[name]
    return walk(share, arg(quick))


@pytest.mark.parametrize("depth", range(1, 10))
def test_shares_are_the_walk(depth):
    whole = [(node, tri.gluings) for node, tri, _ in build.lst_tree(depth)]
    shares = [(node, tri.gluings) for share in (0, 1)
              for node, tri, _ in build.lst_tree(depth, share)]
    assert shares == whole
    whole = [(node, w, folded.gluings)
             for node, w, folded in verifysuite._lens_grid(depth)]
    shares = [(node, w, folded.gluings) for share in (0, 1)
              for node, w, folded in _lens_grid(depth, share)]
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
    return list(_lens_grid(6, share))


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
    # the child of the tree walk serves all four tree criteria, and
    # fold_homology calls first_homology there; moves checks every move
    # with it
    died = "a worker process died: exit code 3"
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {name}: {died}" for name in (
        "lst_counts", "fold_homology", "chi_two_methods", "moves",
        "lst_recognition")]
    assert "Traceback" not in out + err


def test_a_run_forks_its_workers_once(monkeypatch, forks):
    # one child per split walk, however many CPUs are usable
    for cpus in (2, 3, 8):
        _cpus(monkeypatch, cpus)
        before = forks()
        assert verifysuite.run(quick=True)["failed"] == 0
        assert forks() - before == FORKS_PER_RUN
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


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("share", [0, 1])
def test_the_shared_tree_walk_is_the_oracle(share, quick):
    # for all four criteria in one walk, and for each on its own
    expect = {name: _oracle(name, share, quick) for name in TREE}
    assert verifysuite._tree_share(share, quick, TREE) == expect
    for name in TREE:
        assert verifysuite._tree_share(share, quick, (name,)) == {
            name: expect[name]}


@pytest.mark.parametrize("share", [0, 1])
def test_a_failing_tree_criterion_leaves_the_others_alone(monkeypatch,
                                                          share):
    # chi_two_methods fails at one fold with a class, inside the share: it
    # reports the oracle's count and detail, and the walk goes on for the
    # other three
    _cpus(monkeypatch, 1)
    clean = verifysuite.run(quick=True)["lines"]
    node, w, target = [fold for fold in _lens_grid(5, share)
                       if fold[0].p > 1
                       and cocycle.all_nonzero_classes(fold[2])][4]
    real = surface.canonical_surface

    def miscounted(tri, phi, types=None):
        canon = real(tri, phi, types)
        if tri.gluings == target.gluings:
            return canon._replace(chi=canon.chi + 1)
        return canon

    monkeypatch.setattr(surface, "canonical_surface", miscounted)
    expect = {name: _oracle(name, share, True) for name in TREE}
    n, detail = expect["chi_two_methods"]
    assert detail.startswith(f"lens {node.p}/{node.q} fold {w}: ")
    assert [expect[name][1] for name in TREE].count(None) == 3
    assert verifysuite._tree_share(share, True, TREE) == expect
    failed = [f"FAIL chi_two_methods: {detail}" if line.startswith(
        "PASS chi_two_methods:") else line for line in clean]
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        assert verifysuite.run(quick=True)["lines"] == failed
        _no_child_left()


def test_a_run_folds_each_tree_fold_once(monkeypatch):
    # the 1,023 nodes to depth 10 have 3,069 folds; the tree criteria that
    # each walked the tree on their own built 6,642
    calls = [0]
    real = build.fold_along_edge

    def counted(*args):
        calls[0] += 1
        return real(*args)

    folds = {}

    def counting(name, check):
        def run(quick=False):
            before = calls[0]
            try:
                return check(quick=quick)
            finally:
                folds[name] = calls[0] - before
        return run

    monkeypatch.setattr(build, "fold_along_edge", counted)
    monkeypatch.setattr(verifysuite, "CHECKS", tuple(
        (name, counting(name, check)) for name, check in verifysuite.CHECKS))
    _cpus(monkeypatch, 1)
    assert verifysuite.run()["failed"] == 0
    assert {name: folds[name] for name in TREE} == {
        "lst_counts": 3069, "fold_homology": 0, "chi_two_methods": 0,
        "lst_recognition": 0}


@pytest.fixture
def tree_walks(monkeypatch):
    """The (share, criteria served) of every share of the tree walked."""
    walks = []
    real = verifysuite._tree_share

    def spied(share, quick, served):
        walks.append((share, served))
        return real(share, quick, served)

    monkeypatch.setattr(verifysuite, "_tree_share", spied)
    return walks


def test_each_run_walks_the_tree_once(monkeypatch, tree_walks):
    _cpus(monkeypatch, 1)
    summaries = []
    for _ in range(2):
        summary = verifysuite.run(quick=True)
        assert verifysuite._walked is None
        del summary["elapsed_ns"]
        summaries.append(summary)
    assert tree_walks == [(0, TREE), (1, TREE)] * 2
    assert summaries[0] == summaries[1]
    assert summaries[0]["failed"] == 0


@pytest.mark.parametrize("only, names", [
    ("fold", ("fold_homology", "one_tet_folds")),
    ("chi", ("chi_two_methods",)),
    ("lst_", ("lst_counts", "lst_recognition")),
    ("recognition", ("lst_recognition",)),
])
def test_a_selection_walks_the_tree_for_its_criteria_only(monkeypatch,
                                                         tree_walks, only,
                                                         names):
    _cpus(monkeypatch, 1)
    whole = verifysuite.run(quick=True)["lines"]
    tree_walks.clear()
    lines = verifysuite.run(only=only, quick=True)["lines"]
    assert [line.split()[1].rstrip(":") for line in lines] == list(names)
    assert lines == [line for line in whole
                     if line.split()[1].rstrip(":") in names]
    served = tuple(name for name in names if name in TREE)
    assert tree_walks == [(0, served), (1, served)]


def test_the_shared_walk_logs_each_share(monkeypatch, caplog):
    _cpus(monkeypatch, 1)
    with caplog.at_level(logging.DEBUG, logger="trinorm.verifysuite"):
        verifysuite.run(quick=True)
    served = ", ".join(TREE)
    assert [record.getMessage() for record in caplog.records
            if record.name == "trinorm.verifysuite"] == [
        f"tree walk, share 0: depth 8, 128 nodes, 96 folds, for {served}",
        f"tree walk, share 1: depth 8, 127 nodes, 93 folds, for {served}"]


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
