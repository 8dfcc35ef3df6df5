"""The long criteria of ``trinorm verify`` walk their grids in two shares,
and a run schedules its tasks (shares and unsplit criteria) on one forked
child beside the parent when more than one CPU is usable: together the
shares are the serial walk, the forked and in-process paths report the
same, share 0's first failure wins over share 1's, a failure inside a
child reaches the report, every task runs once, a run forks one child,
and no child outlives it.

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
import signal
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
NAMES = tuple(name for name, _ in verifysuite.CHECKS)
# one child per run, claiming tasks beside the parent
FORKS_PER_RUN = 1


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(verifysuite, "_usable_cpus", lambda: cpus)


def _no_child_left():
    """No child process is running, and none is left unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _path(monkeypatch, forked, name):
    """Within the block a call of criterion ``name``'s check runs its tasks
    as inside a run that selected it alone: with a forked child claiming
    tasks beside this process, or all of them in this process."""
    _cpus(monkeypatch, 2 if forked else 1)
    verifysuite._run = ({name: None}, {}, {})
    try:
        yield
    finally:
        verifysuite._run = None
    _no_child_left()


def _task_lines(caplog):
    """(task, criteria, seconds, pid) of each DEBUG line of a task."""
    found = []
    for record in caplog.records:
        message = record.getMessage()
        if record.name == "trinorm.verifysuite" and message.startswith(
                "task "):
            head, tail = message.split(": ", 1)
            task, criteria = head[len("task "):].split(" ", 1)
            seconds, pid = tail.split(" s in process ")
            found.append((int(task), criteria.strip("()"), float(seconds),
                          int(pid)))
    return found


@pytest.fixture
def forks(monkeypatch):
    """The number of processes forked so far; a run forks its child
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
            census = cocycle.parity_census(tri, phi)
            canon = surface.canonical_surface(tri, phi)
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
        (tri.gluings, faces, h)
        for tri, faces, h in verifysuite._round_trips(quick)),
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
def test_a_share_of_the_round_trips_is_the_dealt_share(quick):
    # the seeded shuffle is drawn alike whether a share or the whole
    # stream is generated
    for share in (0, 1):
        own = [(tri.gluings, faces, h)
               for tri, faces, h in verifysuite._round_trips(quick, share)]
        assert own == list(_dealt(STREAMS["round_trips"](quick), share))


def test_a_moves_share_sets_up_only_the_members_it_starts_from(monkeypatch):
    # trips are dealt alternately over a pool of four, so share 0 starts
    # only from members 0 and 2.  Inside a run the family members are built
    # once, here before counting: building one checks its homology
    monkeypatch.setattr(verifysuite, "_run", ({"moves": None}, {}, {}))
    pool = [build.lens_space(1, 6)[0], build.lens_space(1, 8)[0],
            _member("Q", (6,)), _member("M", (1, 1, 1))]
    # the other share's trips draw their shuffles on the counted faces
    assert [verifysuite._interior_count(tri) for tri in pool] \
        == [len(verifysuite._interior_faces(tri)) for tri in pool]
    pool = [tri.gluings for tri in pool]
    seen = {"_interior_faces": [], "first_homology": []}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(tri):
            seen[name].append(tri.gluings)
            return inner(tri)
        monkeypatch.setattr(module, name, wrapper)

    counted(verifysuite, "_interior_faces")
    counted(homology, "first_homology")
    assert verifysuite._moves_share(0, quick=True) == (15, None)
    for name, tables in seen.items():
        assert [pool.index(g) for g in tables if g in pool] == [0, 2], name


@pytest.mark.parametrize("quick", [True, False])
def test_octagon_items_are_the_modifications(quick):
    items = [(tri.gluings, canon, b)
             for _, tri, canon, b in verifysuite._octagon_items(quick)]
    whole = [(tri.gluings, canon, b)
             for tri, canon, b in _octagon_formula_modifications(quick)]
    assert items == whole
    assert len(whole) == (82 if quick else 4196)


def test_every_octagon_item_gets_one_full_cell_count(monkeypatch):
    # over both full shares: one b_modification per item, and inside each
    # exactly one validating cell count, the computation behind the chi a
    # triangulation holds, on a coordinate with one row per tetrahedron
    items = [(tri.gluings, canon, b)
             for _, tri, canon, b in verifysuite._octagon_items(False)]
    modified, counted = [], []
    real_modification, real_count = surface.b_modification, surface._euler_char

    def modification(tri, canon, b):
        modified.append((tri.gluings, canon, b))
        before = len(counted)
        result = real_modification(tri, canon, b)
        assert len(counted) == before + 1
        return result

    def count(tri, coord):
        if len(modified) > len(counted):
            assert not coord.formal
            assert coord.tet_count == len(coord.rows) == tri.tet_count
            counted.append(coord)
        return real_count(tri, coord)

    monkeypatch.setattr(surface, "b_modification", modification)
    monkeypatch.setattr(surface, "_euler_char", count)
    assert [verifysuite._octagon_share(share, False) for share in (0, 1)] \
        == [(2098, None)] * 2
    assert len(modified) == len(counted) == len(items) == 4196
    merged = [None] * len(items)
    merged[0::2], merged[1::2] = modified[:2098], modified[2098:]
    assert merged == items


def test_b_modification_still_refuses_odd_edges_and_other_types():
    # also once a surface's quad sites are held on its table
    tri = _member("Q", (6,))
    canon = surface.canonical_surface(
        tri, cocycle.all_nonzero_classes(tri)[0])
    surface.b_modification(tri, canon, ())
    odd = canon.cocycle.odd_edges()[0]
    for b, message in (((odd,), f"^edge {odd} is odd; b must select even "
                                "edges$"),
                       ((tri.skeleton.edge_count,), "is not an edge class")):
        with pytest.raises(TriangulationError, match=message):
            surface.b_modification(tri, canon, b)
    # a surface with one tetrahedron cleared, on the same table, and a
    # canonical surface with triangles, on another
    rows = list(canon.coord.rows)
    rows[2] = (0,) * 10
    holed = canon._replace(coord=canon.coord._replace(rows=tuple(rows)))
    other = build.seifert_family("M", 1, 1, 1)[0]
    with_triangles = surface.canonical_surface(
        other, cocycle.all_nonzero_classes(other)[0])
    for table, surf in ((tri, holed), (other, with_triangles)):
        with pytest.raises(TriangulationError, match="^b-modification needs "
                           "all tetrahedra of quad type$"):
            surface.b_modification(table, surf, ())
    assert surface.b_modification(tri, canon, ())[0] == canon.coord


def test_each_octagon_share_logs_its_surfaces_and_modifications(caplog):
    with caplog.at_level(logging.DEBUG, logger="trinorm.verifysuite"):
        assert [verifysuite._octagon_share(share, False)
                for share in (0, 1)] == [(2098, None)] * 2
    assert [record.getMessage() for record in caplog.records
            if record.name == "trinorm.verifysuite"] == [
        f"octagon share {share}: 9 canonical surfaces, 2098 "
        "b-modifications checked" for share in (0, 1)]


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("name", SHARED)
def test_pooled_path_reports_as_the_in_process_path(monkeypatch, name,
                                                    quick):
    check = dict(verifysuite.CHECKS)[name]
    results = []
    for forked in (True, False):
        with _path(monkeypatch, forked, name):
            results.append(check(quick=quick))
    # outside a run a direct call walks its shares in process
    _cpus(monkeypatch, 2)
    results.append(check(quick=quick))
    _no_child_left()
    assert results[0] == results[1] == results[2]
    assert results[0][0], results[0][1]


# every criterion on its own, the selections of several (those CI runs
# among them) and the whole grid
SELECTIONS = NAMES + ("lst_", "fold", "octagon", "_identity", "family", None)


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("name", SELECTIONS)
def test_a_run_reports_alike_on_any_number_of_cpus(monkeypatch, name, quick):
    summaries = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        summary = verifysuite.run(only=name, quick=quick)
        _no_child_left()
        del summary["elapsed_ns"]
        summaries.append(summary)
    assert summaries[0] == summaries[1] == summaries[2]
    selected = [c for c in NAMES if not name or name in c]
    assert summaries[0]["passed"] == len(summaries[0]["lines"]) == len(
        selected)


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
        with _path(monkeypatch, forked, "fold_homology"):
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
        with _path(monkeypatch, forked, "octagon_formula"):
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
        with _path(monkeypatch, forked, "fold_homology"):
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
    # the parent claims the tree walk's share 0 before it forks, so the
    # child's first task is share 1, which serves all four tree criteria,
    # and fold_homology calls first_homology there; the parent then runs
    # every other task, moves and the unsplit criteria among them
    died = "a worker process died: exit code 3"
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {name}: {died}" for name in TREE]
    assert "Traceback" not in out + err


def test_a_run_forks_its_workers_once(monkeypatch, forks):
    # one child per run, however many CPUs are usable
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


def test_a_child_that_dies_fails_only_its_criterion(monkeypatch, caplog,
                                                    forks):
    # a signal kills the child in the middle of its first task, the tree
    # walk's share 1: exactly the four criteria that task serves fail, and
    # the parent runs every task left, so the other ten pass as in a clean
    # run
    _cpus(monkeypatch, 1)
    clean = verifysuite.run(quick=True)["lines"]
    parent = os.getpid()
    real = homology.first_homology

    def killed(tri):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(tri)

    monkeypatch.setattr(homology, "first_homology", killed)
    _cpus(monkeypatch, 2)
    with caplog.at_level(logging.DEBUG, logger="trinorm.verifysuite"):
        lines = verifysuite.run(quick=True)["lines"]
    _no_child_left()
    died = f"a worker process died: exit code {-signal.SIGKILL}"
    assert lines == [f"FAIL {name}: {died}" if name in TREE else line
                     for name, line in zip(NAMES, clean)]
    assert forks() == 1
    tasks = _task_lines(caplog)
    assert [task for task, *_ in tasks] == list(range(13))
    assert [task for task, _, _, pid in tasks if pid != parent] == [1]


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
        # the child stalls for 1 s at its first fold: share 0's failure is
        # reported once the child's share is in, and that share's time
        # counts
        node, w, fold = _quick_folds(0)[0]
        p, q = node.p, node.q
        expect = {p: 2 * q + p, q: 2 * p + q, p + q: abs(p - q)}[w]
        line = (f"FAIL fold_homology: fold of {p}/{q} along {w}: "
                f"|H1| = -1, expected {expect}")
        stalls = [1]

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
    if case == "share 0 fails first":
        assert summary["elapsed_ns"]["fold_homology"] >= 10**9


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

    def miscounted(tri, phi):
        canon = real(tri, phi)
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
    # each walked the tree on their own built 6,642.  The two identity
    # criteria share one build of their 93 lens folds, where each built its
    # own, and 24 folds are the lens spaces of five other criteria.  The
    # whole schedule runs within the call of the first criterion
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
    assert folds == dict.fromkeys(NAMES, 0) | {"lst_counts": 3069 + 93 + 24}


@pytest.fixture
def member_builds(monkeypatch):
    """Each family member built so far, as (builder, args) in call
    order."""
    builds = []
    for name in ("seifert_family", "layered_loop"):
        def counted(*args, _real=getattr(build, name), _name=name,
                    **kwargs):
            builds.append((_name, args))
            return _real(*args, **kwargs)
        monkeypatch.setattr(build, name, counted)
    return builds


def test_a_run_builds_each_family_member_once(monkeypatch, member_builds):
    # a one-CPU full run built 203 Seifert members, 57 of them distinct,
    # and 19 twisted loops, 4 distinct; a second run builds all of them
    # again, and none is kept after either
    _cpus(monkeypatch, 1)
    for runs in (1, 2):
        assert verifysuite.run()["failed"] == 0
        assert verifysuite._run is None
        built = [name for name, _ in member_builds]
        assert (built.count("seifert_family"), built.count("layered_loop")) \
            == (57 * runs, 4 * runs)
        assert len(set(member_builds)) == 57 + 4


def test_a_direct_check_keeps_no_family_member(monkeypatch, member_builds):
    # outside a run every call builds its members afresh
    _cpus(monkeypatch, 1)
    for _ in range(2):
        assert verifysuite.check_quaternionic(quick=True)[0]
        assert verifysuite._run is None
    assert member_builds == [("layered_loop", (4,)),
                             ("layered_loop", (6,))] * 2
    assert _member("Q", (4,)) is not _member("Q", (4,))


@pytest.fixture
def tree_walks(monkeypatch):
    """The (share, criteria served) of every share of the tree walked."""
    walks = []
    real = verifysuite._tree_share

    def spied(share, quick, served):
        walks.append((share, served))
        return real(share, quick, served)

    monkeypatch.setattr(verifysuite, "_TASKS", tuple(
        (spied if walk is real else walk, arg, criteria)
        for walk, arg, criteria in verifysuite._TASKS))
    return walks


def test_each_run_walks_the_tree_once(monkeypatch, tree_walks):
    _cpus(monkeypatch, 1)
    summaries = []
    for _ in range(2):
        summary = verifysuite.run(quick=True)
        assert verifysuite._run is None
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
            if record.name == "trinorm.verifysuite"
            and not record.getMessage().startswith("task ")] == [
        f"tree walk, share 0: depth 8, 128 nodes, 96 folds, for {served}",
        f"tree walk, share 1: depth 8, 127 nodes, 93 folds, for {served}",
        "octagon share 0: 5 canonical surfaces, 41 b-modifications checked",
        "octagon share 1: 5 canonical surfaces, 41 b-modifications checked"]


# the criteria of each task, as its DEBUG line names them
TASK_CRITERIA = [", ".join(TREE)] * 2 + ["octagon_formula"] * 2 + [
    "moves"] * 2 + ["fundamental_identity, lint_identity",
                    "family_mprime", "formal_solutions", "family_m",
                    "balanced_family", "quaternionic", "one_tet_folds"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_task_logs_its_process_and_seconds(monkeypatch, caplog, cpus):
    # in task order, once the schedule is done; the child's first task is
    # the tree walk's share 1.  A criterion's time is the sum of the tasks
    # it owns, each owned by the first criterion it serves
    _cpus(monkeypatch, cpus)
    with caplog.at_level(logging.DEBUG, logger="trinorm.verifysuite"):
        summary = verifysuite.run(quick=True)
    _no_child_left()
    tasks = _task_lines(caplog)
    assert [(task, criteria) for task, criteria, _, _ in tasks] == list(
        enumerate(TASK_CRITERIA))
    pids = {task: pid for task, _, _, pid in tasks}
    assert pids[0] == os.getpid()
    assert (pids[1] != os.getpid()) == (cpus > 1)
    assert len(set(pids.values())) == cpus
    owned = dict.fromkeys(NAMES, 0.0)
    for _, criteria, seconds, _ in tasks:
        owned[criteria.split(", ")[0]] += seconds
    for name, ns in summary["elapsed_ns"].items():
        assert abs(ns / 1e9 - owned[name]) <= 0.0005 * 13, name
    assert all(summary["elapsed_ns"][name] == 0 for name in (
        "fold_homology", "chi_two_methods", "lst_recognition",
        "lint_identity"))


@pytest.fixture
def task_log(monkeypatch, tmp_path):
    """Each task run by either process appends ``task pid start end`` (in
    ``perf_counter_ns``, which all processes read alike) to a file; returns
    a reader of its lines."""
    log = tmp_path / "tasks"

    def logged(task, walk):
        def run(*args):
            start = time.perf_counter_ns()
            try:
                return walk(*args)
            finally:
                fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                os.write(fd, f"{task} {os.getpid()} {start} "
                             f"{time.perf_counter_ns()}\n".encode())
                os.close(fd)
        return run

    monkeypatch.setattr(verifysuite, "_TASKS", tuple(
        (logged(task, walk), arg, criteria) for task, (walk, arg, criteria)
        in enumerate(verifysuite._TASKS)))
    return lambda: [tuple(map(int, line.split()))
                    for line in log.read_text().splitlines()]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_task_runs_once_across_both_processes(monkeypatch, task_log,
                                                    cpus):
    _cpus(monkeypatch, cpus)
    assert verifysuite.run(quick=True)["failed"] == 0
    _no_child_left()
    ran = task_log()
    assert sorted(task for task, *_ in ran) == list(range(13))
    assert len({pid for _, pid, _, _ in ran}) == min(cpus, 2)


def test_timing_wrappers_see_every_task(monkeypatch, task_log):
    # CHECKS wrapped as the benchmark wraps it: the parent sees one call
    # per criterion, and the first call's interval holds every task, the
    # child's too
    calls = []

    def timed(name, fn):
        def run(quick=False):
            start = time.perf_counter_ns()
            try:
                return fn(quick=quick)
            finally:
                calls.append((name, start, time.perf_counter_ns()))
        return run

    monkeypatch.setattr(verifysuite, "CHECKS", tuple(
        (name, timed(name, fn)) for name, fn in verifysuite.CHECKS))
    _cpus(monkeypatch, 2)
    assert verifysuite.run(quick=True)["failed"] == 0
    _no_child_left()
    assert [name for name, _, _ in calls] == list(NAMES)
    _, first, last = calls[0]
    ran = task_log()
    assert len(ran) == 13 and len({pid for _, pid, _, _ in ran}) == 2
    assert all(first <= start <= end <= last for _, _, start, end in ran)


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
