"""Acceptance grid: every check the package promises, one line per check.

Each criterion is exact (integer equalities); there are no tolerances.
The same driver backs the command line ``verify`` subcommand and the
acceptance test module.
"""

from __future__ import annotations

import logging
import os
import random
import time
from itertools import combinations, islice, product

from . import build, homology, cocycle, surface, analyze
from .cocycle import TetType
from .triangulation import TriangulationError

_log = logging.getLogger(__name__)


def _usable_cpus():
    """How many CPUs this process may run on."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


# Inside ``run``: ``(outcomes, elapsed_ns, members)``, ``outcomes`` mapping
# each selected criterion that has tasks to its ``(count, failure)`` until
# it is reported, or to None until the schedule runs, and ``members`` the
# family-grid members this process has built in the run, by (tag, params).
# None outside ``run``.
_run = None


def _check(name, passed):
    """The check of criterion ``name``: ``check(quick=False)`` returns
    ``(ok, detail)``, the failure or else ``passed(n, quick)`` for the
    count n, and raises the exception the criterion raised.  Inside ``run``
    the first selected criterion called runs the schedule of every selected
    criterion; a direct call runs its own tasks in this process."""
    def check(quick=False):
        if _run is None or name not in _run[0]:
            n, failure = _scheduled((name,), quick, {}, fork=False)[name]
        else:
            outcomes, elapsed_ns, _ = _run
            if outcomes[name] is None:
                outcomes.update(_scheduled(tuple(outcomes), quick,
                                           elapsed_ns, _usable_cpus() > 1))
            n, failure = outcomes.pop(name)
        if isinstance(failure, Exception):
            raise failure
        return failure is None, failure or passed(n, quick)
    check.__name__ = check.__qualname__ = f"check_{name}"
    return check


def _scheduled(served, quick, elapsed_ns, fork):
    """``{criterion: (count, failure)}`` for the criteria ``served``, the
    counts of its tasks summed in ``_TASKS`` order up to the first failure.
    Tasks are claimed from a pipe holding one byte per task number.  With
    ``fork`` and two tasks or more, one child is forked once this process
    has claimed its first task, and both claim until the pipe is empty.  A
    child that dies mid-task fails exactly that task's criteria.  Each
    task's time is added to ``elapsed_ns`` under the first criterion it
    serves, and logged at DEBUG."""
    tasks = {task: mine for task, (_, _, criteria) in enumerate(_TASKS)
             if (mine := tuple(c for c in criteria if c in served))}
    queue, filler = os.pipe()
    os.write(filler, bytes(tasks))
    os.close(filler)
    done, child = {}, None
    try:
        for task in _claimed(queue):
            if fork and child is None and len(tasks) > 1:
                import multiprocessing
                context = multiprocessing.get_context("fork")
                reader, writer = context.Pipe(duplex=False)
                child = context.Process(target=_claiming,
                                        args=(queue, tasks, quick, writer))
                child.start()
                writer.close()
            done[task] = (*_ran(task, tasks[task], quick), os.getpid())
        while child is not None and len(done) < len(tasks):
            try:
                task, outcomes, ns = reader.recv()
                done[task] = (outcomes, ns, child.pid)
            except EOFError:
                child.join()
                died = (0, "a worker process died: exit code "
                           f"{child.exitcode}")
                for task in tasks.keys() - done.keys():
                    done[task] = (dict.fromkeys(tasks[task], died), 0,
                                  child.pid)
    finally:
        os.close(queue)
        if child is not None:
            reader.close()
            child.kill()
            child.join()
    outcomes = {}
    for task, mine in tasks.items():
        results, ns, pid = done[task]
        _log.debug("task %d (%s): %.3f s in process %d", task,
                   ", ".join(mine), ns / 1e9, pid)
        elapsed_ns[mine[0]] = elapsed_ns.get(mine[0], 0) + ns
        for c, (n, failure) in results.items():
            total, failed = outcomes.get(c, (0, None))
            if failed is None:
                outcomes[c] = (total + n, failure)
    return outcomes


def _claimed(queue):
    while claimed := os.read(queue, 1):
        yield claimed[0]


def _claiming(queue, tasks, quick, writer):
    """In the forked child: run claimed tasks, sending each result."""
    for task in _claimed(queue):
        writer.send((task, *_ran(task, tasks[task], quick)))


def _ran(task, served, quick):
    """Task ``task``'s outcomes for ``served``, an exception failing each,
    and its time in nanoseconds."""
    walk, arg, criteria = _TASKS[task]
    args = (quick,) if arg is None else (arg, quick)
    start = time.perf_counter_ns()
    try:
        outcomes = (walk(*args, served) if len(criteria) > 1
                    else {served[0]: walk(*args)})
    except Exception as exc:
        outcomes = dict.fromkeys(served, (0, exc))
    return outcomes, time.perf_counter_ns() - start


def _dealt(items, share):
    """Share 0 or 1 of ``items`` dealt alternately: every other item, from
    the first or from the second."""
    return islice(items, share, None, 2)


# the fraction-tree depth each tree criterion checks, quick and full
_TREE_DEPTHS = {"lst_counts": (8, 12), "fold_homology": (6, 10),
                "chi_two_methods": (5, 10), "lst_recognition": (6, 8)}


def _tree_depth(criterion, quick):
    return _TREE_DEPTHS[criterion][0 if quick else 1]


def _tree_share(share, quick, served):
    """Share ``share`` of the tree criteria ``served``, in one walk of the
    fraction tree: ``{criterion: (count, failure)}``.

    At each node ``lst_counts`` checks the torus, and each fold is built
    once and handed to every criterion whose depth rule wants it: all three
    folds for ``fold_homology`` and ``chi_two_methods``, the folds along p
    and q from depth 3 on for ``lst_recognition``.  ``chi_two_methods``
    checks its dealt family grid before the walk, and ``lst_recognition``
    its dealt M and M' grid after it.  A criterion stops at its first
    failure or exception, and the walk goes on for the others; an
    exception of the walk itself propagates.
    """
    depth = {c: _tree_depth(c, quick) for c in served}
    counts = dict.fromkeys(served, 0)
    failures = {}

    def wants(c, node_depth=1):
        return node_depth <= depth.get(c, 0) and c not in failures

    def check(c, test, *args):
        try:
            result = test(*args)
        except Exception as exc:
            result = exc
        if isinstance(result, int):
            counts[c] += result
        else:
            failures[c] = result

    for tag, params in _dealt(_family_params(quick), share):
        if wants("chi_two_methods"):
            check("chi_two_methods", _member_chi_agrees, tag, params)
    nodes = folds = 0
    for node, tri, meta in build.lst_tree(max(depth.values()), share):
        nodes += 1
        if wants("lst_counts", node.depth):
            check("lst_counts", _torus_counts, node, tri)
        # the fold criteria live at this node, along p and q and along p+q
        along_pq = [c for c in _FOLD_CHECKS if wants(c, node.depth)
                    and (c != "lst_recognition" or node.depth >= 3)]
        along_sum = [c for c in along_pq if c != "lst_recognition"]
        for w, live in ((meta.p, along_pq), (meta.q, along_pq),
                        (meta.p + meta.q, along_sum)):
            wanting = [c for c in live if c not in failures] if failures \
                else live
            if not wanting:
                continue
            try:
                folded, _ = build.fold_along_edge(
                    tri, build.boundary_edge(meta, w), meta)
            except Exception as exc:
                failures.update(dict.fromkeys(wanting, exc))
                continue
            folds += 1
            for c in wanting:
                check(c, _FOLD_CHECKS[c], node, w, folded)
    for tag, kmn in _dealt(_mm_params(("M", "MPRIME"), quick), share):
        if wants("lst_recognition"):
            check("lst_recognition", _member_recognised, tag, kmn)
    _log.debug("tree walk, share %d: depth %d, %d nodes, %d folds, for %s",
               share, max(depth.values()), nodes, folds, ", ".join(served))
    return {c: (counts[c], failures.get(c)) for c in served}


def _torus_counts(node, tri):
    sk = tri.skeleton
    k = tri.tet_count
    if not (sk.vertex_count == 1 and sk.edge_count == k + 2
            and sk.face_count == 2 * k + 1 and k == node.depth):
        return f"counts wrong at {node.p}/{node.q}"
    return 1


def _fold_order(node, w, folded):
    p, q = node.p, node.q
    # the lens table written out: the reference the homology oracle and
    # build.fold_record are both held to
    expect = {p: 2 * q + p, q: 2 * p + q, p + q: abs(p - q)}[w]
    h = homology.first_homology(folded)
    if h.betti or h.order != expect:
        return (f"fold of {p}/{q} along {w}: |H1| = {h.order}, "
                f"expected {expect}")
    return 1


def _one_tet_folds(quick):
    for w, expect in ((2, 4), (1, 5), (3, 1)):
        folded, meta, rec = build.lens_space(1, 2, fold_weight=w)
        h = homology.first_homology(folded)
        if h.betti or h.order != expect or rec.lens_a != expect:
            return 0, f"fold along {w}: got {h}, expected order {expect}"
    return 3, None


def _balanced_family(quick):
    ns = range(3, 9 if quick else 13)
    for n in ns:
        tri, meta, rec = build.lens_space(1, 2 * n - 2)
        if tri.tet_count != 2 * n - 3:
            return 0, f"L({2*n},1): {tri.tet_count} tetrahedra"
        phis = cocycle.all_nonzero_classes(tri)
        if len(phis) != 1:
            return 0, f"L({2*n},1): {len(phis)} classes"
        rep = analyze.fundamental_report(tri, phis[0], k_phi=0)
        census = rep.census
        ok = (census.even_edges == n - 1 and census.odd_edges == n - 1
              and rep.chi == 2 - n and census.tri_tets == 0
              and rep.eq1_lhs == 2 and rep.eq1_rhs == 2 and rep.balanced)
        if not ok:
            return 0, (f"L({2*n},1): e={census.even_edges} "
                       f"o={census.odd_edges} chi={rep.chi} "
                       f"eq1={rep.eq1_lhs}/{rep.eq1_rhs}")
    return len(ns), None


def _mm_params(tags, quick=False):
    """(tag, (k, m, n)) for the augmented families M and M' over the
    parameter cube."""
    rng = (1, 2) if quick else (1, 2, 3)
    return [(tag, kmn) for tag in tags for kmn in product(rng, repeat=3)]


def _family_params(quick=False):
    """(tag, params) for the family grid: M, M', P and the twisted layered
    loops Q."""
    return (_mm_params(("M", "MPRIME"), quick)
            + [("P", (k,)) for k in ((1, 2) if quick else (1, 2, 3))]
            + [("Q", (k,)) for k in ((4, 6) if quick else (4, 6, 8, 10))])


def _member(tag, params):
    """The triangulation of one member of the family grid: built once per
    ``run`` in each process, so its cached skeleton, echelon, corner tables
    and canonical labels are shared by every criterion that reads it, and
    afresh on every call outside ``run``."""
    members = {} if _run is None else _run[2]
    tri = members.get((tag, params))
    if tri is None:
        tri = members[tag, params] = (
            build.layered_loop(*params, twisted=True) if tag == "Q"
            else build.seifert_family(tag, *params)[0])
    return tri


def _family_grid(quick=False):
    """(tag, params, tri) for the family grid."""
    return [(*member, _member(*member)) for member in _family_params(quick)]


def _lens_grid(depth):
    """(node, w, folded) for the three folds of every fraction-tree node to
    the given depth, along p, q and p+q, in the walker's depth-first
    order."""
    for node, tri, meta in build.lst_tree(depth):
        for w in (meta.p, meta.q, meta.p + meta.q):
            folded, _ = build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)
            yield node, w, folded


def _closed_instances():
    """The quick family grid, then the quick lens grid level by level (as
    ``lgraph`` numbers the tree): ``check_fundamental_identity`` deals its
    seeded colourings out in this order."""
    lens = sorted(_lens_grid(5), key=lambda item: item[0].depth)
    return ([tri for _, _, tri in _family_grid(quick=True)]
            + [folded for _, _, folded in lens])


def _chi_agrees(label, tri):
    """The number of classes of ``tri`` whose canonical surface has the
    Euler characteristic of the census formula, or the first failure."""
    n = 0
    for phi in cocycle.all_nonzero_classes(tri):
        census = cocycle.parity_census(tri, phi)
        canon = surface.canonical_surface(tri, phi)
        if canon.chi != surface.chi_formula(census):
            return f"{label}: {canon.chi} != formula"
        n += 1
    return n


def _member_chi_agrees(tag, params):
    return _chi_agrees(f"{tag}{params}", _member(tag, params))


def _fold_chi_agrees(node, w, folded):
    return _chi_agrees(f"lens {node.p}/{node.q} fold {w}", folded)


# name, Z/2 rank, and tetrahedron count and norm sum in k + m + n, by tag
_SEIFERT = {"M": ("M", 1, lambda s: 2 * s + 2, lambda s: s),
            "MPRIME": ("M'", 2, lambda s: 2 * s + 3, lambda s: 2 * s)}


def _seifert_family(tag, quick):
    """The members (k, m, n) of an augmented family checked, and the first
    failure."""
    name, rank, tets, norm_sum = _SEIFERT[tag]
    count = 0
    for _, kmn in _mm_params((tag,), quick):
        tri = _member(tag, kmn)
        label, s = f"{name}{kmn}", sum(kmn)
        h = homology.first_homology(tri)
        phis = cocycle.all_nonzero_classes(tri)
        if tri.tet_count != tets(s):
            return count, f"{label}: {tri.tet_count} tetrahedra"
        if h.z2_rank != rank or len(phis) != 2 ** rank - 1:
            return count, f"{label}: rank {h.z2_rank}"
        total = sum(-surface.canonical_surface(tri, phi).chi for phi in phis)
        if total != norm_sum(s):
            return count, f"{label}: norm sum {total}"
        count += 1
    return count, None


def _quaternionic(quick):
    ks = (4, 6) if quick else (4, 6, 8, 10)
    for k in ks:
        tri = _member("Q", (k,))
        h = homology.first_homology(tri)
        if tri.tet_count != k or h.invariant_factors != (2, 2) or h.betti:
            return 0, f"loop {k}: {h}"
        phis = cocycle.all_nonzero_classes(tri)
        klein = 0
        for phi in phis:
            types = cocycle.classify_tetrahedra(tri, phi)
            if any(ty is not TetType.QUAD for ty, _ in types):
                return 0, f"loop {k}: non-quad tetrahedron"
            canon = surface.canonical_surface(tri, phi)
            chi, orientable, connected = surface.surface_classify(
                tri, canon.coord, canon.chi)
            if chi == 0 and connected and not orientable:
                klein += 1
        if klein != 1:
            return 0, f"loop {k}: {klein} Klein classes"
        kinds = {kind for _, _, kind in surface.twisted_square_scan(tri)}
        if "klein" not in kinds:
            return 0, f"loop {k}: no Klein square ({kinds})"
    return len(ks), None


def _octagon_items(quick):
    """(name, tri, canon, b) for the b-modifications
    ``check_octagon_formula`` makes: every subset b of the kernel edges of
    every class of every instance, by size and then lexicographically, each
    class with its canonical surface.  A class with more than 12 kernel
    edges yields (name, tri, None, evens) in their place, and ends the
    walk."""
    instances = [(f"loop{k}", _member("Q", (k,)))
                 for k in ((4,) if quick else (4, 6))]
    instances += [(f"L({2*n},1)", build.lens_space(1, 2 * n - 2)[0])
                  for n in ((4, 7) if quick else (4, 7, 13))]
    for name, tri in instances:
        for phi in cocycle.all_nonzero_classes(tri):
            evens = phi.even_edges()
            if len(evens) > 12:
                yield name, tri, None, evens
                return
            canon = surface.canonical_surface(tri, phi)
            for r in range(len(evens) + 1):
                for b in combinations(evens, r):
                    yield name, tri, canon, b


def _octagon_share(share, quick):
    """Share ``share`` of the b-modifications of ``_octagon_items``, as
    ``_dealt`` deals them, each counted by one call of ``b_modification``:
    ``(checked, failure)``.  Logs at DEBUG the canonical surfaces its
    items b-modify and the b-modifications it checked."""
    checked = surfaces = 0
    failure = last = None
    for name, tri, canon, b in _dealt(_octagon_items(quick), share):
        if canon is None:
            failure = f"{name}: {len(b)} kernel edges"
            break
        if canon is not last:
            last = canon
            surfaces += 1
        # b_modification checks the formula by cell count
        try:
            _, octs, _ = surface.b_modification(tri, canon, b)
        except AssertionError as exc:
            failure = f"{name}: {exc}"
            break
        if name.startswith("loop") and octs < len(b):
            failure = f"{name}: o(b) < |b| at {b}"
            break
        checked += 1
    _log.debug("octagon share %d: %d canonical surfaces, %d b-modifications "
               "checked", share, surfaces, checked)
    return checked, failure


def _formal_solutions(quick):
    n = 0
    instances = [tri for _, _, tri in _family_grid(quick=True)]
    instances.append(build.lens_space(1, 6)[0])
    for tri in instances:
        edges, tets, fchi = surface.special_solutions(tri)
        for sol in edges:
            if fchi(sol) != 2:
                return n, "edge solution with formal chi != 2"
            n += 1
        for sol in tets:
            if fchi(sol) != 1:
                return n, "tetrahedral solution with formal chi != 1"
            n += 1
        link = surface.vertex_link(tri)
        if fchi(link) != surface.euler_char(tri, link):
            return n, "formal chi disagrees with cell count on the link"
    return n, None


def _interior_faces(tri):
    """Face classes a 2-3 move applies to: interior, not self-glued, and
    between two distinct tetrahedra."""
    sk = tri.skeleton
    return [c for c, x in enumerate(sk.face_first)
            if x not in sk.boundary_facets and x not in sk.self_glued_facets
            and tri.gluing(*divmod(x, 4))[0] != x // 4]


def _interior_count(tri):
    """``len(_interior_faces(tri))`` off the gluing table alone: a face
    between two distinct tetrahedra is glued from both of its facets."""
    return sum(g is not None and g[0] != t
               for t, row in enumerate(tri.gluings) for g in row) // 2


def _round_trips(quick, share=None):
    """(tri, faces, h) for the 2-3/3-2 round trips of ``check_moves``, or
    for share ``share`` of them as ``_dealt`` deals them: the pool member
    each trip starts from, its interior faces in the seeded shuffle, whose
    first face the trip moves on, and its first homology.  A member's faces
    and homology are found at its first trip, and a trip of the other share
    only draws its shuffle, so a share sets up only its own members."""
    rng = random.Random(20260810)
    pool = [build.lens_space(1, 6)[0], build.lens_space(1, 8)[0],
            _member("Q", (6,)), _member("M", (1, 1, 1))]
    sites = [None] * len(pool)
    for done in range(30 if quick else 100):
        i = done % len(pool)
        tri = pool[i]
        if share is not None and done % 2 != share:
            rng.shuffle([None] * _interior_count(tri))
            continue
        if sites[i] is None:
            sites[i] = _interior_faces(tri), homology.first_homology(tri)
        interior, h = sites[i]
        faces = list(interior)
        rng.shuffle(faces)
        yield tri, faces, h


def _moves_share(share, quick):
    """The round trips dealt to share ``share``; share 1 then checks the
    4-4 flip."""
    done = 0
    for tri, faces, h0 in _round_trips(quick, share):
        if not faces:
            return done, "no usable 2-3 site"
        bigger, _ = analyze.move23(tri, faces[0])
        h1 = homology.first_homology(bigger)
        if h1 != h0:
            return done, "2-3 move changed homology"
        new_edge = max((e for e, slots
                        in enumerate(bigger.skeleton.edge_slots())
                        if len(slots) == 3
                        and len({x // 6 for x in slots}) == 3),
                       default=None)
        if new_edge is None:
            return done, "no 3-2 site after a 2-3 move"
        back, _ = analyze.move32(bigger, new_edge)
        if not back.isomorphic(tri):
            return done, "2-3 followed by 3-2 is not the identity"
        done += 1
    return done, _all_quad_flip() if share == 1 else None


def _all_quad_sites():
    """(tri, phi, edge) for each all-quad octahedron, about an even edge of
    degree 4 in four quad tetrahedra, that a deterministic hunt by seeded
    2-3 moves from the twisted loop of six tetrahedra meets."""
    base = _member("Q", (6,))
    for phi0 in cocycle.all_nonzero_classes(base):
        for trial in range(40):
            tri, phi = base, phi0
            srng = random.Random(600 + trial)
            for _ in range(3):
                faces = _interior_faces(tri)
                if not faces:
                    break
                tri, phi = analyze.pachner_with_cocycle(
                    tri, phi, analyze.MoveSpec("23", face=srng.choice(faces)))
                types = cocycle.classify_tetrahedra(tri, phi)
                for e, slots in enumerate(tri.skeleton.edge_slots()):
                    quads = {x // 6 for x in slots
                             if types[x // 6][0] is TetType.QUAD}
                    if len(slots) == len(quads) == 4 and not phi[e]:
                        yield tri, phi, e


def _all_quad_flip():
    """None if the 4-4 flip of the first all-quad octahedron found gives
    four triangle-type tetrahedra, else what went wrong."""
    found = next(_all_quad_sites(), None)
    if found is None:
        return "no all-quad octahedron located"
    tri, phi, edge = found
    h0 = homology.first_homology(tri)
    flipped, phi2 = analyze.pachner_with_cocycle(
        tri, phi, analyze.MoveSpec("44", edge=edge, axis=0))
    h1 = homology.first_homology(flipped)
    if h1 != h0:
        return "4-4 move changed homology"
    newtypes = list(cocycle.classify_tetrahedra(flipped, phi2)[-4:])
    if any(ty is not TetType.TRI for ty, _ in newtypes):
        return f"4-4 on all-quad octahedron gave {newtypes}"
    return None


def _lens_recognised(node, w, folded):
    lsts = analyze.find_maximal_lsts(folded)
    if len(lsts) != 2:
        return f"lens {node.p}/{node.q} fold {w}: {len(lsts)} maximal tori"
    joint = set(lsts[0].tets) & set(lsts[1].tets)
    if len(joint) != folded.tet_count - 2:
        return (f"lens {node.p}/{node.q}: tori meet in "
                f"{len(joint)} tetrahedra")
    return 1


def _member_recognised(tag, kmn):
    tri = _member(tag, kmn)
    lsts = analyze.find_maximal_lsts(tri)
    if len(lsts) != 3:
        return f"{tag}{kmn}: {len(lsts)} maximal tori"
    mat = analyze.lst_intersection_matrix(tri, lsts)
    if any(mat[i][j] > 1 for i in range(3) for j in range(3) if i != j):
        return f"{tag}{kmn}: shared edges {mat}"
    return 1


# what a tree criterion checks on a fold: a count of checks passed, or the
# failure
_FOLD_CHECKS = {"fold_homology": _fold_order,
                "chi_two_methods": _fold_chi_agrees,
                "lst_recognition": _lens_recognised}


def _fundamental_identity(instances, quick):
    rng = random.Random(1789)
    n = 0
    for tri in instances:
        for phi in cocycle.all_nonzero_classes(tri):
            analyze.fundamental_report(tri, phi)  # raises on violation
            n += 1
    closed_one_vertex = [t for t in instances
                         if t.skeleton.vertex_count == 1]
    for randoms in range(60 if quick else 200):
        tri = closed_one_vertex[randoms % len(closed_one_vertex)]
        basis = cocycle.cocycle_basis(tri)
        if not basis:
            continue
        acc = None
        for phi in basis:
            if rng.random() < 0.5:
                acc = phi if acc is None else acc + phi
        if acc is None or acc.is_zero:
            acc = basis[0]
        analyze.fundamental_report(tri, acc)
        n += 1
    return n, None


def _lint_identity(instances, quick):
    n = 0
    for tri in instances:
        sk = tri.skeleton
        if not tri.is_closed or sk.vertex_count != 1:
            continue
        if sk.edge_count != tri.tet_count + 1:
            return n, "E != T + 1"
        total = sum((6 - d) * c for d, c in sk.degree_histogram().items())
        if total != 6:
            return n, f"sum (6-i) E_i = {total}"
        n += 1
    return n, None


def _identities(quick, served):
    """The identity criteria ``served`` over one build of
    ``_closed_instances``: ``{criterion: (count, failure)}``, an exception
    a criterion raised being its failure."""
    instances = _closed_instances()
    walks = {"fundamental_identity": _fundamental_identity,
             "lint_identity": _lint_identity}
    outcomes = {}
    for c in served:
        try:
            outcomes[c] = walks[c](instances, quick)
        except Exception as exc:
            outcomes[c] = (0, exc)
    return outcomes


# The tasks of a run, longest first as in Graham's list scheduling: (walk,
# arg, criteria in ``CHECKS`` order).  The order is read off the per-task
# DEBUG lines of one-CPU full runs; share 0 of a walk stays ahead of share
# 1, whose failure it wins over.  ``walk(arg, quick)``, or
# ``walk(quick)`` if arg is None, returns ``(count, failure)``; a walk of
# several criteria also takes those selected, and returns a dict of them.
_TASKS = (
    (_tree_share, 0, tuple(_TREE_DEPTHS)),
    (_tree_share, 1, tuple(_TREE_DEPTHS)),
    (_octagon_share, 0, ("octagon_formula",)),
    (_octagon_share, 1, ("octagon_formula",)),
    (_moves_share, 0, ("moves",)),
    (_moves_share, 1, ("moves",)),
    (_identities, None, ("fundamental_identity", "lint_identity")),
    (_seifert_family, "MPRIME", ("family_mprime",)),
    (_formal_solutions, None, ("formal_solutions",)),
    (_seifert_family, "M", ("family_m",)),
    (_balanced_family, None, ("balanced_family",)),
    (_quaternionic, None, ("quaternionic",)),
    (_one_tet_folds, None, ("one_tet_folds",)),
)


check_lst_counts = _check("lst_counts", lambda n, quick: (
    f"{n} layered solid tori checked to depth "
    f"{_tree_depth('lst_counts', quick)}"))
check_fold_homology = _check("fold_homology", lambda n, quick: (
    f"{n} folds matched the lens table to depth "
    f"{_tree_depth('fold_homology', quick)}"))
check_one_tet_folds = _check("one_tet_folds", lambda n, quick: (
    "one-tetrahedron folds give orders 4, 5, 1"))
check_balanced_family = _check("balanced_family", lambda n, quick: (
    f"balanced L(2n,1) exact for n in 3..{n + 2}"))
check_chi_two_methods = _check("chi_two_methods", lambda n, quick: (
    f"cell count equals census formula on {n} surfaces"))
check_family_m = _check("family_m", lambda n, quick: (
    f"family M exact on {n} instances"))
check_family_mprime = _check("family_mprime", lambda n, quick: (
    f"family M' exact on {n} instances"))
check_quaternionic = _check("quaternionic", lambda n, quick: (
    f"twisted loops exact for k in {tuple(range(4, 2 * n + 4, 2))}"))
check_octagon_formula = _check("octagon_formula", lambda n, quick: (
    f"octagon count formula on {n} modifications"))
check_formal_solutions = _check("formal_solutions", lambda n, quick: (
    f"{n} special solutions have formal chi 2 and 1"))
check_moves = _check("moves", lambda n, quick: (
    f"{n} 2-3/3-2 round trips, homology invariant, "
    "all-quad 4-4 flip gives four triangle tetrahedra"))
check_lst_recognition = _check("lst_recognition", lambda n, quick: (
    f"{n} recognition checks"))
check_fundamental_identity = _check("fundamental_identity", lambda n, quick: (
    f"degree identity asserted on {n} colourings"))
check_lint_identity = _check("lint_identity", lambda n, quick: (
    f"E = T+1 and sum (6-i)E_i = 6 on {n} closed instances"))

CHECKS = tuple((check.__name__.removeprefix("check_"), check) for check in (
    check_lst_counts, check_fold_homology, check_one_tet_folds,
    check_balanced_family, check_chi_two_methods, check_family_m,
    check_family_mprime, check_quaternionic, check_octagon_formula,
    check_formal_solutions, check_moves, check_lst_recognition,
    check_fundamental_identity, check_lint_identity))


def run(only=None, quick=False):
    """Run the acceptance checks; returns a printable summary, with the
    summed time in nanoseconds of the tasks each criterion owns under
    ``elapsed_ns``.  Every task of the selected criteria runs in one
    schedule (``_scheduled``), within the call of the first of them; no
    child is left, and no outcome of the schedule and no family member
    built is kept, when this returns."""
    global _run
    selected = [(name, fn) for name, fn in CHECKS
                if not only or only in name]
    lines, failures = [], []
    elapsed_ns = dict.fromkeys((name for name, _ in selected), 0)
    _run = ({name: None for name, _ in selected if any(
        name in criteria for _, _, criteria in _TASKS)}, elapsed_ns, {})
    try:
        for name, fn in selected:
            try:
                ok, detail = fn(quick=quick)
            except (TriangulationError, AssertionError) as exc:
                ok, detail = False, f"raised {exc}"
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            if not ok:
                failures.append({"check": name, "detail": detail})
    finally:
        _run = None
    return {"lines": lines, "passed": len(lines) - len(failures),
            "failed": len(failures), "failures": failures,
            "elapsed_ns": elapsed_ns}
