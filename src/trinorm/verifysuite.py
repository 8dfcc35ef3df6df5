"""Acceptance grid: every check the package promises, one line per check.

Each criterion is exact (integer equalities); there are no tolerances.
The same driver backs the command line ``verify`` subcommand and the
acceptance test module.
"""

from __future__ import annotations

import os
import random
import time
from itertools import chain, combinations, islice, product

from . import build, homology, cocycle, surface, analyze
from .cocycle import TetType
from .triangulation import TriangulationError


def _usable_cpus():
    """How many CPUs this process may run on."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


# True while ``run`` runs: only then does a criterion fork a child for its
# second share
_forking = False


def _in_shares(walk, arg):
    """Run ``walk(share, arg)`` for shares 0 and 1 of a criterion's grid
    and combine the ``(count, failure)`` pairs they return: the counts
    summed, or the first failure of share 0, else that of share 1, with
    the count before it.  An exception a share raises propagates alike.

    A grid is split by one of two rules.  The fraction tree splits at its
    first branch (``build.lst_tree(depth, share)``), as its nodes are built
    from their parents; every other grid is dealt alternately
    (``_dealt``), so each member is built only in the share that checks it.

    Inside ``run`` with more than one usable CPU this process forks one
    child that walks share 1 and sends back its pair or its exception
    over a pipe, while share 0 is walked here; otherwise both run here,
    share 0 first, stopping at its failure.  A failure or exception of
    share 0 is reported without waiting for the child.  The child is
    killed and reaped before this returns, and one that dies before it
    sends fails only this criterion, with its exit code (minus the signal
    number if a signal ended it).
    """
    if not _forking or _usable_cpus() < 2:
        n, failure = walk(0, arg)
        if failure is None:
            more, failure = walk(1, arg)
            n += more
        return n, failure
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    reader, writer = fork.Pipe(duplex=False)
    child = fork.Process(target=_send_share, args=(walk, arg, writer))
    child.start()
    writer.close()
    try:
        n, failure = walk(0, arg)
        if failure is not None:
            return n, failure
        try:
            other = reader.recv()
        except EOFError:
            child.join()
            return n, f"a worker process died: exit code {child.exitcode}"
    finally:
        reader.close()
        child.kill()
        child.join()
    if isinstance(other, Exception):
        raise other
    return n + other[0], other[1]


def _send_share(walk, arg, writer):
    """In the forked child: send share 1's pair, or the exception it
    raised."""
    try:
        result = walk(1, arg)
    except Exception as exc:
        result = exc
    writer.send(result)


def _dealt(items, share):
    """Share 0 or 1 of ``items`` dealt alternately: every other item, from
    the first or from the second."""
    return islice(items, share, None, 2)


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


def check_lst_counts(quick=False):
    depth = 8 if quick else 12
    n, failure = _in_shares(_lst_counts_share, depth)
    return failure is None, (
        failure or f"{n} layered solid tori checked to depth {depth}")


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


def check_fold_homology(quick=False):
    depth = 6 if quick else 10
    n, failure = _in_shares(_fold_homology_share, depth)
    return failure is None, (
        failure or f"{n} folds matched the lens table to depth {depth}")


def check_one_tet_folds(quick=False):
    for w, expect in ((2, 4), (1, 5), (3, 1)):
        folded, meta, rec = build.lens_space(1, 2, fold_weight=w)
        h = homology.first_homology(folded)
        if h.betti or h.order != expect or rec.lens_a != expect:
            return False, f"fold along {w}: got {h}, expected order {expect}"
    return True, "one-tetrahedron folds give orders 4, 5, 1"


def check_balanced_family(quick=False):
    ns = range(3, 9) if quick else range(3, 13)
    for n in ns:
        tri, meta, rec = build.lens_space(1, 2 * n - 2)
        if tri.tet_count != 2 * n - 3:
            return False, f"L({2*n},1): {tri.tet_count} tetrahedra"
        phis = cocycle.all_nonzero_classes(tri)
        if len(phis) != 1:
            return False, f"L({2*n},1): {len(phis)} classes"
        rep = analyze.fundamental_report(tri, phis[0], k_phi=0)
        census = rep.census
        ok = (census.even_edges == n - 1 and census.odd_edges == n - 1
              and rep.chi == 2 - n and census.tri_tets == 0
              and rep.eq1_lhs == 2 and rep.eq1_rhs == 2 and rep.balanced)
        if not ok:
            return False, (f"L({2*n},1): e={census.even_edges} o={census.odd_edges} "
                           f"chi={rep.chi} eq1={rep.eq1_lhs}/{rep.eq1_rhs}")
    return True, f"balanced L(2n,1) exact for n in {ns.start}..{ns.stop - 1}"


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
    """The triangulation of one member of the family grid."""
    if tag == "Q":
        return build.layered_loop(*params, twisted=True)
    return build.seifert_family(tag, *params)[0]


def _family_grid(quick=False):
    """(tag, params, tri) for the family grid."""
    return [(*member, _member(*member)) for member in _family_params(quick)]


def _lens_grid(depth, share=None):
    """(node, w, folded) for the three folds of every fraction-tree node to
    the given depth, along p, q and p+q, in the walker's depth-first
    order; ``share`` as for ``build.lst_tree``."""
    for node, tri, meta in build.lst_tree(depth, share):
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


def check_chi_two_methods(quick=False):
    n, failure = _in_shares(_chi_two_methods_share, quick)
    return failure is None, (
        failure or f"cell count equals census formula on {n} surfaces")


def _check_seifert_family(tag, name, quick, rank, tets, norm_sum):
    """Tetrahedron count, Z/2 rank and canonical-surface norm sum of every
    member (k, m, n) of an augmented family, as functions of k + m + n."""
    count = 0
    for _, kmn in _mm_params((tag,), quick):
        tri = _member(tag, kmn)
        label, s = f"{name}{kmn}", sum(kmn)
        h = homology.first_homology(tri)
        phis = cocycle.all_nonzero_classes(tri)
        if tri.tet_count != tets(s):
            return False, f"{label}: {tri.tet_count} tetrahedra"
        if h.z2_rank != rank or len(phis) != 2 ** rank - 1:
            return False, f"{label}: rank {h.z2_rank}"
        total = sum(-surface.canonical_surface(tri, phi).chi for phi in phis)
        if total != norm_sum(s):
            return False, f"{label}: norm sum {total}"
        count += 1
    return True, f"family {name} exact on {count} instances"


def check_family_m(quick=False):
    return _check_seifert_family("M", "M", quick, rank=1,
                                 tets=lambda s: 2 * s + 2,
                                 norm_sum=lambda s: s)


def check_family_mprime(quick=False):
    return _check_seifert_family("MPRIME", "M'", quick, rank=2,
                                 tets=lambda s: 2 * s + 3,
                                 norm_sum=lambda s: 2 * s)


def check_quaternionic(quick=False):
    ks = (4, 6) if quick else (4, 6, 8, 10)
    for k in ks:
        tri = build.layered_loop(k, twisted=True)
        h = homology.first_homology(tri)
        if tri.tet_count != k or h.invariant_factors != (2, 2) or h.betti:
            return False, f"loop {k}: {h}"
        phis = cocycle.all_nonzero_classes(tri)
        klein = 0
        for phi in phis:
            types = cocycle.classify_tetrahedra(tri, phi)
            if any(ty is not TetType.QUAD for ty, _ in types):
                return False, f"loop {k}: non-quad tetrahedron"
            canon = surface.canonical_surface(tri, phi, types)
            chi, orientable, connected = surface.surface_classify(
                tri, canon.coord, canon.chi)
            if chi == 0 and connected and not orientable:
                klein += 1
        if klein != 1:
            return False, f"loop {k}: {klein} Klein classes"
        kinds = {kind for _, _, kind in surface.twisted_square_scan(tri)}
        if "klein" not in kinds:
            return False, f"loop {k}: no Klein square ({kinds})"
    return True, f"twisted loops exact for k in {ks}"


def _octagon_items(quick):
    """(name, tri, canon, b) for the b-modifications
    ``check_octagon_formula`` makes: every subset b of the kernel edges of
    every class of every instance, by size and then lexicographically, each
    class with its canonical surface.  A class with more than 12 kernel
    edges yields (name, tri, None, evens) in their place, and ends the
    walk."""
    instances = [(f"loop{k}", build.layered_loop(k, twisted=True))
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
    checked = 0
    for name, tri, canon, b in _dealt(_octagon_items(quick), share):
        if canon is None:
            return checked, f"{name}: {len(b)} kernel edges"
        # b_modification checks the formula by cell count
        try:
            _, octs, _ = surface.b_modification(tri, canon, b)
        except AssertionError as exc:
            return checked, f"{name}: {exc}"
        if name.startswith("loop") and octs < len(b):
            return checked, f"{name}: o(b) < |b| at {b}"
        checked += 1
    return checked, None


def check_octagon_formula(quick=False):
    checked, failure = _in_shares(_octagon_share, quick)
    return failure is None, (
        failure or f"octagon count formula on {checked} modifications")


def check_formal_solutions(quick=False):
    n = 0
    instances = [tri for _, _, tri in _family_grid(quick=True)]
    instances.append(build.lens_space(1, 6)[0])
    for tri in instances:
        edges, tets, fchi = surface.special_solutions(tri)
        for sol in edges:
            if fchi(sol) != 2:
                return False, "edge solution with formal chi != 2"
            n += 1
        for sol in tets:
            if fchi(sol) != 1:
                return False, "tetrahedral solution with formal chi != 1"
            n += 1
        link = surface.vertex_link(tri)
        if fchi(link) != surface.euler_char(tri, link):
            return False, "formal chi disagrees with cell count on the link"
    return True, f"{n} special solutions have formal chi 2 and 1"


def _interior_faces(tri):
    """Face classes a 2-3 move applies to: interior, not self-glued, and
    between two distinct tetrahedra."""
    sk = tri.skeleton
    return [c for c, x in enumerate(sk.face_first)
            if x not in sk.boundary_facets and x not in sk.self_glued_facets
            and tri.gluing(*divmod(x, 4))[0] != x // 4]


def _round_trips(quick):
    """(tri, faces) for the 2-3/3-2 round trips of ``check_moves``: the
    pool member each trip starts from and its interior faces in the seeded
    shuffle, whose first face the trip moves on."""
    rng = random.Random(20260810)
    pool = [build.lens_space(1, 6)[0], build.lens_space(1, 8)[0],
            build.layered_loop(6, twisted=True),
            build.seifert_family("M", 1, 1, 1)[0]]
    interior = [_interior_faces(tri) for tri in pool]
    for done in range(30 if quick else 100):
        faces = list(interior[done % len(pool)])
        rng.shuffle(faces)
        yield pool[done % len(pool)], faces


def _moves_share(share, quick):
    """The round trips dealt to share ``share``; share 1 then checks the
    4-4 flip."""
    done = 0
    for tri, faces in _dealt(_round_trips(quick), share):
        if not faces:
            return done, "no usable 2-3 site"
        h0 = homology.first_homology(tri)
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


def _all_quad_flip():
    """None if the 4-4 flip of an all-quad octahedron gives four
    triangle-type tetrahedra, else what went wrong."""
    # all-quad octahedron: deterministic hunt via seeded 2-3 moves
    found = None
    base = build.layered_loop(6, twisted=True)
    for phi0 in cocycle.all_nonzero_classes(base):
        for trial in range(40):
            tri, phi = base, phi0
            srng = random.Random(600 + trial)
            for _ in range(3):
                faces = _interior_faces(tri)
                if not faces:
                    break
                f = srng.choice(faces)
                tri, phi = analyze.pachner_with_cocycle(
                    tri, phi, analyze.MoveSpec("23", face=f))
                sites = []
                types = cocycle.classify_tetrahedra(tri, phi)
                for e, slots in enumerate(tri.skeleton.edge_slots()):
                    if len(slots) != 4 or phi[e]:
                        continue
                    tets = {x // 6 for x in slots}
                    if len(tets) == 4 and all(
                            types[t][0] is TetType.QUAD for t in tets):
                        sites.append(e)
                if sites:
                    found = (tri, phi, sites[0])
                    break
            if found:
                break
        if found:
            break
    if not found:
        return "no all-quad octahedron located"
    tri, phi, edge = found
    h0 = homology.first_homology(tri)
    flipped, phi2 = analyze.pachner_with_cocycle(
        tri, phi, analyze.MoveSpec("44", edge=edge, axis=0))
    h1 = homology.first_homology(flipped)
    if h1 != h0:
        return "4-4 move changed homology"
    newtypes = cocycle.classify_tetrahedra(flipped, phi2)[-4:]
    if any(ty is not TetType.TRI for ty, _ in newtypes):
        return f"4-4 on all-quad octahedron gave {newtypes}"
    return None


def check_moves(quick=False):
    done, failure = _in_shares(_moves_share, quick)
    return failure is None, (
        failure or f"{done} 2-3/3-2 round trips, homology invariant, "
                   "all-quad 4-4 flip gives four triangle tetrahedra")


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


def check_lst_recognition(quick=False):
    n, failure = _in_shares(_lst_recognition_share, quick)
    return failure is None, failure or f"{n} recognition checks"


def check_fundamental_identity(quick=False):
    rng = random.Random(1789)
    n = 0
    instances = _closed_instances()
    vector_budget = 60 if quick else 200
    for tri in instances:
        for phi in cocycle.all_nonzero_classes(tri):
            analyze.fundamental_report(tri, phi)  # raises on violation
            n += 1
    randoms = 0
    closed_one_vertex = [t for t in instances
                         if t.skeleton.vertex_count == 1]
    while randoms < vector_budget:
        tri = closed_one_vertex[randoms % len(closed_one_vertex)]
        basis = cocycle.cocycle_basis(tri)
        if not basis:
            randoms += 1
            continue
        acc = None
        for phi in basis:
            if rng.random() < 0.5:
                acc = phi if acc is None else acc + phi
        if acc is None or acc.is_zero:
            acc = basis[0]
        analyze.fundamental_report(tri, acc)
        randoms += 1
        n += 1
    return True, f"degree identity asserted on {n} colourings"


def check_lint_identity(quick=False):
    n = 0
    for tri in _closed_instances():
        sk = tri.skeleton
        if not tri.is_closed or sk.vertex_count != 1:
            continue
        if sk.edge_count != tri.tet_count + 1:
            return False, "E != T + 1"
        total = sum((6 - d) * c for d, c in sk.degree_histogram().items())
        if total != 6:
            return False, f"sum (6-i) E_i = {total}"
        n += 1
    return True, f"E = T+1 and sum (6-i)E_i = 6 on {n} closed instances"


CHECKS = (
    ("lst_counts", check_lst_counts),
    ("fold_homology", check_fold_homology),
    ("one_tet_folds", check_one_tet_folds),
    ("balanced_family", check_balanced_family),
    ("chi_two_methods", check_chi_two_methods),
    ("family_m", check_family_m),
    ("family_mprime", check_family_mprime),
    ("quaternionic", check_quaternionic),
    ("octagon_formula", check_octagon_formula),
    ("formal_solutions", check_formal_solutions),
    ("moves", check_moves),
    ("lst_recognition", check_lst_recognition),
    ("fundamental_identity", check_fundamental_identity),
    ("lint_identity", check_lint_identity),
)


def run(only=None, quick=False):
    """Run the acceptance checks; returns a printable summary, with each
    criterion's wall time in nanoseconds under ``elapsed_ns``.  Each
    criterion that splits into shares walks its second share in a forked
    child when more than one CPU is usable (``_in_shares``); no child is
    left when this returns."""
    global _forking
    lines = []
    failures = []
    elapsed_ns = {}
    _forking = True
    try:
        for name, fn in CHECKS:
            if only and only not in name:
                continue
            start = time.perf_counter_ns()
            try:
                ok, detail = fn(quick=quick)
            except (TriangulationError, AssertionError) as exc:
                ok, detail = False, f"raised {exc}"
            elapsed_ns[name] = time.perf_counter_ns() - start
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            if not ok:
                failures.append({"check": name, "detail": detail})
    finally:
        _forking = False
    return {"lines": lines, "passed": len(lines) - len(failures),
            "failed": len(failures), "failures": failures,
            "elapsed_ns": elapsed_ns}
