"""Constructors: layered solid tori, folds, loops, augmented families."""

import functools
import hashlib
import itertools
import logging
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from trinorm import analyze, build, homology, cocycle, verifysuite
from trinorm.analyze import find_maximal_lsts
from trinorm.perm import ALL_PERMS, Perm4
from trinorm.triangulation import (EDGE_INDEX, EDGE_VERTICES, FACET_EDGES,
                                   FACET_VERTICES, Triangulation,
                                   TriangulationError, serialize)
from test_skeleton import SKELETON_FIELDS, gluing_tables, reference_glued
from test_triangulation import _raised, _random_relabelling


def test_lst_examples():
    tri, meta = build.lst(1, 2)
    assert tri.tet_count == 1 and meta.boundary_triple == (1, 2, 3)
    tri, meta = build.lst(1, 3)
    assert tri.tet_count == 2 and meta.boundary_triple == (1, 3, 4)
    tri, meta = build.lst(3, 4)
    assert tri.tet_count == 3


def test_lst_rejects_bad_input():
    with pytest.raises(TriangulationError):
        build.lst(2, 4)
    with pytest.raises(TriangulationError):
        build.lst(1, 1)
    with pytest.raises(TriangulationError):
        build.lst(0, 1)


coprime_pairs = st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(
    lambda pq: pq[0] < pq[1] and __import__("math").gcd(*pq) == 1)


@settings(max_examples=30, deadline=None)
@given(coprime_pairs)
def test_lst_counts_property(pq):
    p, q = pq
    tri, meta = build.lst(p, q)
    k = tri.tet_count
    sk = tri.skeleton
    assert sk.vertex_count == 1
    assert sk.edge_count == k + 2
    assert sk.face_count == 2 * k + 1
    assert meta.boundary_triple == (p, q, p + q)
    assert build.meridian_weight_oracle(tri) == meta.edge_weights


def test_meridian_oracle_refuses_what_is_not_a_solid_torus():
    # a closed lens space has one vertex but finite H_1
    with pytest.raises(TriangulationError,
                       match="^H_1 is not infinite cyclic$"):
        build.meridian_weight_oracle(build.lens_space(2, 5)[0])
    # the prism is a solid torus with three vertices
    prism = reference_glued((), build._PRISM_JOINS, 3)
    assert prism.skeleton.vertex_count == 3
    with pytest.raises(TriangulationError,
                       match="^the meridian oracle requires a one-vertex "
                             "complex$"):
        build.meridian_weight_oracle(prism)


def test_meridian_oracle_logs_its_check_and_weights(caplog, capsys):
    tri, _ = build.lst(2, 3)
    closed = build.lens_space(1, 2)[0]
    with caplog.at_level(logging.DEBUG, logger="trinorm.build"):
        build.meridian_weight_oracle(tri)
        with pytest.raises(TriangulationError):
            build.meridian_weight_oracle(closed)
    lines = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert lines == [
        ("trinorm.build", "DEBUG", "meridian_weight_oracle: 4 edges, d2 of "
         "rank 3 with factors [], H_1 = Z: True"),
        ("trinorm.build", "DEBUG",
         "meridian_weight_oracle: weights [3, 2, 1, 5]"),
        ("trinorm.build", "DEBUG", "meridian_weight_oracle: 2 edges, d2 of "
         "rank 2 with factors [4], H_1 = Z: False"),
    ]
    # the arguments are formatted only when the record is emitted
    assert all(r.msg.count("%") == len(r.args) for r in caplog.records)
    assert capsys.readouterr() == ("", "")


def test_boundary_edge_of_a_missing_weight_is_refused():
    with pytest.raises(TriangulationError,
                       match=r"^no boundary edge of weight 7: the boundary "
                             r"triple is \(1, 2, 3\)$"):
        build.lens_space(1, 2, fold_weight=7)


def test_layering_replacement_rule():
    tri, meta = build.lst(1, 2)
    by_w = {meta.edge_weights[e]: e for e in meta.boundary_edges}
    # weight 2 -> {1,3,4}, isomorphic to lst(1,3)
    t2, m2 = build.layer_on_edge(tri, by_w[2], meta)
    assert m2.boundary_triple == (1, 3, 4)
    assert t2.isomorphic(build.lst(1, 3)[0])
    # weight 1 -> {2,3,5}
    t3, m3 = build.layer_on_edge(tri, by_w[1], meta)
    assert m3.boundary_triple == (2, 3, 5)
    # weight 3 (the sum) reintroduces the degenerate {1,1,2} boundary
    t4, m4 = build.layer_on_edge(tri, by_w[3], meta)
    assert m4.boundary_triple == (1, 1, 2)


def test_fold_records():
    tri, meta = build.lst(1, 2)
    for w, lens in ((1, (5, 2)), (2, (4, 1)), (3, (1, 1))):
        edge = next(e for e in meta.boundary_edges
                    if meta.edge_weights[e] == w)
        folded, rec = build.fold_along_edge(tri, edge, meta)
        assert (rec.lens_a, rec.lens_b) == lens
        h = homology.first_homology(folded)
        assert h.order == rec.lens_a and h.betti == 0
        assert folded.is_closed and folded.skeleton.vertex_count == 1


def test_fold_merges_boundary_edges():
    tri, meta = build.lst(2, 5)
    edge = next(e for e in meta.boundary_edges if meta.edge_weights[e] == 2)
    folded, _ = build.fold_along_edge(tri, edge, meta)
    assert folded.skeleton.edge_count == tri.skeleton.edge_count - 1
    assert folded.skeleton.edge_count == folded.tet_count + 1


def test_lgraph_nodes():
    nodes = build.lgraph(2)
    assert [(n.p, n.q) for n in nodes] == [(1, 2), (1, 3), (2, 3)]
    root = nodes[0]
    assert (root.e_bar, root.o_bar) == (1, 2)
    # chain nodes 1/(2n-2) carry weights 1..2n-1
    for n in (3, 4, 5):
        ws = build.lst_weight_multiset(1, 2 * n - 2)
        assert sorted(ws) == list(range(1, 2 * n))
        assert sum(1 for w in ws if w % 2) - sum(1 for w in ws if w % 2 == 0) == 1


def test_deficiency_convention():
    # the balanced chain has odd-minus-even deficiency one
    node = next(n for n in build.lgraph(4) if (n.p, n.q) == (1, 4))
    assert node.deficiency == 1


def test_enumerate_minimal_lens_families():
    rows = build.enumerate_minimal_lens_families(6)
    kinds = {}
    for node, rec, cls in rows:
        kinds.setdefault(cls, []).append((node.p, node.q))
    # the balanced chain nodes fold into the balanced family
    assert (1, 4) in kinds["balanced"]
    assert (1, 6) in kinds["balanced"]
    assert "e3=1,e5=1" in kinds
    for node, rec, cls in rows:
        evens = [w for w in (node.p, node.q) if w % 2 == 0]
        assert rec.fold_edge_weight == evens[0]


def test_layered_loop_counts_and_homology():
    for n, factors in ((4, (2, 2)), (5, (4,)), (6, (2, 2)), (10, (2, 2))):
        tri = build.layered_loop(n, twisted=True)
        assert tri.tet_count == n
        sk = tri.skeleton
        assert sk.vertex_count == 1 and sk.edge_count == n + 1
        h = homology.first_homology(tri)
        assert h.invariant_factors == factors and h.betti == 0
    with pytest.raises(TriangulationError):
        build.layered_loop(2, twisted=True)


def test_loop_norm_sum_matches_count():
    # 2pq = 2 + sum of the three norms for the quaternionic loops
    for k in (4, 6, 8):
        tri = build.layered_loop(k, twisted=True)
        from trinorm import surface
        total = 0
        for phi in cocycle.all_nonzero_classes(tri):
            total += -surface.canonical_surface(tri, phi).chi
        assert tri.tet_count == 2 + total


def test_seifert_families():
    tri, params = build.seifert_family("M", 1, 1, 1)
    assert tri.tet_count == 8
    assert homology.first_homology(tri).order == 54

    tri, params = build.seifert_family("M'", 2, 1, 3)
    assert tri.tet_count == 2 * 2 + 2 * 1 + 2 * 3 + 3
    assert params.predicted_homology.z2_rank == 2

    tri, params = build.seifert_family("P", 1)
    h = homology.first_homology(tri)
    assert h.order == 4 * (6 * 1 + 1) and h.z2_rank == 2

    tri, params = build.seifert_family("Q", 6)
    assert tri.tet_count == 6
    assert homology.first_homology(tri).order == 4

    with pytest.raises(TriangulationError):
        build.seifert_family("Q", 5)
    with pytest.raises(TriangulationError):
        build.seifert_family("X", 1, 1, 1)


def test_augmented_quaternionic_is_one_bigger():
    for k in (4, 6):
        aug = build.augmented_quaternionic(k)
        assert aug.tet_count == k + 1
        h = homology.first_homology(aug)
        assert h.order == 4
        assert not aug.isomorphic(build.layered_loop(k, twisted=True))


def test_augmented_rejects_bad_weights():
    with pytest.raises(TriangulationError,
                       match=r"^weights \[2, 2, 4\] are not coprime$"):
        build.augmented_solid_torus((
            build.AnnulusFilling("lst", w_h=2, w_d=2, w_v=4),
            build.AnnulusFilling("fold"),
            build.AnnulusFilling("fold"),
        ))
    with pytest.raises(TriangulationError,
                       match=r"^unknown filling kind 'weird'$"):
        build.augmented_solid_torus((
            build.AnnulusFilling("weird"),
            build.AnnulusFilling("fold"),
            build.AnnulusFilling("lst", w_h=3, w_d=1, w_v=4),
        ))


def test_seifert_oracle_logs_both_groups(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="trinorm.build"):
        build.seifert_family("M", 1, 2, 1)
        build.seifert_family("Q", 6)
        build.augmented_quaternionic(4)
    lines = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert lines == [
        ("trinorm.build", "DEBUG",
         "seifert_family M(1, 2, 1): Seifert H1 Z/84, built H1 Z/84"),
        ("trinorm.build", "DEBUG",
         "seifert_family Q(6,): Seifert H1 Z/2 + Z/2, built H1 Z/2 + Z/2"),
        ("trinorm.build", "DEBUG",
         "augmented_quaternionic(4): Seifert H1 Z/2 + Z/2, "
         "built H1 Z/2 + Z/2"),
    ]
    # the arguments are formatted only when the record is emitted
    assert all(r.msg.count("%") == len(r.args) for r in caplog.records)
    assert capsys.readouterr() == ("", "")


# thirteen fillings per annulus: the fold, and layered solid tori on every
# order of the weights (1, 2, 3) and (1, 3, 4)
_FILLINGS = ((build.AnnulusFilling("fold"),)
             + tuple(build.AnnulusFilling("lst", w_h=h, w_d=d, w_v=v)
                     for triple in ((1, 2, 3), (1, 3, 4))
                     for h, d, v in itertools.permutations(triple)))


def test_every_filling_triple_is_closed_and_valid():
    for fillings in itertools.product(_FILLINGS, repeat=3):
        tri = build.augmented_solid_torus(fillings)
        assert tri.is_closed and tri.is_valid


def _filling_refusal(fillings):
    """The text ``augmented_solid_torus`` refuses three fillings with, or
    None: the first filling of an unknown kind, and else the first torus
    filling, in annulus order, whose weights are no coprime boundary
    triple or whose torus ``lst`` refuses."""
    for filling in fillings:
        if filling.kind not in ("fold", "lst"):
            return f"unknown filling kind {filling.kind!r}"
    for filling in fillings:
        if filling.kind != "lst":
            continue
        triple = sorted((filling.w_h, filling.w_d, filling.w_v))
        if triple[0] + triple[1] != triple[2]:
            return (f"weights {triple} do not form a solid torus boundary "
                    f"triple")
        if math.gcd(triple[0], triple[1]) != 1:
            return f"weights {triple} are not coprime"
        try:
            build.lst(triple[0], triple[1])
        except TriangulationError as exc:
            return str(exc)
    return None


_coprime_triples = st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
    lambda pq: math.gcd(*pq) == 1).flatmap(
    lambda pq: st.permutations((pq[0], pq[1], pq[0] + pq[1])))
_annulus_fillings = st.one_of(
    st.just(build.AnnulusFilling("fold")),
    st.just(build.AnnulusFilling("weird")),
    _coprime_triples.map(lambda w: build.AnnulusFilling("lst", *w)),
    st.tuples(*[st.integers(1, 8)] * 3).map(
        lambda w: build.AnnulusFilling("lst", *w)))


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[_annulus_fillings] * 3))
@example((build.AnnulusFilling("lst", 2, 2, 4), build.AnnulusFilling("weird"),
          build.AnnulusFilling("fold")))
def test_drawn_fillings_pass_the_whole_table_check(fillings):
    # each torus's gluings are re-joined at its offset: the table equals
    # its own whole-table check, or is refused with the expected text
    expected = _filling_refusal(fillings)
    try:
        tri = build.augmented_solid_torus(fillings)
    except TriangulationError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert Triangulation(tri.gluings) == tri
        assert tri.is_closed and tri.is_valid


def test_mixed_filling_assignments_are_pinned():
    # every assignment of a fold and two tori to the three annuli, so a
    # fold is joined before, between and after the tori
    fillings = (build.AnnulusFilling("fold"),
                build.AnnulusFilling("lst", w_h=3, w_d=1, w_v=4),
                build.AnnulusFilling("lst", w_h=5, w_d=2, w_v=7))
    digest = hashlib.sha256()
    for assignment in itertools.product(fillings, repeat=3):
        digest.update(serialize(build.augmented_solid_torus(assignment))
                      .encode())
    assert digest.hexdigest() == \
        "d910eb0964a42ac9bdb0b200b7846ac677a1ffdb277625a1a72bef64d6e22c0e"


# ----- the face-onto-face rule ---------------------------------------------------

# The prism's annuli by edge role, kept as the reference for
# ``PRISM_ANNULI`` and ``_face_map``: each triangle's (tet, facet) and the
# vertex pair of its horizontal, diagonal and vertical edge
_REFERENCE_ANNULI = (
    {"tri1": (1, 3), "tri2": (2, 3),
     "edges1": {"h": (0, 1), "d": (0, 2), "v": (1, 2)},
     "edges2": {"h": (1, 2), "d": (0, 2), "v": (0, 1)}},
    {"tri1": (0, 0), "tri2": (1, 0),
     "edges1": {"h": (1, 2), "d": (1, 3), "v": (2, 3)},
     "edges2": {"h": (2, 3), "d": (1, 3), "v": (1, 2)}},
    {"tri1": (0, 1), "tri2": (2, 2),
     "edges1": {"h": (0, 2), "d": (0, 3), "v": (2, 3)},
     "edges2": {"h": (1, 3), "d": (0, 3), "v": (0, 1)}},
)


def _reference_triangle_map(edges_from, edges_to):
    """Vertex map of a triangle gluing given the three edge correspondences
    {role: (vertex pair)} on both sides: the vertex two roles share goes to
    the vertex they share on the other side."""
    mapping = {}
    roles = list(edges_from)
    for ra in roles:
        for rb in roles:
            if ra == rb:
                continue
            shared_from = set(edges_from[ra]) & set(edges_from[rb])
            shared_to = set(edges_to[ra]) & set(edges_to[rb])
            if len(shared_from) == 1 and len(shared_to) == 1:
                mapping[shared_from.pop()] = shared_to.pop()
    return mapping


def _reference_fold(annulus):
    (t1, f1), (t2, f2) = annulus["tri1"], annulus["tri2"]
    e2 = annulus["edges2"]
    vmap = _reference_triangle_map(
        annulus["edges1"], {"h": e2["d"], "d": e2["h"], "v": e2["v"]})
    vmap[f1] = f2
    return t1, f1, t2, Perm4.from_map(vmap)


def _reference_torus_sides(annulus, filling, meta, offset):
    """The joins of the torus ``meta``'s two boundary faces, at the given
    tetrahedron offset, onto the annulus' two triangles."""
    want = {"h": build.boundary_edge(meta, filling.w_h),
            "d": build.boundary_edge(meta, filling.w_d),
            "v": build.boundary_edge(meta, filling.w_v)}
    joins = []
    for side, (lt, lf) in enumerate(meta.book.faces):
        key = str(side + 1)
        tp, fp = annulus["tri" + key]
        vmap = _reference_triangle_map(
            {role: meta.book.edges[e][side] for role, e in want.items()},
            annulus["edges" + key])
        vmap[lf] = fp
        joins.append((lt + offset, lf, tp, Perm4.from_map(vmap)))
    return joins


def test_annulus_joins_match_the_role_rule():
    # every order of each coprime boundary triple with p, q <= 12, on each
    # annulus, the other two folded: the built table holds the reference's
    # fold joins and torus sides
    assert build._PRISM_FOLDS == tuple(map(_reference_fold, _REFERENCE_ANNULI))
    seen = 0
    for q in range(2, 13):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            _, meta = build.lst(p, q)
            for weights in itertools.permutations((p, q, p + q)):
                torus = build.AnnulusFilling("lst", *weights)
                for i, annulus in enumerate(_REFERENCE_ANNULI):
                    fillings = [build.AnnulusFilling("fold")] * 3
                    fillings[i] = torus
                    tri = build.augmented_solid_torus(fillings)
                    joins = _reference_torus_sides(annulus, torus, meta, 3)
                    joins += [_reference_fold(other)
                              for other in _REFERENCE_ANNULI
                              if other is not annulus]
                    for t, f, u, perm in joins:
                        assert tri.gluing(t, f) == (u, perm)
                    seen += 1
    assert seen == 3 * 6 * 45


def test_face_map_matches_an_explicit_vertex_map():
    seen = 0
    for f, g in itertools.product(range(4), repeat=2):
        f_vertices = [v for v in range(4) if v != f]
        g_vertices = [v for v in range(4) if v != g]
        for a, b in itertools.permutations(f_vertices, 2):
            for c, d in itertools.permutations(g_vertices, 2):
                (x,) = set(f_vertices) - {a, b}
                (y,) = set(g_vertices) - {c, d}
                assert build._face_map(f, (a, b), g, (c, d)) == \
                    Perm4.from_map({a: c, b: d, x: y, f: g})
                seen += 1
    assert seen == 576


def _distinct_star_edges(tri, degree):
    """The edge classes of the given degree that meet that many distinct
    tetrahedra: the sites of a 3-2 or 4-4 move."""
    return [e for e, slots in enumerate(tri.skeleton.edge_slots())
            if len(slots) == len({x // 6 for x in slots}) == degree]


def _library_tables():
    """A grid of the tables the library makes: the seed, layered loops,
    the family grid, augmented quaternionic tori, and every 4-4 and 2-3
    move on verify's round-trip pool, with the 3-2 and 4-4 moves on each
    2-3 result."""
    yield build._SEED[0]
    for n in range(3, 13):
        for twisted in (False, True):
            yield build.layered_loop(n, twisted)
    for member in verifysuite._family_params():
        yield verifysuite._member(*member)
    for k in range(4, 17, 2):
        yield build.augmented_quaternionic(k)
    pool = [build.lens_space(1, 6)[0], build.lens_space(1, 8)[0],
            build.layered_loop(6, twisted=True),
            build.seifert_family("M", 1, 1, 1)[0]]
    for tri in pool:
        for e in _distinct_star_edges(tri, 4):
            for axis in (0, 1):
                yield analyze.move44(tri, e, axis)[0]
        for face in verifysuite._interior_faces(tri):
            bigger = analyze.move23(tri, face)[0]
            yield bigger
            for e in _distinct_star_edges(bigger, 4):
                for axis in (0, 1):
                    yield analyze.move44(bigger, e, axis)[0]
            for e in _distinct_star_edges(bigger, 3):
                yield analyze.move32(bigger, e)[0]


def test_library_tables_pass_the_whole_table_check():
    # Triangulation.glued checks only the entries it writes; the whole
    # table, checked afresh, is the same table
    count = 0
    for tri in _library_tables():
        assert Triangulation(tri.gluings) == tri
        count += 1
    assert count == 327


def test_library_tables_are_pinned():
    digest = hashlib.sha256()
    for tri in _library_tables():
        digest.update(serialize(tri).encode())
    assert digest.hexdigest() == \
        "c9d67535f19883f3bed74513b7d08fe280eccea80caf66d7ddd0693233ab8e32"


def test_closed_constructions_are_orientable_one_vertex():
    samples = [build.lens_space(2, 3)[0],
               build.layered_loop(7, twisted=True),
               build.seifert_family("M", 1, 2, 1)[0],
               build.seifert_family("P", 2)[0]]
    for tri in samples:
        assert tri.is_closed and tri.is_orientable
        assert tri.skeleton.vertex_count == 1


def test_equivalent_lens_folds_coincide():
    # the two-tetrahedron folds of order seven come from different nodes
    # but give the same layered triangulation
    a, _, _ = build.lens_space(1, 3, fold_weight=1)
    b, _, _ = build.lens_space(2, 3, fold_weight=3)
    assert a.isomorphic(b)


def test_lst_tree_matches_lst():
    # the incremental walker against the from-scratch construction
    seen = 0
    for node, tri, meta in build.lst_tree(9):
        assert (tri, meta) == build.lst(node.p, node.q)
        assert tri.tet_count == node.depth
        seen += 1
    assert seen == 2 ** 9 - 1


def test_lgraph_is_walker_order_by_depth():
    walked = [node for node, _, _ in build.lst_tree(8)]
    assert build.lgraph(8) == sorted(walked, key=lambda n: n.depth)


def _reference_lens_families(depth_limit):
    """The census the slow way: lens_space from scratch per lgraph node."""
    rows = []
    for node in build.lgraph(depth_limit):
        evens = [w for w in (node.p, node.q) if w % 2 == 0]
        if not evens:
            continue
        tri, _, record = build.lens_space(node.p, node.q, fold_weight=evens[0])
        classes = cocycle.all_nonzero_classes(tri)
        assert len(classes) == 1
        census = cocycle.parity_census(tri, classes[0])
        hist = census.even_degree_histogram
        others = {d: c for d, c in hist.items() if d != 4}
        if census.balanced and others == {3: 2}:
            rows.append((node, record, "balanced"))
        elif others == {3: 1, 5: 1}:
            rows.append((node, record, "e3=1,e5=1"))
        elif others == {3: 2, 6: 1}:
            rows.append((node, record, "e3=2,e6=1"))
    return rows


@pytest.mark.parametrize("depth", range(3, 9))
def test_enumerate_matches_from_scratch_reference(depth):
    assert build.enumerate_minimal_lens_families(depth) == \
        _reference_lens_families(depth)


# ----- the census walk against the full walk ---------------------------------
#
# The library reads its rows off the layering rule and builds only them.
# The full walk below is the oracle: it folds and colours every node with
# an even weight, and the census must agree with it.


@functools.lru_cache(maxsize=None)
def _full_walk(depth_limit):
    """(node, record, class) for the fold of every node of ``lst_tree``
    with an even weight, class None for no row; ``_fold_class`` asserts
    the unique class and the impossible histogram on each."""
    folds = []
    for node, tri, meta in build.lst_tree(depth_limit):
        evens = [w for w in (node.p, node.q) if w % 2 == 0]
        if evens:
            folds.append((node, *build._fold_class(tri, meta, evens[0])))
    return tuple(folds)


# the deepest full walk: a shallower one is its restriction, since a
# preorder walk cut at a depth visits the rest in the same order
FULL_WALK_DEPTH = 13


def _census_states(depth_limit):
    """The census walk's (edges, buried) at every node to the given depth,
    by (p, q), layered by ``_census_layer`` with no subtree skipped."""
    states = {}
    level = [(build._SEED_EDGES, ())]
    for _ in range(depth_limit):
        for edges, buried in level:
            states[tuple(sorted(w for w, _ in edges)[:2])] = edges, buried
        level = [build._census_layer(edges, buried, gone)
                 for edges, buried in level
                 for gone in sorted(w for w, _ in edges)[:2]]
    return states


def _interior_even_degrees(tri, meta):
    """The sorted degrees other than 4 of the torus's interior even
    edges, read off its skeleton."""
    degrees = tri.skeleton.edge_degrees
    return tuple(sorted(degrees[e] for e in meta.interior_edges
                        if meta.edge_weights[e] % 2 == 0
                        and degrees[e] != 4))


def test_census_layer_matches_the_skeleton_at_every_node():
    states = _census_states(12)
    for node, tri, meta in build.lst_tree(12):
        edges, buried = states[node.p, node.q]
        assert edges == tuple((meta.edge_weights[e],
                               tri.skeleton.edge_degrees[e])
                              for e in meta.boundary_edges)
        assert buried == _interior_even_degrees(tri, meta)
    assert len(states) == 2 ** 12 - 1


def test_census_class_matches_the_built_fold_on_every_even_fold():
    # "no row" too, and the subtrees the walk skips
    states = _census_states(11)
    folds = [fold for fold in _full_walk(FULL_WALK_DEPTH)
             if fold[0].depth <= 11]
    for node, _, built in folds:
        assert build._census_class(*states[node.p, node.q],
                                   node.deficiency) == built
    assert len(folds) == 1365
    # a node whose buried degrees do not fit, and so each node under it
    skipped = [built for node, _, built in folds
               if states[node.p, node.q][1] not in build._FITTING]
    assert len(skipped) == 900 and not any(skipped)


@pytest.mark.parametrize("depth", range(3, FULL_WALK_DEPTH + 1))
def test_census_equals_the_full_walk(depth):
    rows = [(node, record, cls)
            for node, record, cls in _full_walk(FULL_WALK_DEPTH)
            if cls is not None and node.depth <= depth]
    rows.sort(key=lambda row: row[0].depth)
    assert build.enumerate_minimal_lens_families(depth) == rows


def test_census_counts_follow_the_closed_forms():
    # read off the integer walk alone, no torus built
    counts = Counter((node.depth, cls)
                     for node, cls, _ in build._census_walk(18, Counter()))
    expected = {}
    for d in range(3, 19):
        if d % 2:
            expected[d, "balanced"] = 2 ** ((d - 1) // 2)
        else:
            expected[d, "e3=1,e5=1"] = 2 ** (d // 2)
            if d >= 6:
                expected[d, "e3=2,e6=1"] = (d - 4) // 2 * 2 ** ((d - 2) // 2)
    assert counts == expected
    assert sum(n for (d, _), n in counts.items() if d <= 16) == 2046
    assert sum(counts.values()) == 4606


def test_census_refuses_a_row_whose_fold_disagrees(monkeypatch):
    def wrong(edges, buried, deficiency):
        cls = predicted(edges, buried, deficiency)
        return "e3=2,e6=1" if cls == "balanced" else cls
    predicted = build._census_class
    monkeypatch.setattr(build, "_census_class", wrong)
    with pytest.raises(AssertionError, match="the fold of 1/4 is balanced"):
        build.enumerate_minimal_lens_families(3)


def test_census_logs_its_walk(caplog):
    with caplog.at_level(logging.DEBUG, logger="trinorm.build"):
        rows = build.enumerate_minimal_lens_families(8)
    assert [r.getMessage() for r in caplog.records
            if r.name == "trinorm.build"] == [
        "enumerate_minimal_lens_families(8): 142 nodes walked, 29 subtrees "
        "skipped, 87 tori built, 62 rows"]
    assert len(rows) == 62


# ----- the skeleton-based layering, kept as the reference -------------------
#
# The boundary readers below are the library's route to a torus boundary
# before every torus carried its book, kept here word for word.


def _boundary_face_slots(tri):
    slots = [divmod(x, 4) for x in tri.skeleton.boundary_facets]
    if len(slots) != 2:
        raise TriangulationError(
            f"expected a two-triangle boundary, found {len(slots)} free facets")
    return slots


def _boundary_edge_slot(tri, face_slot, edge_class):
    """Directed endpoints (head first in the class orientation) of the
    given edge class inside a boundary face."""
    sk = tri.skeleton
    t, f = face_slot
    for ei in FACET_EDGES[f]:
        idx, sign = sk.edge_class[6 * t + ei], sk.edge_sign[6 * t + ei]
        if idx == edge_class:
            a, b = EDGE_VERTICES[ei]
            return (a, b) if sign > 0 else (b, a)
    raise TriangulationError("edge class does not lie in that boundary face")


def check_torus_boundary(tri):
    """The boundary must be a one-vertex torus: two faces sharing three
    edge classes, each class appearing once in each face."""
    (t1, f1), (t2, f2) = _boundary_face_slots(tri)
    sk = tri.skeleton

    def face_edges(t, f):
        return sorted(sk.edge_class[6 * t + ei] for ei in FACET_EDGES[f])

    c1 = face_edges(t1, f1)
    c2 = face_edges(t2, f2)
    if c1 != c2 or len(set(c1)) != 3:
        raise TriangulationError("boundary is not a one-vertex torus")
    return (t1, f1), (t2, f2), tuple(c1)


def _skeleton_book(tri):
    """The book of an arbitrary triangulation, read off its skeleton."""
    face1, face2, classes = check_torus_boundary(tri)
    return build.Book((face1, face2), {
        e: tuple(_boundary_edge_slot(tri, face, e) for face in (face1, face2))
        for e in classes})


def _reference_open_book(tri, edge_class):
    """For each of the two boundary faces of tri, (tet, facet, a, b, c),
    all read off tri's skeleton."""
    slot1, slot2, bclasses = check_torus_boundary(tri)
    if edge_class not in bclasses:
        raise TriangulationError(f"edge {edge_class} is not a boundary edge")
    out = []
    for t, f in (slot1, slot2):
        a, b = _boundary_edge_slot(tri, (t, f), edge_class)
        c = next(v for v in FACET_VERTICES[f] if v not in (a, b))
        out.append((t, f, a, b, c))
    return out


def _reference_transfer_edge_classes(old, new):
    mapping = {}
    for c, x in enumerate(old.skeleton.edge_first):
        mapping[c] = new.skeleton.edge_class[x]
    return mapping


def _reference_relayered_meta(old, out, meta, layered_class, new_tet):
    cmap = _reference_transfer_edge_classes(old, out)
    weights = {cmap[e]: w for e, w in meta.edge_weights.items()}
    kept = [cmap[e] for e in meta.boundary_edges if e != layered_class]
    new_weight = build.relayered_weight(
        meta.edge_weights[layered_class],
        *(meta.edge_weights[e] for e in meta.boundary_edges
          if e != layered_class))
    new_class = out.skeleton.edge_class[6 * new_tet + EDGE_INDEX[2, 3]]
    weights[new_class] = new_weight
    boundary = tuple(kept + [new_class])
    base = cmap[meta.base_edge] if meta.base_edge is not None \
        else cmap[layered_class]
    return build.LayeredSolidTorus(meta.tets + (new_tet,), weights, boundary,
                                   new_class, base, _skeleton_book(out))


def _reference_layer_on_edge(tri, edge_class, meta=None):
    (t1, f1, a1, b1, c1), (t2, f2, a2, b2, c2) = \
        _reference_open_book(tri, edge_class)
    new = tri.tet_count
    out = reference_glued(tri.gluings, (
        (t1, f1, new, Perm4.from_map({a1: 0, b1: 1, c1: 3, f1: 2})),
        (t2, f2, new, Perm4.from_map({a2: 0, b2: 1, c2: 2, f2: 3}))), 1)
    return out, None if meta is None else \
        _reference_relayered_meta(tri, out, meta, edge_class, new)


def _reference_fold_along_edge(tri, edge_class):
    (t1, f1, a1, b1, c1), (t2, f2, a2, b2, c2) = \
        _reference_open_book(tri, edge_class)
    return reference_glued(tri.gluings, ((t1, f1, t2, Perm4.from_map(
        {a1: a2, b1: b2, c1: c2, f1: f2})),))


def _reference_step(tri, meta, gone):
    return _reference_layer_on_edge(tri, build.boundary_edge(meta, gone), meta)


def _reference_path(path):
    """(tri, meta) for each node of a fraction-tree path from 1/2, one
    skeleton-based layering per step."""
    tri, meta = build._seed_lst()
    out = [(tri, meta)]
    for (pa, pb), (ca, cb) in zip(path, path[1:]):
        tri, meta = _reference_step(tri, meta,
                                    pa if pa not in (ca, cb) else pb)
        out.append((tri, meta))
    return out


def _reference_tree(depth_limit):
    """lst_tree's preorder walk, layered the skeleton-based way."""
    stack = [(*build._seed_lst(), 1)]
    while stack:
        tri, meta, depth = stack.pop()
        yield tri, meta
        if depth < depth_limit:
            for gone in (meta.p, meta.q):
                stack.append((*_reference_step(tri, meta, gone), depth + 1))


def _assert_book_matches_skeleton(tri, meta):
    # the positions _boundary_edge_slot reads from the layer's own skeleton
    assert meta.book == _skeleton_book(tri)
    assert set(meta.book.edges) == set(meta.boundary_edges)


def _assert_folds_match(tri, meta):
    for e in meta.boundary_edges:
        folded, record = build.fold_along_edge(tri, e, meta)
        assert folded == _reference_fold_along_edge(tri, e)
        assert record == build.fold_record(meta.p, meta.q,
                                           meta.edge_weights[e])


def _recognised_torus(tri):
    """The one torus recognised in tri, a layered solid torus and nothing
    more, checked against the skeleton reference: its book read off its
    frontier, and its layering and fold on every boundary edge."""
    [torus] = find_maximal_lsts(tri)
    _assert_book_matches_skeleton(tri, torus)
    _assert_folds_match(tri, torus)
    for e in torus.boundary_edges:
        assert build.layer_on_edge(tri, e, torus) == \
            _reference_layer_on_edge(tri, e, torus)
    return torus


def test_lst_tree_matches_skeleton_reference():
    seen = 0
    for (node, tri, meta), (rtri, rmeta) in zip(build.lst_tree(12),
                                                 _reference_tree(12)):
        assert tri == rtri and meta == rmeta
        assert build.lst(node.p, node.q) == (tri, meta)
        if node.depth < 12:
            # the reference reads this skeleton to layer the children
            _assert_book_matches_skeleton(rtri, meta)
        seen += 1
    assert seen == 2 ** 12 - 1


def test_layer_and_fold_match_skeleton_reference():
    rng = random.Random(27)
    for node, tri, meta in build.lst_tree(7):
        _assert_folds_match(tri, meta)
        for e in meta.boundary_edges:
            # every boundary edge, including the sum that gives {1,1,2}
            want = _reference_layer_on_edge(tri, e, meta)
            got = build.layer_on_edge(tri, e, meta)
            assert got == want
            _assert_book_matches_skeleton(want[0], got[1])
        # the torus recognised in tri, and in a relabelled copy, layers and
        # folds through the book read off its frontier
        assert _recognised_torus(tri) == meta
        _recognised_torus(_random_relabelling(tri, rng))


def test_a_recognised_torus_inside_a_closed_complex_is_refused():
    tri, _, _ = build.lens_space(1, 8)
    lsts = find_maximal_lsts(tri)
    assert [emb.size for emb in lsts] == [6, 6]
    for torus in lsts:
        # its frontier faces are glued in tri, so neither can be glued again
        for e in torus.boundary_edges:
            with pytest.raises(TriangulationError,
                               match="^facet already glued"):
                build.layer_on_edge(tri, e, torus)
            with pytest.raises(TriangulationError,
                               match="^facet already glued"):
                build.fold_along_edge(tri, e, torus)


def _random_path(rng, length):
    path = [(1, 2)]
    for _ in range(length - 1):
        p, q = path[-1]
        path.append(rng.choice(((p, p + q), (q, p + q))))
    return path


def test_long_paths_match_skeleton_reference():
    # the skeleton-based reference is quadratic in the path length, so two
    # paths run to 150 and 100 tetrahedra and the other 28 to at most 60
    rng = random.Random(5)
    for length in [150, 100] + [rng.randint(2, 60) for _ in range(28)]:
        path = _random_path(rng, length)
        reference = _reference_path(path)
        p, q = path[-1]
        assert build.lst(p, q) == reference[-1]
        tri, meta = build._seed_lst()
        for (pa, pb), (ca, cb), (rtri, rmeta) in zip(path, path[1:],
                                                      reference[1:]):
            gone = pa if pa not in (ca, cb) else pb
            tri, meta = build.layer_on_edge(
                tri, build.boundary_edge(meta, gone), meta)
            assert (tri, meta) == (rtri, rmeta)
            _assert_book_matches_skeleton(rtri, meta)
        _assert_folds_match(rtri, meta)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 400).flatmap(
    lambda q: st.tuples(st.integers(1, q - 1), st.just(q))))
def test_lst_matches_skeleton_reference_on_drawn_pairs(pair):
    # every coprime 1 <= p < q <= 400 arises, with p < q drawn directly and
    # the common factor divided out, so few draws are filtered away
    g = math.gcd(*pair)
    p, q = pair[0] // g, pair[1] // g
    assume(len(build.minimal_path(p, q)) <= 60)
    assert build.lst(p, q) == _reference_path(build.minimal_path(p, q))[-1]


# ----- the memoised layering and fold steps -------------------------------------

# ``_layer`` as it was written before its rule was memoised on the book's
# shape, kept as the reference for ``_layer_step``: one table of the two
# gluings per (a, b, c), and the kept classes' images worked out per layer
_REFERENCE_LAYER_MAPS = {
    (a, b, c): (Perm4.from_map({a: 0, b: 1, c: 3, f: 2}),
                Perm4.from_map({a: 0, b: 1, c: 2, f: 3}))
    for a, b, c, f in itertools.permutations(range(4))}


def _reference_layer(book, hinge, new, new_class):
    if hinge not in book.edges:
        raise TriangulationError(f"edge {hinge} is not a boundary edge")
    (t1, f1), (t2, f2) = book.faces
    (a1, b1), (a2, b2) = book.edges[hinge]
    g1 = _REFERENCE_LAYER_MAPS[a1, b1, 6 - f1 - a1 - b1][0]
    g2 = _REFERENCE_LAYER_MAPS[a2, b2, 6 - f2 - a2 - b2][1]
    im1, im2 = g1.images, g2.images
    edges = {}
    for e, ((h1, u1), (h2, u2)) in book.edges.items():
        if e != hinge:
            i1, i2 = (im1[h1], im1[u1]), (im2[h2], im2[u2])
            edges[e] = (i2, i1) if 0 in i1 else (i1, i2)
    edges[new_class] = ((2, 3), (2, 3))
    return (((t1, f1, new, g1), (t2, f2, new, g2)),
            build.Book(((new, 0), (new, 1)), edges))


def _book_items(book):
    # a Book compares its edges as a dict; this keeps their order too
    return book.faces, list(book.edges.items())


def test_layer_step_matches_reference_on_every_tree_book():
    seen = 0
    for node, tri, meta in build.lst_tree(10):
        book, new, new_class = meta.book, tri.tet_count, len(meta.edge_weights)
        for e in book.edges:
            got = build._layer(book, e, new, new_class)
            want = _reference_layer(book, e, new, new_class)
            assert got[0] == want[0]
            assert _book_items(got[1]) == _book_items(want[1])
            seen += 1
        # an interior class and one past the last: refused with one text
        for e in (*meta.interior_edges, new_class):
            refused = (TriangulationError, f"edge {e} is not a boundary edge",
                       None)
            assert _raised(lambda: build._layer(book, e, new, new_class)) == \
                _raised(lambda: _reference_layer(book, e, new, new_class)) \
                == refused
    assert seen == 3 * (2 ** 10 - 1)


def _tree_path(rules):
    """The fraction-tree path from 1/2 that takes the child p/(p+q) at each
    False and q/(p+q) at each True."""
    path = [(1, 2)]
    for rule in rules:
        p, q = path[-1]
        path.append((q, p + q) if rule else (p, p + q))
    return path


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=149).filter(
    lambda rules: len(set(rules)) == 2))
def test_lst_matches_a_chain_of_layers_from_the_seed(rules):
    path = _tree_path(rules)
    p, q = path[-1]
    assert build.minimal_path(p, q) == path
    tri, meta = build._SEED
    for (pa, pb), (ca, cb) in zip(path, path[1:]):
        gone = pa if pa not in (ca, cb) else pb
        tri, meta = build.layer_on_edge(tri, build.boundary_edge(meta, gone),
                                        meta)
    got_tri, got_meta = build.lst(p, q)
    assert got_tri.gluings == tri.gluings
    for name in SKELETON_FIELDS:
        assert getattr(got_tri.skeleton, name) == getattr(tri.skeleton, name)
    assert got_meta == meta and tuple(got_meta) == tuple(meta)
    assert _book_items(got_meta.book) == _book_items(meta.book)


def test_fold_map_matches_from_map_on_every_tree_fold():
    seen = 0
    for node, tri, meta in build.lst_tree(10):
        (t1, f1), (t2, f2) = meta.book.faces
        for e in meta.boundary_edges:
            (a1, b1), (a2, b2) = meta.book.edges[e]
            want = Perm4.from_map({a1: a2, b1: b2, f1: f2,
                                   6 - f1 - a1 - b1: 6 - f2 - a2 - b2})
            folded, _ = build.fold_along_edge(tri, e, meta)
            assert folded.gluing(t1, f1) == (t2, want)
            seen += 1
        e = len(meta.edge_weights)
        assert _raised(lambda: build.fold_along_edge(tri, e, meta)) == (
            TriangulationError, f"edge {e} is not a boundary edge", None)
    assert seen == 3 * (2 ** 10 - 1)


def test_lgraph_carried_counts_match_the_weight_replay():
    nodes = build.lgraph(14)
    assert len(nodes) == 2 ** 14 - 1
    for node in nodes:
        assert node == build.LGraphNode.of(
            node.p, node.q, node.depth,
            build.lst_weight_multiset(node.p, node.q))


def _labels(key):
    """Every int in a memo key, however nested."""
    if isinstance(key, tuple):
        return [x for part in key for x in _labels(part)]
    return [key]


def test_memo_keys_hold_only_labels(monkeypatch):
    # the memos are keyed on the book's shape, never on tetrahedron or
    # class numbers: the walk to depth 5 meets every key that a walk four
    # levels deeper or a path of 80 layers meets (10 and 8 of them)
    keys = {"_layer_step": set(), "_fold_map": set()}
    for name, seen in keys.items():
        def recorded(*key, step=getattr(build, name), seen=seen):
            seen.add(key)
            return step(*key)
        monkeypatch.setattr(build, name, recorded)

    def walk(depth):
        for node, tri, meta in build.lst_tree(depth):
            for e in meta.boundary_edges:
                build.fold_along_edge(tri, e, meta)
        return {name: set(seen) for name, seen in keys.items()}

    shallow = walk(5)
    deep = walk(9)
    for rules in ([False] * 80, [True] * 80, [False, True] * 40,
                  [False, False, True] * 27):
        build.lst(*_tree_path(rules)[-1])
    assert deep == shallow == keys
    assert (len(keys["_layer_step"]), len(keys["_fold_map"])) == (10, 8)
    for seen in keys.values():
        for key in seen:
            assert all(type(x) is int and 0 <= x <= 3 for x in _labels(key))


# ----- gluing onto a checked table ----------------------------------------------


@st.composite
def joins_on_tables(draw):
    """A random gluing table, a count of free tetrahedra to append, and up
    to four joins (t, f, u, perm), each carrying facet f of t to facet
    perm[f] of u.  A facet is drawn from the free ones or from every slot,
    tetrahedron -1 and one past the last included, so the joins also
    dangle, meet glued facets, glue a facet to itself pointwise or pair it
    with itself by a three-cycle."""
    tri = draw(gluing_tables())
    new = draw(st.integers(0, 2))
    n = tri.tet_count + new
    free = [(t, f) for t in range(n) for f in range(4)
            if t >= tri.tet_count or tri.gluing(t, f) is None]
    slot = st.tuples(st.integers(-1, n), st.integers(0, 3))
    if free:
        slot = st.sampled_from(free) | slot
    joins = []
    for _ in range(draw(st.integers(0, 4))):
        (t, f), (u, g) = draw(slot), draw(slot)
        perm = draw(st.sampled_from([p for p in ALL_PERMS if p[f] == g]))
        joins.append((t, f, u, perm))
    return tri, new, joins


def _checked_copy(tri, new, joins):
    """tri's table copied by the reference assembler, joined and checked
    in full."""
    return reference_glued(tri.gluings, joins, new)


def test_glued_equals_a_checked_copy():
    # glued's result equals the checked copy's, sharing the rows no join
    # writes, or both refuse with one message; the strategy must reach
    # each refusal of the join rule, and joins that succeed
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(joins_on_tables())
    def check(case):
        tri, new, joins = case
        try:
            want = _checked_copy(tri, new, joins)
        except TriangulationError as exc:
            with pytest.raises(TriangulationError) as refused:
                tri.glued(joins, new)
            assert str(refused.value) == str(exc)
            seen.update(kind for kind in ("dangling", "already glued",
                                          "pointwise", "involution")
                        if kind in str(exc))
            return
        got = tri.glued(joins, new)
        assert got == want
        written = {t for t, _, _, _ in joins} | {u for _, _, u, _ in joins}
        for t, row in enumerate(tri.gluings):
            if t not in written:
                assert got.gluings[t] is row
        if joins:
            seen.add("glued")

    check()
    assert seen == {"dangling", "already glued", "pointwise", "involution",
                    "glued"}


def test_glued_tables_pass_the_full_check():
    nodes = folds = 0
    for _, tri, _ in build.lst_tree(9):
        assert Triangulation(tri.gluings) == tri
        nodes += 1
    for _, _, folded in verifysuite._lens_grid(8):
        assert Triangulation(folded.gluings) == folded
        folds += 1
    assert (nodes, folds) == (2 ** 9 - 1, 3 * (2 ** 8 - 1))


# ----- construction cost, counted -------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Counts of skeletons and of Triangulations built while the test runs,
    whether checked in full or glued onto a checked table."""
    seen = Counter()
    skeleton = Triangulation.__dict__["skeleton"].func
    init = Triangulation.__init__
    glued = Triangulation.glued

    def counted_skeleton(self):
        seen["skeleton"] += 1
        return skeleton(self)

    def counted_init(self, gluings):
        seen["triangulation"] += 1
        init(self, gluings)

    def counted_glued(self, joins, new_tets=0):
        seen["triangulation"] += 1
        return glued(self, joins, new_tets)

    prop = functools.cached_property(counted_skeleton)
    prop.__set_name__(Triangulation, "skeleton")
    monkeypatch.setattr(Triangulation, "skeleton", prop)
    monkeypatch.setattr(Triangulation, "__init__", counted_init)
    monkeypatch.setattr(Triangulation, "glued", counted_glued)
    return seen


def test_lst_builds_one_skeleton(built):
    tri, meta = build.lst(1, 200)
    assert tri.tet_count == 199 and meta.boundary_triple == (1, 200, 201)
    # the result, glued onto the seed, whose table and skeleton were built
    # once at import
    assert built == {"triangulation": 1}


def test_lens_space_skips_the_unfolded_skeleton(built):
    folded, _, _ = build.lens_space(5, 13)
    # the torus and its fold; the seed was built at import
    assert built == {"triangulation": 2}
    assert folded.is_closed


def test_tree_walk_builds_only_the_seed_skeleton(built):
    nodes = sum(1 for _ in build.lst_tree(8))
    assert nodes == 2 ** 8 - 1
    # one Triangulation per node but the root, the seed built at import
    assert built == {"triangulation": nodes - 1}


def test_building_leaves_the_shared_seed_as_it_was():
    seed, torus = build._SEED
    for _, tri, meta in build.lst_tree(6):
        for w in (meta.p, meta.q, meta.p + meta.q):
            build.fold_along_edge(tri, build.boundary_edge(meta, w), meta)
    build.lst(5, 13)
    build.lens_space(3, 8)
    build.layer_on_edge(seed, build.boundary_edge(torus, 2), torus)
    build.fold_along_edge(seed, build.boundary_edge(torus, 3), torus)
    fresh, fresh_torus = build._seed_lst()
    assert seed.gluings == fresh.gluings
    assert torus.edge_weights == fresh_torus.edge_weights
    assert torus.boundary_edges == fresh_torus.boundary_edges
    assert torus.book == fresh_torus.book
    assert torus == fresh_torus


def test_boundary_triple_is_sorted_once():
    _, a = build.lst(3, 7)
    _, b = build.lst(3, 7)
    assert (a.p, a.q, a.boundary_triple) == (3, 7, (3, 7, 10))
    # cached on the record, which stays equal to an unread twin
    assert a.__dict__["boundary_triple"] is a.boundary_triple
    assert "boundary_triple" not in b.__dict__
    assert a == b and repr(a) == repr(b)
    assert "boundary_triple" not in repr(a)
