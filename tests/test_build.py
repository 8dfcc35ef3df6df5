"""Constructors: layered solid tori, folds, loops, augmented families."""

import pytest
from hypothesis import given, settings, strategies as st

from trinorm import build, homology, cocycle
from trinorm.triangulation import TriangulationError


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
    with pytest.raises(TriangulationError):
        build.augmented_solid_torus((
            build.AnnulusFilling("lst", w_h=2, w_d=2, w_v=4),
            build.AnnulusFilling("fold"),
            build.AnnulusFilling("fold"),
        ))
    with pytest.raises(TriangulationError):
        build.augmented_solid_torus((
            build.AnnulusFilling("fold", style="weird"),
            build.AnnulusFilling("fold", style="cross"),
            build.AnnulusFilling("lst", w_h=3, w_d=1, w_v=4),
        ))


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
