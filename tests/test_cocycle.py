"""Edge colourings, tetrahedron types and parity censuses."""

import pytest
from hypothesis import given, settings, strategies as st

from trinorm import build, cocycle
from trinorm.cocycle import TetType, Cocycle
from trinorm.triangulation import TriangulationError


def test_basis_dimensions():
    tri, _, _ = build.lens_space(1, 4)       # L(6,1), |H1| even
    assert len(cocycle.cocycle_basis(tri)) == 1
    tri = build.layered_loop(6, twisted=True)
    assert len(cocycle.cocycle_basis(tri)) == 2
    tri, _, _ = build.lens_space(1, 3, fold_weight=3)   # L(5,1)
    assert cocycle.cocycle_basis(tri) == []


def test_basis_matches_z2_rank():
    from trinorm import homology
    for tri in (build.lens_space(2, 5)[0],
                build.layered_loop(5, twisted=True),
                build.seifert_family("M'", 1, 1, 1)[0]):
        assert len(cocycle.cocycle_basis(tri)) == \
            homology.first_homology(tri).z2_rank


def test_rejects_bounded_and_multi_vertex():
    tri, _ = build.lst(1, 2)
    with pytest.raises(TriangulationError):
        cocycle.cocycle_basis(tri)
    two_vertex = build.layered_loop(4, twisted=False)
    if two_vertex.skeleton.vertex_count != 1:
        with pytest.raises(TriangulationError):
            cocycle.cocycle_basis(two_vertex)


def test_classification_trichotomy():
    # over families and all basis combinations the classifier never fails
    instances = [build.lens_space(1, 6)[0],
                 build.layered_loop(6, twisted=True),
                 build.seifert_family("M", 1, 1, 1)[0],
                 build.seifert_family("M'", 1, 2, 1)[0]]
    for tri in instances:
        for phi in cocycle.all_nonzero_classes(tri):
            types = cocycle.classify_tetrahedra(tri, phi)
            assert len(types) == tri.tet_count


def test_zero_vector_is_all_empty():
    tri, _, _ = build.lens_space(1, 4)
    zero = Cocycle((0,) * tri.skeleton.edge_count)
    types = cocycle.classify_tetrahedra(tri, zero)
    assert all(ty is TetType.EMPTY for ty, _ in types)
    census = cocycle.parity_census(tri, zero)
    assert census.even_edges == tri.skeleton.edge_count
    assert census.empty_tets == tri.tet_count


def test_non_cocycle_rejected_by_classifier():
    tri, _, _ = build.lens_space(1, 4)
    ne = tri.skeleton.edge_count
    for mask in range(1, 1 << ne):
        bits = tuple((mask >> i) & 1 for i in range(ne))
        if not cocycle.is_cocycle(tri, bits):
            with pytest.raises(TriangulationError):
                cocycle.classify_tetrahedra(tri, Cocycle(bits))
            break


def test_census_identity():
    for tri in (build.lens_space(1, 8)[0],
                build.layered_loop(8, twisted=True),
                build.seifert_family("M", 2, 1, 1)[0]):
        for phi in cocycle.all_nonzero_classes(tri):
            c = cocycle.parity_census(tri, phi)
            assert c.even_edge_slots == \
                2 * c.quad_tets + 3 * c.tri_tets + 6 * c.empty_tets
            assert c.even_edges + c.odd_edges == tri.skeleton.edge_count


def test_balanced_census():
    for n in (3, 5, 7):
        tri, _, _ = build.lens_space(1, 2 * n - 2)
        phi = cocycle.all_nonzero_classes(tri)[0]
        c = cocycle.parity_census(tri, phi)
        assert c.even_edges == n - 1 and c.odd_edges == n - 1
        assert c.balanced


def test_lst_subcomplex_single_type():
    from trinorm.analyze import find_maximal_lsts
    instances = [build.lens_space(1, 8)[0],
                 build.seifert_family("M", 1, 1, 2)[0],
                 build.seifert_family("M'", 1, 1, 1)[0]]
    for tri in instances:
        lsts = find_maximal_lsts(tri)
        for phi in cocycle.all_nonzero_classes(tri):
            types = cocycle.classify_tetrahedra(tri, phi)
            for emb in lsts:
                assert emb.tet_type(types) in (TetType.QUAD, TetType.EMPTY)


def test_quaternionic_all_quad():
    tri = build.layered_loop(8, twisted=True)
    for phi in cocycle.all_nonzero_classes(tri):
        types = cocycle.classify_tetrahedra(tri, phi)
        assert all(ty is TetType.QUAD for ty, _ in types)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cocycle_sum_stays_cocycle(data):
    tri = build.layered_loop(data.draw(st.sampled_from([4, 6, 8])), twisted=True)
    basis = cocycle.cocycle_basis(tri)
    picks = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4))
    acc = picks[0]
    for phi in picks[1:]:
        acc = acc + phi
    assert cocycle.is_cocycle(tri, acc.bits)
