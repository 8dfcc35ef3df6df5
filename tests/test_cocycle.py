"""Edge colourings, tetrahedron types and parity censuses."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from trinorm import build, cocycle, verifysuite
from trinorm.analyze import fundamental_report
from trinorm.cocycle import TetType, Cocycle, ParityCensus
from trinorm.surface import canonical_surface
from trinorm.triangulation import (EDGE_VERTICES, FACET_EDGES,
                                   TriangulationError)

from test_skeleton import gluing_tables


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


def test_cocycles_of_different_sizes_do_not_add():
    with pytest.raises(TriangulationError,
                       match="^cannot add cocycles on 3 and 1 edges$"):
        Cocycle((1, 0, 1)) + Cocycle((1,))
    with pytest.raises(TriangulationError,
                       match="^cannot add cocycles on 1 and 3 edges$"):
        Cocycle((1,)) + Cocycle((1, 0, 1))
    assert Cocycle((1, 0, 1)) + Cocycle((1, 1, 0)) == Cocycle((0, 1, 1))


def test_colourings_of_the_wrong_length_are_refused():
    tri, _, _ = build.lens_space(1, 4)       # L(6,1), four edge classes
    phi = cocycle.all_nonzero_classes(tri)[0]
    # the classification the right colouring left on the table does not
    # excuse a wrong one's length
    cocycle.classify_tetrahedra(tri, phi)
    for bits in (phi.bits + (1,), phi.bits[:-1]):
        message = (f"^colouring has {len(bits)} edge bits, the "
                   f"triangulation 4 edges$")
        for check in (cocycle.is_cocycle,
                      lambda t, b: cocycle.classify_tetrahedra(t, Cocycle(b)),
                      lambda t, b: fundamental_report(t, Cocycle(b)),
                      lambda t, b: cocycle.parity_census(t, Cocycle(b)),
                      lambda t, b: canonical_surface(t, Cocycle(b))):
            with pytest.raises(TriangulationError, match=message):
                check(tri, bits)


# ----- the per-slot colouring against the per-tetrahedron loops --------------
#
# The loops the colouring ran before it read ``phi.bits`` through the
# skeleton once per call, kept here word for word as the reference.


def tet_parity_pattern(tri, phi, tet):
    """Bitmask over the six edge slots of a tetrahedron, bit set = odd."""
    edge_class = tri.skeleton.edge_class
    t6 = 6 * tet
    mask = 0
    for ei in range(6):
        if phi[edge_class[t6 + ei]]:
            mask |= 1 << ei
    return mask


# odd-edge masks realising each type; quad type i has even pair (i, 5-i)
_QUAD_MASKS = {0b111111 ^ (1 << i) ^ (1 << (5 - i)): i for i in range(3)}
_TRI_MASKS = {}
for _v in range(4):
    _m = 0
    for _ei, (_a, _b) in enumerate(EDGE_VERTICES):
        if _v in (_a, _b):
            _m |= 1 << _ei
    _TRI_MASKS[_m] = _v


def _reference_classify_tetrahedra(tri, phi):
    out = []
    for t in range(tri.tet_count):
        mask = tet_parity_pattern(tri, phi, t)
        if mask == 0:
            out.append((TetType.EMPTY, None))
        elif mask in _QUAD_MASKS:
            out.append((TetType.QUAD, _QUAD_MASKS[mask]))
        elif mask in _TRI_MASKS:
            out.append((TetType.TRI, _TRI_MASKS[mask]))
        else:
            raise TriangulationError(
                f"edge parities of tetrahedron {t} match no type; "
                "input is not a cocycle")
    return out


def _reference_parity_census(tri, phi):
    sk = tri.skeleton
    types = _reference_classify_tetrahedra(tri, phi)
    n_quad = sum(1 for ty, _ in types if ty is TetType.QUAD)
    n_tri = sum(1 for ty, _ in types if ty is TetType.TRI)
    n_empty = sum(1 for ty, _ in types if ty is TetType.EMPTY)

    even = [d for c, d in enumerate(sk.edge_degrees) if phi[c] == 0]
    odd_count = sk.edge_count - len(even)
    hist = {}
    for d in even:
        hist[d] = hist.get(d, 0) + 1
    slots = sum(even)

    even_faces = 0
    for s in sk.face_first:
        t, f = divmod(s, 4)
        if all(phi[sk.edge_class[6 * t + ei]] == 0 for ei in FACET_EDGES[f]):
            even_faces += 1
    sub_vertices = 1 if even else 0
    return ParityCensus(
        even_edges=len(even),
        odd_edges=odd_count,
        even_degree_histogram=dict(sorted(hist.items())),
        even_edge_slots=slots,
        quad_tets=n_quad,
        tri_tets=n_tri,
        empty_tets=n_empty,
        even_subcomplex=(sub_vertices, len(even), even_faces, n_empty),
    )


def _colouring_grid():
    for _, _, folded in verifysuite._lens_grid(6):
        yield folded
    for _, _, tri in verifysuite._family_grid():
        yield tri


def test_colouring_matches_per_tetrahedron_reference():
    colourings = 0
    for tri in _colouring_grid():
        for phi in cocycle.all_nonzero_classes(tri):
            types = cocycle.classify_tetrahedra(tri, phi)
            assert types == tuple(_reference_classify_tetrahedra(tri, phi))
            census = cocycle.parity_census(tri, phi)
            assert census == _reference_parity_census(tri, phi)
            colourings += 1
    # 63 colourings on the 189 folds to depth 6 (the even lens spaces
    # have one each), then 129 on the 61 members of the M, M', P and Q grids
    assert colourings == 63 + 129


def test_every_bit_vector_classifies_as_the_reference():
    # cocycles and non-cocycles alike, with the reference's error text
    checked = refused = 0
    for tri in (build.lens_space(1, 4)[0], build.lens_space(1, 6)[0],
                build.layered_loop(4, twisted=True),
                build.layered_loop(3, twisted=False)):
        ne = tri.skeleton.edge_count
        for mask in range(1 << ne):
            phi = Cocycle(tuple((mask >> i) & 1 for i in range(ne)))
            try:
                want = _reference_classify_tetrahedra(tri, phi)
            except TriangulationError as exc:
                with pytest.raises(TriangulationError) as err:
                    cocycle.classify_tetrahedra(tri, phi)
                assert str(err.value) == str(exc)
                refused += 1
            else:
                assert cocycle.classify_tetrahedra(tri, phi) == tuple(want)
            checked += 1
    # four, six, five and five edge classes
    assert checked == 2 ** 4 + 2 ** 6 + 2 ** 5 + 2 ** 5
    assert 0 < refused < checked


# ----- the remembered classification ------------------------------------------


def _classify_in_turn(tri, colourings):
    """Classify the bit vectors one after another on one table: each gives
    the reference's types, or its refusal with the reference's text, and
    a wrong length the length refusal."""
    ne = tri.skeleton.edge_count
    for bits in colourings:
        phi = Cocycle(bits)
        if len(bits) != ne:
            with pytest.raises(TriangulationError) as err:
                cocycle.classify_tetrahedra(tri, phi)
            assert str(err.value) == (f"colouring has {len(bits)} edge "
                                      f"bits, the triangulation {ne} edges")
            continue
        try:
            want = _reference_classify_tetrahedra(tri, phi)
        except TriangulationError as exc:
            with pytest.raises(TriangulationError) as err:
                cocycle.classify_tetrahedra(tri, phi)
            assert str(err.value) == str(exc)
        else:
            assert cocycle.classify_tetrahedra(tri, phi) == tuple(want)


def _non_cocycle(tri):
    """The first bit vector, in binary order, that is not a cocycle."""
    ne = tri.skeleton.edge_count
    return next(bits for bits in (tuple((m >> i) & 1 for i in range(ne))
                                  for m in range(1 << ne))
                if not cocycle.is_cocycle(tri, bits))


def test_interleaved_colourings_classify_as_the_reference():
    tri, _ = build.seifert_family("MPRIME", 1, 1, 1)
    a, b, _ = (phi.bits for phi in cocycle.all_nonzero_classes(tri))
    _classify_in_turn(tri, [a, b, a, a[:-1], _non_cocycle(tri), a])
    # the last A is remembered through both refusals, in one tuple
    types = cocycle.classify_tetrahedra(tri, Cocycle(a))
    assert cocycle.classify_tetrahedra(tri, Cocycle(a)) is types
    assert type(types) is tuple


@settings(max_examples=100, deadline=None)
@given(tri=gluing_tables(kinds=("pair",)), data=st.data())
def test_interleaved_colourings_on_random_tables(tri, data):
    # closed one-vertex tables: their classes, the zero colouring and any
    # bit vectors, of the right length or one off, in any order
    sk = tri.skeleton
    assume(sk.vertex_count == 1 and not sk.boundary_facets)
    ne = sk.edge_count
    right = st.tuples(*[st.integers(0, 1)] * ne)
    vectors = st.one_of(
        st.sampled_from([phi.bits for phi in cocycle.all_nonzero_classes(tri)]
                        + [(0,) * ne]),
        right, right.map(lambda bits: bits + (1,)),
        right.map(lambda bits: bits[:-1]))
    _classify_in_turn(tri, data.draw(st.lists(vectors, min_size=2,
                                              max_size=8)))
