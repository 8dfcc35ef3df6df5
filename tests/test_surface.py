"""Normal coordinates: canonical surfaces, Euler characteristics, octagon
modifications, formal solutions and twisted squares."""

import logging
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trinorm import build, cocycle, surface, verifysuite
from trinorm.cocycle import TetType
from trinorm.surface import (NormalCoordinate, CoordinateError,
                             canonical_surface, chi_formula, edge_weights,
                             euler_char, vertex_link, b_modification,
                             special_solutions, twisted_square_scan,
                             surface_classify, tet_solution,
                             QUAD_PAIRS, QUAD_SIDE_A, QUAD_ARC_VERTEX,
                             OCT_ARC_VERTICES, TRI_EDGE_WEIGHTS,
                             QUAD_EDGE_WEIGHTS, OCT_EDGE_WEIGHTS)
from trinorm.triangulation import (EDGE_VERTICES, FACET_VERTICES,
                                   OPPOSITE_EDGE, Skeleton,
                                   TriangulationError, _UnionFind, parse)
from test_skeleton import gluing_tables


# a coordinate's rows split into the triangle, quad and octagon counts of
# each tetrahedron, and joined back, for the references below that read
# and write the three parts apart.  The references read the parts in
# inner loops, so the split of the last coordinate read is kept
_last_split = [None, None]


def _split(coord):
    if _last_split[0] is not coord:
        _last_split[:] = coord, (tuple(r[:4] for r in coord.rows),
                                 tuple(r[4:7] for r in coord.rows),
                                 tuple(r[7:] for r in coord.rows))
    return _last_split[1]


def _tris(coord):
    return _split(coord)[0]


def _quads(coord):
    return _split(coord)[1]


def _octs(coord):
    return _split(coord)[2]


_PARTS = {"tris": _tris, "quads": _quads, "octs": _octs}


def _coord(tris, quads, octs, formal=False):
    return NormalCoordinate(tuple(tr + qu + oc for tr, qu, oc
                                  in zip(tris, quads, octs)), formal)


def test_vertex_link_sphere():
    tri, _, _ = build.lens_space(1, 4)
    link = vertex_link(tri)
    assert euler_char(tri, link) == 2
    assert surface_classify(tri, link) == (2, True, True)


def test_canonical_surface_weights_and_chi():
    for n in (3, 4, 6):
        tri, _, _ = build.lens_space(1, 2 * n - 2)
        phi = cocycle.all_nonzero_classes(tri)[0]
        canon = canonical_surface(tri, phi)
        assert canon.chi == 2 - n
        census = cocycle.parity_census(tri, phi)
        assert chi_formula(census) == canon.chi
        # one-sided spanning surface of the lens space
        assert surface_classify(tri, canon.coord) == (2 - n, False, True)


def test_all_empty_coordinate():
    tri, _, _ = build.lens_space(1, 4)
    zero = NormalCoordinate.zero(tri.tet_count)
    assert euler_char(tri, zero) == 0


def test_quad_surfaces_on_loops():
    tri = build.layered_loop(6, twisted=True)
    chis = []
    for phi in cocycle.all_nonzero_classes(tri):
        canon = canonical_surface(tri, phi)
        assert all(sum(r) == 0 for r in _tris(canon.coord))  # quads only
        chis.append(surface_classify(tri, canon.coord))
    assert sorted(c[0] for c in chis) == [-2, -2, 0]
    kleins = [c for c in chis if c == (0, False, True)]
    assert len(kleins) == 1


def test_family_m_horizontal_surface():
    tri, _ = build.seifert_family("M", 1, 2, 1)
    phi = cocycle.all_nonzero_classes(tri)[0]
    canon = canonical_surface(tri, phi)
    chi, orientable, connected = surface_classify(tri, canon.coord)
    assert (chi, orientable, connected) == (-(1 + 2 + 1), False, True)


def test_matching_violation_rejected():
    tri, _, _ = build.lens_space(1, 4)
    good = canonical_surface(tri, cocycle.all_nonzero_classes(tri)[0]).coord
    tris = [list(r) for r in _tris(good)]
    tris[0][0] += 1   # corrupt one triangle count
    bad = _coord(tuple(tuple(r) for r in tris), _quads(good), _octs(good))
    with pytest.raises(CoordinateError):
        euler_char(tri, bad)


def test_embeddability_violation_rejected():
    tri, _, _ = build.lens_space(1, 4)
    n = tri.tet_count
    quads = [[0, 0, 0] for _ in range(n)]
    quads[0] = [1, 1, 0]
    bad = _coord(tuple((0,) * 4 for _ in range(n)),
                 tuple(tuple(r) for r in quads),
                 tuple((0,) * 3 for _ in range(n)))
    with pytest.raises(CoordinateError):
        euler_char(tri, bad)


def test_doubled_canonical_doubles_chi():
    tri, _, _ = build.lens_space(1, 6)
    phi = cocycle.all_nonzero_classes(tri)[0]
    canon = canonical_surface(tri, phi)
    doubled = canon.coord + canon.coord
    assert euler_char(tri, doubled) == 2 * canon.chi


def test_doubled_coordinates_classify_as_covers():
    # doubling a one-sided surface gives its connected orientable double
    # cover; doubling a two-sided sphere gives two disjoint spheres
    tri, _, _ = build.lens_space(1, 8)
    phi = cocycle.all_nonzero_classes(tri)[0]
    canon = canonical_surface(tri, phi)
    assert surface_classify(tri, canon.coord) == (canon.chi, False, True)
    assert surface_classify(tri, canon.coord + canon.coord) == \
        (2 * canon.chi, True, True)
    link = vertex_link(tri)
    assert surface_classify(tri, link + link) == (4, True, False)
    # a doubled Klein bottle is a torus
    loop = build.layered_loop(6, twisted=True)
    for phi in cocycle.all_nonzero_classes(loop):
        c = canonical_surface(loop, phi)
        if surface_classify(loop, c.coord) == (0, False, True):
            assert surface_classify(loop, c.coord + c.coord) == (0, True, True)
            break
    else:
        raise AssertionError("no Klein class found")


# a closed one-vertex table on two tetrahedra that no orientation fits,
# with first homology Z and so one nonzero Z/2 class
NON_ORIENTABLE_TRI = """tri 2
tet 0: 1:2031 1:3102 1:3102 1:0213
tet 1: 0:2130 0:2130 0:1302 0:0213
"""


def test_orientability_is_left_open_in_a_non_orientable_manifold():
    tri = parse(NON_ORIENTABLE_TRI)
    assert tri.is_closed and tri.skeleton.vertex_count == 1
    assert not tri.is_orientable
    (phi,) = cocycle.all_nonzero_classes(tri)
    canon = canonical_surface(tri, phi)
    # transverse orientations conflict, which here does not decide whether
    # the surface itself is orientable
    assert surface_classify(tri, canon.coord) == (canon.chi, None, True)
    link = vertex_link(tri)
    assert surface_classify(tri, link) == (2, None, True)
    empty = NormalCoordinate.zero(tri.tet_count)
    assert surface_classify(tri, empty) == (0, True, False)


def test_b_modification_cases():
    tri = build.layered_loop(4, twisted=True)
    for phi in cocycle.all_nonzero_classes(tri):
        evens = phi.even_edges()
        base = canonical_surface(tri, phi)
        empty_coord, octs, chi = b_modification(tri, base, ())
        assert octs == 0 and empty_coord == base.coord and chi == base.chi
        for b in (evens[:1], evens):
            coord, octs, chi = b_modification(tri, base, b)
            assert chi == euler_char(tri, coord)
            assert chi == base.chi - 2 * octs + 2 * len(b)
            assert octs >= len(b)


def test_b_modification_rejects_odd_edges():
    tri = build.layered_loop(4, twisted=True)
    phi = cocycle.all_nonzero_classes(tri)[0]
    odd = phi.odd_edges()[0]
    with pytest.raises(TriangulationError):
        b_modification(tri, canonical_surface(tri, phi), (odd,))


def test_b_modification_needs_all_quad():
    tri, _ = build.seifert_family("M", 1, 1, 1)   # has TRI tetrahedra
    phi = cocycle.all_nonzero_classes(tri)[0]
    with pytest.raises(TriangulationError):
        b_modification(tri, canonical_surface(tri, phi), ())


def test_exhaustive_octagon_formula_small():
    tri, _, _ = build.lens_space(1, 6)   # L(8,1): 3 even edges
    phi = cocycle.all_nonzero_classes(tri)[0]
    base = canonical_surface(tri, phi)
    evens = phi.even_edges()
    for r in range(len(evens) + 1):
        for b in combinations(evens, r):
            coord, octs, chi = b_modification(tri, base, b)
            assert euler_char(tri, coord) == chi == \
                base.chi - 2 * octs + 2 * len(b)


def test_formal_solutions():
    tri = build.layered_loop(5, twisted=True)
    edges, tets, fchi = special_solutions(tri)
    assert all(fchi(sol) == 2 for sol in edges)
    assert all(fchi(sol) == 1 for sol in tets)
    assert fchi(vertex_link(tri)) == 2


def test_formal_chi_is_linear_and_extends_euler():
    tri, _, _ = build.lens_space(1, 8)
    phi = cocycle.all_nonzero_classes(tri)[0]
    canon = canonical_surface(tri, phi)
    link = vertex_link(tri)
    fchi = special_solutions(tri)[2]
    # linearity on a lattice of embedded coordinates
    import random
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randint(0, 3), rng.randint(0, 2)
        coord = link.scale(a) + canon.coord.scale(b)
        assert fchi(coord) == euler_char(tri, coord) \
            == 2 * a * tri.skeleton.vertex_count + b * canon.chi


def test_surgery_bookkeeping():
    # adding three edge solutions and subtracting two tetrahedral ones
    # raises the formal Euler characteristic by four
    tri = build.layered_loop(6, twisted=True)
    phi = cocycle.all_nonzero_classes(tri)[0]
    coord = canonical_surface(tri, phi).coord
    edges, tets, fchi = special_solutions(tri)
    modified = coord + edges[0] + edges[1] + edges[2] - tets[0] - tets[1]
    assert fchi(modified) == fchi(coord) + 3 * 2 - 2 * 1


def test_twisted_squares_on_loops():
    tri = build.layered_loop(6, twisted=True)
    kinds = {kind for _, _, kind in twisted_square_scan(tri)}
    assert "klein" in kinds


def test_twisted_square_torus_in_solid_torus():
    # the one-tetrahedron solid torus carries two identified opposite
    # pairs; a Klein bottle cannot embed there, so the square is a torus
    tri, _ = build.lst(1, 2)
    results = twisted_square_scan(tri)
    assert results and all(kind == "torus" for _, _, kind in results)


def test_no_pinched_squares_in_families():
    for tri in (build.layered_loop(8, twisted=True),
                build.seifert_family("M", 1, 1, 1)[0]):
        kinds = {kind for _, _, kind in twisted_square_scan(tri)}
        assert "pinched_rp2" not in kinds


def _reference_twisted_square_scan(tri):
    """The scan that compared the three opposite edge pairs of each
    tetrahedron in nested loops, kept as the oracle of the table scan."""
    sk = tri.skeleton
    results = []
    for t in range(tri.tet_count):
        pair_info = []
        for ei in range(3):
            ej = OPPOSITE_EDGE[ei]
            ci, si = sk.edge_class[6 * t + ei], sk.edge_sign[6 * t + ei]
            cj, sj = sk.edge_class[6 * t + ej], sk.edge_sign[6 * t + ej]
            pair_info.append((ci == cj, si * sj))
        idx = [i for i in range(3) if pair_info[i][0]]
        if len(idx) < 2:
            continue
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                s1 = pair_info[idx[a]][1]
                s2 = pair_info[idx[b]][1]
                if s1 < 0 and s2 < 0:
                    kind = "torus"
                elif s1 > 0 and s2 > 0:
                    kind = "pinched_rp2"
                else:
                    kind = "klein"
                results.append((t, (idx[a], idx[b]), kind))
    return results


def test_twisted_square_scan_matches_reference():
    tris = [tri for _, _, tri in verifysuite._family_grid()]
    tris += [folded for _, _, folded in verifysuite._lens_grid(7)]
    tris += [build.layered_loop(n, twisted) for n in range(3, 17)
             for twisted in (False, True)]
    tris.append(parse(NON_ORIENTABLE_TRI))
    found = 0
    for tri in tris:
        scan = twisted_square_scan(tri)
        assert scan == _reference_twisted_square_scan(tri)
        found += len(scan)
    assert found


def test_twisted_square_scan_matches_reference_on_random_tables():
    kinds = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(gluing_tables().filter(lambda tri: tri.is_valid))
    def compare(tri):
        scan = twisted_square_scan(tri)
        assert scan == _reference_twisted_square_scan(tri)
        kinds.update(kind for _, _, kind in scan)

    compare()
    # the random tables reach every kind of square
    assert kinds == {"torus", "klein", "pinched_rp2"}


def test_coordinate_dump_format():
    tri, _, _ = build.lens_space(1, 4)
    phi = cocycle.all_nonzero_classes(tri)[0]
    dump = canonical_surface(tri, phi).coord.dump()
    lines = dump.splitlines()
    assert len(lines) == tri.tet_count
    first = lines[0].split(":")[1]
    tri_part, quad_part, oct_part = (p.split() for p in first.split("|"))
    assert len(tri_part) == 4 and len(quad_part) == 3 and len(oct_part) == 3


# ----- the table-driven cell count against a set-based reference -------------
#
# The reference is the per-vertex, per-slot cell count the tables replaced:
# arcs found by building the two sides of each disc's partition in the
# facet, matching checked in a pass of its own, and each edge slot's weight
# summed over all ten disc types.


def _ref_quad_arc_vertex(i, facet):
    side_a = set(QUAD_SIDE_A[i])
    ina = [v for v in FACET_VERTICES[facet] if v in side_a]
    out = [v for v in FACET_VERTICES[facet] if v not in side_a]
    return ina[0] if len(ina) == 1 else out[0]


def _ref_oct_arc_vertices(i, facet):
    side_a = set(QUAD_SIDE_A[i])
    ina = [v for v in FACET_VERTICES[facet] if v in side_a]
    out = [v for v in FACET_VERTICES[facet] if v not in side_a]
    return tuple(ina) if len(ina) == 2 else tuple(out)


def _ref_arc_count(coord, tet, facet, vertex):
    n = _tris(coord)[tet][vertex]
    for i in range(3):
        if _quads(coord)[tet][i] and _ref_quad_arc_vertex(i, facet) == vertex:
            n += _quads(coord)[tet][i]
        if _octs(coord)[tet][i] and vertex in _ref_oct_arc_vertices(i, facet):
            n += _octs(coord)[tet][i]
    return n


def _ref_edge_weight_slot(coord, tet, edge_index):
    w = 0
    for v in range(4):
        w += _tris(coord)[tet][v] * TRI_EDGE_WEIGHTS[v][edge_index]
    for i in range(3):
        w += _quads(coord)[tet][i] * QUAD_EDGE_WEIGHTS[i][edge_index]
        w += _octs(coord)[tet][i] * OCT_EDGE_WEIGHTS[i][edge_index]
    return w


def _ref_check_embeddable(coord):
    if coord.formal:
        raise CoordinateError("formal coordinates are not embeddable")
    for t in range(coord.tet_count):
        if any(x < 0 for x in
               _tris(coord)[t] + _quads(coord)[t] + _octs(coord)[t]):
            raise CoordinateError(f"negative multiplicity in tetrahedron {t}")
        kinds = sum(1 for x in _quads(coord)[t] + _octs(coord)[t] if x)
        if kinds > 1:
            raise CoordinateError(
                f"tetrahedron {t} has more than one quad-or-octagon type")


def _ref_euler_char(tri, coord):
    _ref_check_embeddable(coord)
    sk = tri.skeleton
    for x in sk.face_first:
        if x in sk.boundary_facets:
            continue
        t1, f1 = divmod(x, 4)
        t2, perm = tri.gluing(t1, f1)
        f2 = perm[f1]
        for v in FACET_VERTICES[f1]:
            if _ref_arc_count(coord, t1, f1, v) != \
                    _ref_arc_count(coord, t2, f2, perm[v]):
                raise CoordinateError(
                    f"matching fails across face ({t1},{f1})~({t2},{f2}) "
                    f"at vertex {v}")
    v = 0
    for c, slots in enumerate(sk.edge_slots()):
        ws = {_ref_edge_weight_slot(coord, *divmod(x, 6)) for x in slots}
        if len(ws) != 1:
            raise CoordinateError(f"edge class {c} has mixed weights {ws}")
        v += ws.pop()
    e = 0
    for x in sk.face_first:
        t, f = divmod(x, 4)
        e += sum(_ref_arc_count(coord, t, f, vx) for vx in FACET_VERTICES[f])
    f = sum(sum(_tris(coord)[t]) + sum(_quads(coord)[t]) + sum(_octs(coord)[t])
            for t in range(coord.tet_count))
    return v - e + f


def _outcome(fn, *args):
    """The value, or the message of the CoordinateError raised."""
    try:
        return "value", fn(*args)
    except CoordinateError as exc:
        return "error", str(exc)


def test_arc_tables_match_set_derivation():
    for i in range(3):
        for facet in range(4):
            assert QUAD_ARC_VERTEX[i][facet] == _ref_quad_arc_vertex(i, facet)
            assert OCT_ARC_VERTICES[i][facet] == \
                _ref_oct_arc_vertices(i, facet)


def test_euler_char_matches_reference_on_every_b_modification():
    checked = 0
    for tri in (build.layered_loop(4, twisted=True),
                build.lens_space(1, 6)[0]):
        for phi in cocycle.all_nonzero_classes(tri):
            canon = canonical_surface(tri, phi)
            assert euler_char(tri, canon.coord) == \
                _ref_euler_char(tri, canon.coord) == canon.chi
            evens = phi.even_edges()
            for r in range(len(evens) + 1):
                for b in combinations(evens, r):
                    coord, octs, chi = b_modification(tri, canon, b)
                    assert euler_char(tri, coord) == \
                        _ref_euler_char(tri, coord) == chi == \
                        canon.chi - 2 * octs + 2 * len(b)
                    checked += 1
    assert checked == (4 + 4 + 2) + 8


_COMBINATION_TRIS = (build.layered_loop(4, twisted=True),
                     build.lens_space(1, 6)[0],
                     build.seifert_family("M", 1, 1, 1)[0])


# ----- the disc-table classification against the walker it replaced ---------
#
# The reference is the classification as it was before it read the disc
# tables, kept word for word: discs listed with string tags, the arcs at
# each corner found by scanning the tetrahedron's discs, and one union per
# pair of glued arcs.


def _disc_list(coord):
    discs = []
    for t in range(coord.tet_count):
        for v in range(4):
            for c in range(_tris(coord)[t][v]):
                discs.append((t, "tri", v, c))
        for i in range(3):
            for c in range(_quads(coord)[t][i]):
                discs.append((t, "quad", i, c))
            for c in range(_octs(coord)[t][i]):
                discs.append((t, "oct", i, c))
    return discs


def _arcs_at(coord, disc_index, discs, tet, facet, vertex):
    """Disc indices with an arc cutting off the vertex in this facet, in
    order of distance from the vertex.

    Vertex triangles come first.  Parallel quad or octagon copies are
    indexed from the side of the partition containing vertex 0; the copy
    nearest the cut-off vertex is the first copy when the vertex lies on
    that side and the last copy otherwise, so the orders on the two sides
    of a face gluing correspond.
    """
    out = []
    for di in disc_index.get(tet, ()):
        t, kind, typ, copy = discs[di]
        if kind == "tri" and typ == vertex:
            out.append((0, copy, di))
        elif kind == "quad" and QUAD_ARC_VERTEX[typ][facet] == vertex:
            m = _quads(coord)[tet][typ]
            pos = copy if vertex in QUAD_SIDE_A[typ] else m - 1 - copy
            out.append((1, pos, di))
        elif kind == "oct" and vertex in OCT_ARC_VERTICES[typ][facet]:
            m = _octs(coord)[tet][typ]
            pos = copy if vertex in QUAD_SIDE_A[typ] else m - 1 - copy
            out.append((1, pos, di))
    out.sort()
    return [di for _, _, di in out]


def _toward_vertex_sign(disc, vertex):
    _, kind, typ, _ = disc
    if kind == "tri":
        return 1
    return 1 if vertex in QUAD_SIDE_A[typ] else -1


def _ref_surface_classify(tri, coord, chi=None):
    """(chi, orientable, connected) of an embedded coordinate.

    Orientability is decided by propagating transverse orientations across
    the normal disc adjacency graph.  That coincides with orientability of
    the surface itself only in an orientable manifold, so in a
    non-orientable one ``orientable`` is None: not decided.  The empty
    surface is orientable.  A caller that has already counted the
    coordinate with ``euler_char`` (which also validates it) passes that
    ``chi`` instead of recounting.
    """
    if chi is None:
        chi = euler_char(tri, coord)
    else:
        surface._check_size(tri, coord)
    discs = _disc_list(coord)
    if not discs:
        return chi, True, False
    by_tet = {}
    for i, d in enumerate(discs):
        by_tet.setdefault(d[0], []).append(i)

    # discs joined across faces, with a parity bit when the transverse
    # orientations disagree; any odd cycle (a conflict) is one-sidedness
    uf = _UnionFind(len(discs))
    for x in tri.skeleton.face_first:
        t1, f1 = divmod(x, 4)
        g = tri.gluing(t1, f1)
        if g is None:
            continue
        t2, perm = g
        f2 = perm[f1]
        for v in FACET_VERTICES[f1]:
            side1 = _arcs_at(coord, by_tet, discs, t1, f1, v)
            side2 = _arcs_at(coord, by_tet, discs, t2, f2, perm[v])
            if len(side1) != len(side2):
                raise CoordinateError("arc mismatch during classification")
            for d1, d2 in zip(side1, side2):
                s1 = _toward_vertex_sign(discs[d1], v)
                s2 = _toward_vertex_sign(discs[d2], perm[v])
                uf.union(d1, d2, 0 if s1 == s2 else 1)

    roots = {uf.find(i)[0] for i in range(len(discs))}
    orientable = not uf.conflict if tri.is_orientable else None
    return chi, orientable, len(roots) == 1


def _classification_coordinates():
    """(tri, coord) for the canonical surface of every class on the
    family grid, the folds of the depth-7 lens grid, the twisted loops of
    3 to 11 tetrahedra and the non-orientable two-tetrahedron table: each
    surface, its double and triple and the surface plus the vertex link,
    then every b-modification with at most three selected edges, its
    double and it plus two vertex links; and 1, 2 and 7 copies of the
    vertex link of a bounded solid torus."""
    tris = [tri for _, _, tri in verifysuite._family_grid()]
    tris += [folded for _, _, folded in verifysuite._lens_grid(7)]
    tris += [build.layered_loop(n, twisted=True) for n in range(3, 12)]
    tris.append(parse(NON_ORIENTABLE_TRI))
    for tri in tris:
        link = vertex_link(tri)
        for phi in cocycle.all_nonzero_classes(tri):
            canon = canonical_surface(tri, phi)
            for coord in (canon.coord, canon.coord.scale(2),
                          canon.coord.scale(3), canon.coord + link):
                yield tri, coord
            if not all(map(any, _quads(canon.coord))):
                continue
            evens = phi.even_edges()
            for r in range(4):
                for b in combinations(evens, r):
                    coord, _, _ = b_modification(tri, canon, b)
                    yield tri, coord
                    yield tri, coord.scale(2)
                    yield tri, coord + link.scale(2)
    # parallel copies of the link of the one vertex of a bounded solid
    # torus, which lies on the boundary: disjoint discs
    tri = build.lst(5, 13)[0]
    for k in (1, 2, 7):
        yield tri, vertex_link(tri).scale(k)


def test_surface_classify_matches_reference():
    checked, outcomes = 0, set()
    for tri, coord in _classification_coordinates():
        want = _ref_surface_classify(tri, coord)
        assert surface_classify(tri, coord) == want
        assert surface_classify(tri, coord, want[0]) == want
        outcomes.add(want[1:])
        checked += 1
    # one-sided and two-sided surfaces, connected and not, and undecided
    # ones in the non-orientable table all occur
    assert checked == 4813
    assert outcomes == {(False, True), (False, False), (True, True),
                        (True, False), (None, True), (None, False)}


def test_unit_arc_table_is_the_arc_rule():
    # the empty row and one row per disc type, each as _tet_arcs makes it
    rows = [(0,) * 10] + [tuple(int(d == e) for e in range(10))
                          for d in range(10)]
    assert sorted(surface._UNIT_ARCS) == sorted(rows)
    for row in rows:
        assert surface._UNIT_ARCS[row] == surface._tet_arcs(row)


def test_canonical_surfaces_classify_from_the_unit_arc_table(monkeypatch):
    # a canonical surface has at most one disc per tetrahedron, so no row
    # of its counts needs the arc rule at classification time
    calls = []
    tet_arcs = surface._tet_arcs

    def counted(counts):
        calls.append(counts)
        return tet_arcs(counts)

    monkeypatch.setattr(surface, "_tet_arcs", counted)
    classified = 0
    for _, _, tri in verifysuite._family_grid():
        for phi in cocycle.all_nonzero_classes(tri):
            canon = canonical_surface(tri, phi)
            assert surface_classify(tri, canon.coord, canon.chi)[0] == \
                canon.chi
            classified += 1
    assert classified > 0 and calls == []
    # a doubled surface still takes its rows from the rule
    surface_classify(tri, canon.coord.scale(2))
    assert calls


def test_surface_classify_with_chi_given_checks_the_arcs():
    # a caller's chi skips the validating count, and the arc pairing still
    # finds an unmatched face
    tri = build.layered_loop(4, twisted=True)
    coord = canonical_surface(tri, cocycle.all_nonzero_classes(tri)[0]).coord
    for t in range(tri.tet_count):
        bad = _corrupt(coord, "tris", t, 1, 1)
        assert _outcome(surface_classify, tri, bad, 0) == \
            _outcome(_ref_surface_classify, tri, bad, 0) == \
            ("error", "arc mismatch during classification")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_euler_char_matches_reference_on_combinations(data):
    # non-negative multiples of the vertex link plus canonical surfaces of
    # any classes; two classes can put two quad types in one tetrahedron,
    # and then both counts must raise the same error
    tri = data.draw(st.sampled_from(_COMBINATION_TRIS))
    canons = [canonical_surface(tri, phi).coord
              for phi in cocycle.all_nonzero_classes(tri)]
    coord = vertex_link(tri).scale(data.draw(st.integers(0, 3)))
    for k in data.draw(st.lists(st.integers(0, len(canons) - 1), max_size=3)):
        coord = coord + canons[k].scale(data.draw(st.integers(0, 3)))
    assert _outcome(euler_char, tri, coord) == \
        _outcome(_ref_euler_char, tri, coord)
    assert _outcome(surface_classify, tri, coord) == \
        _outcome(_ref_surface_classify, tri, coord)


def _ref_edge_weights(tri, coord):
    """The edge weights read class by class off each class's slots, the
    loop the per-slot lists replaced."""
    out = []
    for c, slots in enumerate(tri.skeleton.edge_slots()):
        ws = {_ref_edge_weight_slot(coord, *divmod(x, 6)) for x in slots}
        if len(ws) != 1:
            raise CoordinateError(f"edge class {c} has mixed weights {ws}")
        out.append(ws.pop())
    return out


def _corrupt(coord, part, tet, index, delta):
    rows = [list(r) for r in _PARTS[part](coord)]
    rows[tet][index] += delta
    fields = {"tris": _tris(coord), "quads": _quads(coord),
              "octs": _octs(coord),
              part: tuple(tuple(r) for r in rows)}
    return _coord(fields["tris"], fields["quads"], fields["octs"])


@pytest.mark.parametrize("part,index,delta", [
    ("tris", 0, 1), ("tris", 3, 2), ("tris", 1, -1), ("quads", 0, 1),
    ("quads", 2, 1), ("octs", 1, 1), ("octs", 0, -1)])
def test_corrupted_coordinates_still_raise(part, index, delta):
    tri = build.layered_loop(4, twisted=True)
    for phi in cocycle.all_nonzero_classes(tri):
        good = canonical_surface(tri, phi).coord
        for tet in range(tri.tet_count):
            bad = _corrupt(good, part, tet, index, delta)
            kind, message = _outcome(euler_char, tri, bad)
            assert kind == "error"
            assert (kind, message) == _outcome(_ref_euler_char, tri, bad)
            assert _outcome(edge_weights, tri, bad) == \
                _outcome(_ref_edge_weights, tri, bad)
            with pytest.raises(CoordinateError):
                surface_classify(tri, bad)
    formal = _coord(_tris(good), _quads(good), _octs(good), formal=True)
    with pytest.raises(CoordinateError):
        euler_char(tri, formal)


# ----- the disc tables, sizes, formal chi and the oracle log -----------------


def _disc_coord(tet_count, tet, disc, count, formal=False):
    """``count`` discs of type ``disc`` (tris, quads, octs in turn) in one
    tetrahedron and nothing elsewhere."""
    rows = [[0] * 10 for _ in range(tet_count)]
    rows[tet][disc] = count
    return NormalCoordinate(tuple(map(tuple, rows)), formal)


def test_disc_tables_match_references():
    for d in range(10):
        coord = _disc_coord(1, 0, d, 1)
        arcs = [4 * f + v for f in range(4) for v in FACET_VERTICES[f]
                for _ in range(_ref_arc_count(coord, 0, f, v))]
        assert sorted(surface._DISC_ARCS[d]) == arcs
        crossings = [e for e in range(6)
                     for _ in range(_ref_edge_weight_slot(coord, 0, e))]
        assert sorted(surface._DISC_EDGES[d]) == crossings


def test_euler_char_matches_reference_on_a_bounded_solid_torus():
    # two free facets, so the face pass counts arcs it does not match
    tri = build.lst(5, 13)[0]
    assert not tri.is_closed and tri.skeleton.vertex_count == 1
    link = vertex_link(tri)
    for k in range(4):
        coord = link.scale(k)
        # the one vertex lies on the boundary: its link is a disc
        assert euler_char(tri, coord) == _ref_euler_char(tri, coord) == k
        for part, index, delta in (("tris", 0, 1), ("tris", 3, -1),
                                   ("quads", 1, 1), ("octs", 2, 1)):
            for tet in range(tri.tet_count):
                bad = _corrupt(coord, part, tet, index, delta)
                assert _outcome(euler_char, tri, bad) == \
                    _outcome(_ref_euler_char, tri, bad)
                assert _outcome(edge_weights, tri, bad) == \
                    _outcome(_ref_edge_weights, tri, bad)


def test_coordinate_of_the_wrong_size_is_rejected():
    tri = build.layered_loop(4, twisted=True)
    for other in (build.layered_loop(5, twisted=True),
                  build.layered_loop(3, twisted=True)):
        message = (f"^coordinate has {other.tet_count} tetrahedra, "
                   f"the triangulation 4$")
        coord = vertex_link(other)
        for fn in (euler_char, edge_weights, surface_classify):
            with pytest.raises(CoordinateError, match=message):
                fn(tri, coord)
        with pytest.raises(CoordinateError, match=message):
            special_solutions(tri)[2](coord)
        with pytest.raises(CoordinateError, match=message):
            surface_classify(tri, coord, 2)
        phi = cocycle.all_nonzero_classes(other)[0]
        with pytest.raises(CoordinateError, match=message):
            b_modification(tri, canonical_surface(other, phi), ())


def _ref_formal_chi(tri, coord):
    """The formal chi as a sum of Fractions, disc by disc."""
    sk = tri.skeleton
    if not tri.is_closed:
        raise TriangulationError("formal chi is defined for closed triangulations")
    inv_deg = {}
    for t in range(tri.tet_count):
        for ei in range(6):
            degree = sk.edge_degrees[sk.edge_class[6 * t + ei]]
            inv_deg[(t, ei)] = Fraction(1, degree)
    total = Fraction(0)
    for t in range(tri.tet_count):
        for v in range(4):
            c = _tris(coord)[t][v]
            if c:
                corners = sum(inv_deg[(t, ei)] for ei in range(6)
                              if v in EDGE_VERTICES[ei])
                total += c * (corners - Fraction(3, 2) + 1)
        for i in range(3):
            c = _quads(coord)[t][i]
            if c:
                corners = sum(inv_deg[(t, ei)] for ei in range(6)
                              if ei not in QUAD_PAIRS[i])
                total += c * (corners - 2 + 1)
            c = _octs(coord)[t][i]
            if c:
                corners = sum(inv_deg[(t, ei)] for ei in range(6)
                              if ei not in QUAD_PAIRS[i])
                corners += sum(2 * inv_deg[(t, ei)] for ei in QUAD_PAIRS[i])
                total += c * (corners - 4 + 1)
    return int(total) if total.denominator == 1 else total


def _same_formal_chi(fchi, tri, coord):
    got, want = fchi(coord), _ref_formal_chi(tri, coord)
    assert got == want and type(got) is type(want)
    return got


# the instances of verifysuite.check_formal_solutions
_FORMAL_TRIS = tuple([tri for _, _, tri in verifysuite._family_grid(quick=True)]
                     + [build.lens_space(1, 6)[0]])


def test_formal_chi_matches_reference_on_special_solutions():
    for tri in _FORMAL_TRIS:
        edges, tets, fchi = special_solutions(tri)
        assert all(_same_formal_chi(fchi, tri, sol) == 2 for sol in edges)
        assert all(_same_formal_chi(fchi, tri, sol) == 1 for sol in tets)
        link = vertex_link(tri)
        for k in range(4):
            assert _same_formal_chi(fchi, tri, link.scale(k)) == 2 * k
    # octagons: every b-modification of the twisted loop
    tri = build.layered_loop(4, twisted=True)
    fchi = special_solutions(tri)[2]
    for phi in cocycle.all_nonzero_classes(tri):
        canon = canonical_surface(tri, phi)
        evens = phi.even_edges()
        for r in range(len(evens) + 1):
            for b in combinations(evens, r):
                coord, _, chi = b_modification(tri, canon, b)
                assert _same_formal_chi(fchi, tri, coord) == \
                    euler_char(tri, coord) == chi


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_formal_chi_matches_reference_on_combinations(data):
    # integer combinations of the special solutions and the vertex link,
    # which carry negative quads, plus single discs of any sign, which
    # make the value a proper fraction
    tri = data.draw(st.sampled_from(_FORMAL_TRIS))
    edges, tets, fchi = special_solutions(tri)
    sols = edges + tets + [vertex_link(tri)]
    coord = NormalCoordinate.zero(tri.tet_count, formal=True)
    for k in data.draw(st.lists(st.integers(0, len(sols) - 1), max_size=6)):
        coord = coord + sols[k].scale(data.draw(st.integers(-3, 3)))
    for t, d, c in data.draw(st.lists(st.tuples(
            st.integers(0, tri.tet_count - 1), st.integers(0, 9),
            st.integers(-2, 2)), max_size=3)):
        coord = coord + _disc_coord(tri.tet_count, t, d, c, formal=True)
    _same_formal_chi(fchi, tri, coord)


# the solutions as built before special_solutions grouped the slots once,
# kept word for word as the reference


def _reference_tet_solution(tri, tet):
    coord = NormalCoordinate.zero(tri.tet_count, formal=True)
    tris = [list(r) for r in _tris(coord)]
    quads = [list(r) for r in _quads(coord)]
    tris[tet] = [1, 1, 1, 1]
    quads[tet] = [-1, -1, -1]
    return _coord(tuple(tuple(r) for r in tris),
                  tuple(tuple(r) for r in quads),
                  _octs(coord), formal=True)


def _reference_edge_solution(tri, edge_class):
    tris = [[0] * 4 for _ in range(tri.tet_count)]
    quads = [[0] * 3 for _ in range(tri.tet_count)]
    for x in tri.skeleton.edge_slots()[edge_class]:
        t, ei = divmod(x, 6)
        a, b = EDGE_VERTICES[ei]
        tris[t][a] += 1
        tris[t][b] += 1
        qi = next(i for i in range(3) if ei in QUAD_PAIRS[i])
        quads[t][qi] -= 1
    return _coord(tuple(tuple(r) for r in tris),
                  tuple(tuple(r) for r in quads),
                  tuple((0, 0, 0) for _ in range(tri.tet_count)),
                  formal=True)


def edge_solution(tri, edge_class):
    """The edge solution of one edge class, from the slots of that class
    alone."""
    return surface._edge_solution(tri, tri.skeleton.edge_slots()[edge_class])


def test_special_solutions_match_per_class_reference():
    for tri in _FORMAL_TRIS + (build.layered_loop(5, twisted=False),):
        edges, tets, _ = special_solutions(tri)
        want_edges = [_reference_edge_solution(tri, e)
                      for e in range(tri.skeleton.edge_count)]
        want_tets = [_reference_tet_solution(tri, t)
                     for t in range(tri.tet_count)]
        assert edges == want_edges
        assert tets == want_tets
        assert [edge_solution(tri, e)
                for e in range(tri.skeleton.edge_count)] == want_edges
        assert [tet_solution(tri, t)
                for t in range(tri.tet_count)] == want_tets


def test_special_solutions_group_the_slots_once(monkeypatch):
    calls = []
    edge_slots = Skeleton.edge_slots

    def counted(self):
        calls.append(self)
        return edge_slots(self)

    monkeypatch.setattr(Skeleton, "edge_slots", counted)
    for tri in _FORMAL_TRIS:
        calls.clear()
        edges, _, _ = special_solutions(tri)
        assert len(edges) == tri.skeleton.edge_count > 1
        assert calls == [tri.skeleton]


def test_chi_two_methods_classifies_each_class_once(monkeypatch):
    calls = {"classes": 0, "classify_tetrahedra": 0}
    classes, classify = cocycle.all_nonzero_classes, cocycle.classify_tetrahedra

    def counted_classes(tri):
        out = classes(tri)
        calls["classes"] += len(out)
        return out

    def counted_classify(tri, phi):
        calls["classify_tetrahedra"] += 1
        return classify(tri, phi)

    monkeypatch.setattr(cocycle, "all_nonzero_classes", counted_classes)
    for module in (cocycle, surface):
        monkeypatch.setattr(module, "classify_tetrahedra", counted_classify)
    # a direct call, outside verifysuite.run, walks its shares in process
    ok, _ = verifysuite.check_chi_two_methods(quick=True)
    assert ok and calls["classes"] > 0
    assert calls["classify_tetrahedra"] == calls["classes"]


def test_formal_chi_needs_a_closed_triangulation():
    tri = build.lst(5, 13)[0]
    with pytest.raises(TriangulationError,
                       match="^formal chi is defined for closed "
                             "triangulations$"):
        special_solutions(tri)


def test_b_modification_logs_each_check(caplog, capsys):
    tri = build.layered_loop(4, twisted=True)
    phi = cocycle.all_nonzero_classes(tri)[0]
    canon = canonical_surface(tri, phi)
    evens = phi.even_edges()
    subsets = [(), tuple(evens[:1]), tuple(evens)]
    with caplog.at_level(logging.DEBUG, logger="trinorm.surface"):
        results = [b_modification(tri, canon, b) for b in subsets]
    records = [r for r in caplog.records if r.name == "trinorm.surface"]
    assert len(records) == len(subsets)
    for record, b, (coord, octs, chi) in zip(records, subsets, results):
        assert chi == euler_char(tri, coord)
        assert record.levelno == logging.DEBUG and record.args
        assert record.getMessage() == (
            f"b_modification: b={sorted(b)}, {octs} octagons, "
            f"cell-count chi {chi}, formula chi {chi}")
    assert capsys.readouterr() == ("", "")


# ----- the table-driven cell count and b-modification -------------------------


def _ref_b_modification(tri, canon, b_edges):
    """The per-tetrahedron loop that ``b_modification`` ran before its rule
    table, kept word for word (without its log line) as the oracle."""
    surface._check_size(tri, canon.coord)
    b = set(b_edges)
    sk = tri.skeleton
    for e in b:
        if not 0 <= e < sk.edge_count:
            raise TriangulationError(f"{e} is not an edge class")
        if canon.cocycle[e]:
            raise TriangulationError(f"edge {e} is odd; b must select even edges")
    n = tri.tet_count
    tris = [[0] * 4 for _ in range(n)]
    quads = [[0] * 3 for _ in range(n)]
    octs = [[0] * 3 for _ in range(n)]
    for t, canon_quads in enumerate(_quads(canon.coord)):
        if not any(canon_quads):
            raise TriangulationError(
                "b-modification needs all tetrahedra of quad type")
        qi = canon_quads.index(1)
        e1, e2 = QUAD_PAIRS[qi]
        c1 = sk.edge_class[6 * t + e1] in b
        c2 = sk.edge_class[6 * t + e2] in b
        if not c1 and not c2:
            quads[t][qi] = 1
        elif c1 and c2:
            octs[t][qi] = 1
        else:
            heavy = e1 if c1 else e2
            a, bb = EDGE_VERTICES[heavy]
            tris[t][a] += 1
            tris[t][bb] += 1
    coord = _coord(tuple(tuple(r) for r in tris),
                   tuple(tuple(r) for r in quads),
                   tuple(tuple(r) for r in octs))
    oct_count = sum(sum(r) for r in _octs(coord))
    chi = euler_char(tri, coord)
    if chi != canon.chi - 2 * oct_count + 2 * len(b):
        raise AssertionError(
            f"octagon count formula violated at b={sorted(b)}")
    return coord, oct_count


def _octagon_formula_modifications(quick=False):
    """(tri, canon, b) for every modification that
    ``verifysuite.check_octagon_formula`` checks, on the same instances."""
    instances = [build.layered_loop(k, twisted=True)
                 for k in ((4,) if quick else (4, 6))]
    instances += [build.lens_space(1, 2 * n - 2)[0]
                  for n in ((4, 7) if quick else (4, 7, 13))]
    for tri in instances:
        for phi in cocycle.all_nonzero_classes(tri):
            canon = canonical_surface(tri, phi)
            evens = phi.even_edges()
            for r in range(len(evens) + 1):
                for b in combinations(evens, r):
                    yield tri, canon, b


def _mutations(coord):
    """Coordinates one or two edits away from an embedded ``coord``: a
    disc moved to another type in one tetrahedron, a negative entry, a
    second quad-or-octagon type, and two bad tetrahedra in either order."""
    n = coord.tet_count
    for t in range(n):
        kind = "tris" if any(_tris(coord)[t]) else \
            "quads" if any(_quads(coord)[t]) else "octs"
        row = _PARTS[kind](coord)[t]
        i = next(j for j, c in enumerate(row) if c)
        moved = _corrupt(coord, kind, t, i, -1)
        yield _corrupt(moved, kind, t, (i + 1) % len(row), 1)
        yield _corrupt(coord, "tris", t, 2, -_tris(coord)[t][2] - 1)
        other = "octs" if kind == "quads" else "quads"
        yield _corrupt(coord, other, t, 1, 1)
    for t1, t2 in ((0, n - 1), (n - 1, 0)):
        two = _corrupt(coord, "quads", t1, 0, 1)
        two = _corrupt(two, "octs", t1, 2, 1)
        yield _corrupt(two, "octs", t2, 1, -_octs(coord)[t2][1] - 1)


def test_euler_char_and_b_modification_match_references_on_the_verify_set():
    # every modification the octagon formula criterion checks: the rule
    # table against the old loop, the cell count against the reference
    checked = mutated = 0
    for tri, canon, b in _octagon_formula_modifications():
        coord, octs, chi = b_modification(tri, canon, b)
        assert (coord, octs) == _ref_b_modification(tri, canon, b)
        assert _outcome(euler_char, tri, coord) == \
            _outcome(_ref_euler_char, tri, coord) == \
            ("value", chi) == ("value", canon.chi - 2 * octs + 2 * len(b))
        if checked % 97 == 0:
            for bad in _mutations(coord):
                kind, message = _outcome(euler_char, tri, bad)
                assert kind == "error"
                assert (kind, message) == _outcome(_ref_euler_char, tri, bad)
                mutated += 1
        checked += 1
    assert checked == 4196 and mutated > 1000


def test_errors_are_raised_in_tetrahedron_order():
    tri = build.layered_loop(4, twisted=True)
    coord = canonical_surface(tri, cocycle.all_nonzero_classes(tri)[0]).coord
    negative = _corrupt(coord, "tris", 3, 0, -1)
    both = _corrupt(_corrupt(negative, "quads", 1, 0, 1), "quads", 1, 1, 1)
    assert _outcome(euler_char, tri, both) == _outcome(
        _ref_euler_char, tri, both) == (
        "error", "tetrahedron 1 has more than one quad-or-octagon type")
    # in one tetrahedron a negative entry comes first
    both = _corrupt(both, "octs", 1, 0, -1)
    assert _outcome(euler_char, tri, both) == _outcome(
        _ref_euler_char, tri, both) == (
        "error", "negative multiplicity in tetrahedron 1")


def test_cell_memo_is_bounded():
    info = surface._tet_cells.cache_info()
    assert info.maxsize is not None
    tri = build.lst(1, 2)[0]
    link = vertex_link(tri)
    for k in range(info.maxsize + 50):
        assert euler_char(tri, link.scale(k)) == k
    assert surface._tet_cells.cache_info().currsize == info.maxsize
    for k in (0, 1, 7):
        coord = link.scale(k)
        assert euler_char(tri, coord) == _ref_euler_char(tri, coord) == k


def test_facet_corners_match_the_gluings():
    for tri in (build.layered_loop(4, twisted=True), build.lst(5, 13)[0],
                build.seifert_family("M", 1, 2, 1)[0]):
        lower, upper, counted = tri.facet_corners
        pairs, corners = [], []
        for x in tri.skeleton.face_first:
            t, f = divmod(x, 4)
            corners += [4 * x + v for v in FACET_VERTICES[f]]
            g = tri.gluing(t, f)
            if g is not None:
                u, perm = g
                pairs += [(4 * x + v, 16 * u + 4 * perm[f] + perm[v])
                          for v in FACET_VERTICES[f]]
        assert list(zip(lower, upper)) == pairs
        assert counted == corners


# ----- one row per tetrahedron against the three-part writers ----------------
#
# The writers as they were when a coordinate held its triangles, quads and
# octagons as three tuples, kept word for word: each of today's rows must
# be the three parts joined, and ``dump`` must print the same bytes.


def _ref_canonical_parts(tri, types):
    n = tri.tet_count
    tris = [[0] * 4 for _ in range(n)]
    quads = [[0] * 3 for _ in range(n)]
    for t, (ty, detail) in enumerate(types):
        if ty is TetType.QUAD:
            quads[t][detail] = 1
        elif ty is TetType.TRI:
            tris[t][detail] = 1
    return (tuple(tuple(r) for r in tris), tuple(tuple(r) for r in quads),
            tuple((0, 0, 0) for _ in range(n)))


def _ref_b_row(qi, c1, c2):
    tris, quads, octs = [0] * 4, [0] * 3, [0] * 3
    e1, e2 = QUAD_PAIRS[qi]
    if not c1 and not c2:
        quads[qi] = 1
    elif c1 and c2:
        octs[qi] = 1
    else:
        heavy = e1 if c1 else e2
        a, bb = EDGE_VERTICES[heavy]
        tris[a] += 1
        tris[bb] += 1
    return tuple(tris), tuple(quads), tuple(octs), octs[qi]


def _ref_b_parts(tri, canon, b):
    """The three parts of the b-modification of ``canon`` that selects
    the edges ``b``, joined tetrahedron by tetrahedron from _ref_b_row,
    and its octagon count."""
    sk = tri.skeleton
    rows = []
    for t, canon_quads in enumerate(_quads(canon.coord)):
        qi = canon_quads.index(1)
        e1, e2 = QUAD_PAIRS[qi]
        rows.append(_ref_b_row(qi, sk.edge_class[6 * t + e1] in b,
                               sk.edge_class[6 * t + e2] in b))
    tris, quads, octs, counts = zip(*rows)
    return (tris, quads, octs), sum(counts)


def _assert_b_modification_joins(tri, canon, b):
    coord, octs, _ = b_modification(tri, canon, b)
    parts, count = _ref_b_parts(tri, canon, b)
    _assert_rows_join(coord, parts)
    assert octs == count


def _ref_tet_solution_parts(tri, tet):
    n = tri.tet_count
    tris = [(0,) * 4] * n
    quads = [(0,) * 3] * n
    tris[tet] = (1, 1, 1, 1)
    quads[tet] = (-1, -1, -1)
    return tuple(tris), tuple(quads), ((0,) * 3,) * n


def _ref_edge_solution_parts(tri, slots):
    touched = {}
    for x in slots:
        t, ei = divmod(x, 6)
        tr, qu = touched.setdefault(t, ([0] * 4, [0] * 3))
        a, b = EDGE_VERTICES[ei]
        tr[a] += 1
        tr[b] += 1
        qi = next(i for i in range(3) if ei in QUAD_PAIRS[i])
        qu[qi] -= 1
    n = tri.tet_count
    tris = [(0,) * 4] * n
    quads = [(0,) * 3] * n
    for t, (tr, qu) in touched.items():
        tris[t], quads[t] = tuple(tr), tuple(qu)
    return tuple(tris), tuple(quads), ((0,) * 3,) * n


def _ref_dump(tris, quads, octs):
    lines = []
    for t in range(len(tris)):
        lines.append("%d: %s | %s | %s" % (
            t, " ".join(map(str, tris[t])),
            " ".join(map(str, quads[t])),
            " ".join(map(str, octs[t]))))
    return "\n".join(lines)


def _assert_rows_join(coord, parts):
    tris, quads, octs = parts
    assert len(coord.rows) == len(tris) == len(quads) == len(octs)
    for t, row in enumerate(coord.rows):
        assert row == tris[t] + quads[t] + octs[t]
    assert coord.dump() == _ref_dump(tris, quads, octs)


def _assert_writers_join(tri, modifications=4):
    """Every writer's rows on one triangulation: the special solutions of
    a closed one, and on a closed one-vertex one the canonical surface of
    every class and the b-modifications of the all-quad ones that select
    at most ``modifications`` edges.  Returns how many solutions, surfaces
    and modifications were compared."""
    compared = [0, 0, 0]
    if tri.is_closed:
        edges, tets, _ = special_solutions(tri)
        for sol, slots in zip(edges, tri.skeleton.edge_slots()):
            _assert_rows_join(sol, _ref_edge_solution_parts(tri, slots))
        for t, sol in enumerate(tets):
            _assert_rows_join(sol, _ref_tet_solution_parts(tri, t))
        compared[0] += len(edges) + len(tets)
    if not tri.is_closed or tri.skeleton.vertex_count != 1:
        return compared
    for phi in cocycle.all_nonzero_classes(tri):
        types = cocycle.classify_tetrahedra(tri, phi)
        canon = canonical_surface(tri, phi, types)
        _assert_rows_join(canon.coord, _ref_canonical_parts(tri, types))
        compared[1] += 1
        if any(ty is not TetType.QUAD for ty, _ in types):
            continue
        evens = phi.even_edges()
        for r in range(min(len(evens), modifications) + 1):
            for b in combinations(evens, r):
                _assert_b_modification_joins(tri, canon, b)
                compared[2] += 1
    return compared


def test_b_rows_join_the_three_part_rule():
    for qi in range(3):
        for c1 in (0, 1):
            for c2 in (0, 1):
                tris, quads, octs, count = _ref_b_row(qi, c1, c2)
                assert surface._B_ROWS[4 * qi + 2 * c1 + c2] == \
                    surface._b_row(qi, c1, c2) == (tris + quads + octs, count)


def test_writers_join_the_three_part_writers_on_the_verify_set():
    compared = [0, 0, 0]
    tris = [tri for _, _, tri in verifysuite._family_grid()]
    tris += [folded for _, _, folded in verifysuite._lens_grid(7)]
    for tri in tris:
        compared = list(map(sum, zip(compared, _assert_writers_join(tri))))
    # every modification the octagon formula criterion checks
    for tri, canon, b in _octagon_formula_modifications():
        _assert_b_modification_joins(tri, canon, b)
        compared[2] += 1
    assert compared == [6732, 256, 1148 + 4196]


def test_writers_join_the_three_part_writers_on_random_tables():
    compared = [0, 0, 0]

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.one_of(gluing_tables(), gluing_tables(kinds=("pair",)))
           .filter(lambda tri: tri.is_valid))
    def compare(tri):
        compared[:] = map(sum, zip(compared,
                                   _assert_writers_join(tri, 2)))

    compare()
    # the random tables reach every writer
    assert min(compared) > 0, compared


def test_coordinates_of_different_sizes_do_not_add():
    two, three = NormalCoordinate.zero(2), NormalCoordinate.zero(3)
    for a, b in ((two, three), (three, two)):
        message = (f"^cannot add coordinates of {a.tet_count} and "
                   f"{b.tet_count} tetrahedra$")
        with pytest.raises(CoordinateError, match=message):
            a + b
        with pytest.raises(CoordinateError, match=message):
            a - b
    assert two + two == two


def test_tet_solution_rejects_an_index_out_of_range():
    tri = build.layered_loop(4, twisted=True)
    for tet in (-1, tri.tet_count, tri.tet_count + 3):
        with pytest.raises(CoordinateError,
                           match=f"^{tet} is not a tetrahedron of a "
                                 f"4-tetrahedron triangulation$"):
            tet_solution(tri, tet)
    assert tet_solution(tri, 3).rows[3] == (1, 1, 1, 1, -1, -1, -1, 0, 0, 0)


def test_canonical_surface_logs_its_weight_check(caplog, capsys):
    tri = build.layered_loop(6, twisted=True)
    phis = cocycle.all_nonzero_classes(tri)
    with caplog.at_level(logging.DEBUG, logger="trinorm.surface"):
        canons = [canonical_surface(tri, phi) for phi in phis]
    records = [r for r in caplog.records if r.name == "trinorm.surface"]
    assert len(records) == len(phis) == len(canons)
    edges = tri.skeleton.edge_count
    for record in records:
        assert record.levelno == logging.DEBUG and record.args
        assert record.getMessage() == (
            f"canonical_surface: {edges} edge weights against the "
            f"colouring, differing on edges []")
    assert capsys.readouterr() == ("", "")
    # a colouring the weights do not match is logged before it raises
    bad = cocycle.Cocycle(tuple(1 - b for b in phis[0].bits))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="trinorm.surface"):
        with pytest.raises(AssertionError, match="differs from parity"):
            canonical_surface(tri, bad, cocycle.classify_tetrahedra(
                tri, phis[0]))
    (record,) = [r for r in caplog.records if r.name == "trinorm.surface"]
    assert record.getMessage() == (
        f"canonical_surface: {edges} edge weights against the colouring, "
        f"differing on edges {list(range(edges))}")
