"""Structural detectors, moves, promotion and certificates."""

import dataclasses
import functools
import itertools
import logging
import random

import pytest
from hypothesis import given, settings, strategies as st

from trinorm import build, cocycle, homology, analyze, verifysuite
from trinorm.analyze import (find_maximal_lsts, lst_intersection_matrix,
                             low_degree_lint, fundamental_report, MoveSpec,
                             move23, move32, move44, pachner,
                             pachner_with_cocycle, supportive_tori, promote,
                             almost_supportive_tori, compression_pattern_scan,
                             complexity_certificate)
from trinorm.build import (AnnulusFilling, LayeredSolidTorus,
                           augmented_solid_torus, relayered_weight)
from trinorm.perm import ALL_PERMS, Perm4
from trinorm.surface import (canonical_surface, edge_weights, euler_char,
                             surface_classify, vertex_link)
from trinorm.triangulation import (EDGE_INDEX, EDGE_VERTICES, FACET_EDGES,
                                   FACET_VERTICES, Skeleton, Triangulation,
                                   TriangulationError, parse, serialize)
from test_skeleton import gluing_tables, reference_glued
from test_triangulation import _random_relabelling
from test_build import _boundary_edge_slot


def test_maximal_lsts_on_lens():
    for (p, q) in ((1, 4), (1, 8), (2, 7), (3, 8)):
        tri, meta, _ = build.lens_space(p, q)
        lsts = find_maximal_lsts(tri)
        assert len(lsts) == 2
        joint = set(lsts[0].tets) & set(lsts[1].tets)
        assert len(joint) == tri.tet_count - 2


def test_single_lst_is_whole_complex():
    tri, _ = build.lst(1, 2)
    lsts = find_maximal_lsts(tri)
    assert len(lsts) == 1 and lsts[0].size == 1
    assert lst_intersection_matrix(tri, lsts) == [[0]]


def test_recognition_matches_construction():
    # recognised in its own triangulation, a built torus is the same
    # record: tetrahedra in layering order, weights, boundary edges in
    # order, univalent and base edge (the book is not compared)
    nodes = 0
    for _, tri, meta in build.lst_tree(9):
        assert find_maximal_lsts(tri) == [meta]
        nodes += 1
    assert nodes == 511
    for p, q in ((1, 400), (13, 34), (55, 89)):
        tri, meta = build.lst(p, q)
        assert find_maximal_lsts(tri) == [meta]


def test_three_lsts_on_augmented():
    for tag in ("M", "MPRIME"):
        tri, _ = build.seifert_family(tag, 1, 2, 1)
        lsts = find_maximal_lsts(tri)
        assert len(lsts) == 3
        mat = lst_intersection_matrix(tri, lsts)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert mat[i][j] <= 1


def test_lst_interior_degree_matches_ambient():
    tri, meta, _ = build.lens_space(1, 8)
    sk = tri.skeleton
    for emb in find_maximal_lsts(tri):
        # an edge's degree in the torus: its class's slots among the torus's
        # tetrahedra
        slots = [sk.edge_class[6 * t + ei] for t in emb.tets for ei in range(6)]
        for e in emb.interior_edges:
            assert slots.count(e) == sk.edge_degrees[e]
        assert slots.count(emb.univalent_edge) == 1


def test_lint_small_lens_cases():
    one_tet, _, _ = build.lens_space(1, 2, fold_weight=1)   # L(5,2)
    rep = low_degree_lint(one_tet)
    assert rep["degree_3"]
    assert all(e["classification"] == "one_tet_lens_order_5"
               for e in rep["degree_3"])

    for w, order in ((3, 5), (1, 7)):
        two_tet, _, _ = build.lens_space(1, 3, fold_weight=w)
        rep = low_degree_lint(two_tet)
        assert any(e["classification"] == f"two_tet_lens_order_{order}"
                   for e in rep["degree_3"])


def test_lint_t134_interior():
    for n in (4, 5, 6):
        tri, _, _ = build.lens_space(1, 2 * n - 2)
        phi = cocycle.all_nonzero_classes(tri)[0]
        rep = low_degree_lint(tri)
        even_deg3 = [e for e in rep["degree_3"]
                     if phi[e["edge"]] == 0]
        assert even_deg3
        assert all(e["classification"] == "interior_of_T134"
                   for e in even_deg3)


def test_no_degree_one_edges_outside_s3():
    for (p, q) in ((1, 4), (2, 5), (1, 8)):
        tri, _, _ = build.lens_space(p, q)
        assert not low_degree_lint(tri)["degree_1"]
    s3, _, _ = build.lens_space(1, 2, fold_weight=3)
    rep = low_degree_lint(s3)
    assert all(e["classification"] == "s3_exception"
               for e in rep["degree_1"])


def test_fundamental_report_balanced():
    tri, _, _ = build.lens_space(1, 8)    # L(10,1), n = 5
    phi = cocycle.all_nonzero_classes(tri)[0]
    rep = fundamental_report(tri, phi)
    assert rep.identity_lhs == rep.identity_rhs
    assert (rep.eq1_lhs, rep.eq1_rhs) == (2, 2)
    assert rep.balanced and rep.chi == -3 and rep.g == 5


def test_fundamental_report_k_phi_shifts_rhs():
    tri, _, _ = build.lens_space(1, 6)
    phi = cocycle.all_nonzero_classes(tri)[0]
    base = fundamental_report(tri, phi, k_phi=0)
    shifted = fundamental_report(tri, phi, k_phi=2)
    assert shifted.eq1_rhs == base.eq1_rhs + 16


def test_fundamental_report_logs_both_euler_characteristics(caplog, capsys):
    tri = build.layered_loop(6, twisted=True)
    phis = cocycle.all_nonzero_classes(tri)
    with caplog.at_level(logging.DEBUG, logger="trinorm.analyze"):
        reports = [fundamental_report(tri, phi) for phi in phis]
    records = [r for r in caplog.records if r.name == "trinorm.analyze"
               and r.getMessage().startswith("fundamental_report")]
    assert len(records) == len(phis)
    for record, report in zip(records, reports):
        assert record.levelno == logging.DEBUG and record.args
        assert record.getMessage() == (
            f"fundamental_report: cell-count chi {report.chi}, "
            f"census formula chi {report.chi}")
    assert capsys.readouterr() == ("", "")


def _23_faces(tri):
    """Interior face classes between two distinct tetrahedra."""
    sk = tri.skeleton
    return [c for c, x in enumerate(sk.face_first)
            if x not in sk.boundary_facets
            and tri.gluing(*divmod(x, 4))[0] != x // 4]


def test_move23_move32_inverse():
    rng = random.Random(11)
    tri, _, _ = build.lens_space(1, 6)
    for _ in range(10):
        f = rng.choice(_23_faces(tri))
        bigger, slots = move23(tri, f)
        assert bigger.tet_count == tri.tet_count + 1
        assert None not in slots
        edge = next(e for e, slots in enumerate(bigger.skeleton.edge_slots())
                    if len(slots) == 3 and len({x // 6 for x in slots}) == 3)
        back, slots = move32(bigger, edge)
        assert back.isomorphic(tri)
        # only the deleted edge's slots have nowhere to go
        assert [x for x, y in enumerate(slots) if y is None] == \
            sorted(bigger.skeleton.edge_slots()[edge])


def test_moves_preserve_homology_and_orientability():
    tri = build.layered_loop(6, twisted=True)
    h0 = homology.first_homology(tri)
    f = _23_faces(tri)[0]
    out = pachner(tri, MoveSpec("23", face=f))
    h1 = homology.first_homology(out)
    assert (h0.invariant_factors, h0.betti) == (h1.invariant_factors, h1.betti)
    assert out.is_orientable


@settings(max_examples=100, deadline=None)
@given(gluing_tables())
def test_moves_on_random_tables_apply_or_refuse(tri):
    # free, self-glued and non-orientable gluings reach the face and edge
    # readers of every move: each site, in range or not, is moved or
    # refused as a domain error, and a 2-3 move takes exactly the interior
    # faces between two distinct tetrahedra
    sk = tri.skeleton
    faces = _23_faces(tri)
    for kind, count, grows in (("23", sk.face_count, 1),
                               ("32", sk.edge_count, -1),
                               ("44", sk.edge_count, 0)):
        for site in range(-1, count + 1):
            try:
                out = pachner(tri, MoveSpec(kind, face=site, edge=site))
            except TriangulationError:
                assert kind != "23" or site not in faces
                continue
            assert 0 <= site < count
            assert out.tet_count == tri.tet_count + grows
            assert kind != "23" or site in faces


def test_move_preconditions():
    tri, _, _ = build.lens_space(1, 2, fold_weight=1)
    with pytest.raises(TriangulationError):
        move23(tri, 0)   # both face slots on the single tetrahedron
    big, _, _ = build.lens_space(1, 8)
    not3 = next(e for e, d in enumerate(big.skeleton.edge_degrees) if d != 3)
    with pytest.raises(TriangulationError):
        move32(big, not3)
    with pytest.raises(TriangulationError):
        move44(big, not3, axis=2)


# ----- the moves against their hand-derived tables ------------------------------
# The facet tables the three moves had before they were derived from the
# region vertex names by ``analyze._retriangulate``, kept as the reference,
# with the surgery record, its application and its edge class transport
# that the moves used before ``_retriangulate`` built the triangulation
# and its edge-slot map itself.


@dataclasses.dataclass
class _Surgery:
    """Replacement of a set of tetrahedra by new ones.

    external is a mapping (old_tet, old_facet) -> (new_tet, vertex_map)
    covering every facet of a doomed tetrahedron that survives as a facet
    of a new one.  Facets of doomed tetrahedra missing from the mapping are
    interior to the region and vanish.
    """
    doomed: tuple
    new_count: int
    internal: list
    external: dict


def _apply_surgery(tri, surgery):
    doomed = set(surgery.doomed)
    survivors = [t for t in range(tri.tet_count) if t not in doomed]
    new_index = {t: i for i, t in enumerate(survivors)}
    base = len(survivors)
    joins = []

    def resolve(t, f):
        """New-label slot and vertex map for an old slot."""
        if t in doomed:
            new_t, vmap = surgery.external[(t, f)]
            return base + new_t, vmap
        return new_index[t], Perm4((0, 1, 2, 3))

    done = set()
    for t in survivors + sorted(doomed):
        for f in range(4):
            g = tri.gluing(t, f)
            if g is None:
                continue
            if t in doomed and (t, f) not in surgery.external:
                continue
            u, perm = g
            if u in doomed and (u, perm[f]) not in surgery.external:
                continue
            here_t, here_map = resolve(t, f)
            there_t, there_map = resolve(u, perm[f])
            new_perm = there_map * perm * here_map.inverse()
            key = ((here_t, here_map[f]), (there_t, new_perm[here_map[f]]))
            if (key[1], key[0]) in done or key in done:
                continue
            done.add(key)
            joins.append((here_t, here_map[f], there_t, new_perm))
    for (t1, f1, t2, f2, perm) in surgery.internal:
        joins.append((base + t1, f1, base + t2, perm))
    new_tri = reference_glued((), joins, base + surgery.new_count)
    return new_tri, new_index, base


def _edge_class_transport(tri, new_tri, new_index, base, surgery):
    """Mapping of surviving old edge classes to new ones, via unchanged
    tetrahedra and the external facet correspondences."""
    sk_old, sk_new = tri.skeleton, new_tri.skeleton
    mapping = {}
    for t, i in new_index.items():
        for ei in range(6):
            old = sk_old.edge_class[6 * t + ei]
            mapping[old] = sk_new.edge_class[6 * i + ei]
    for (t, f), (nt, vmap) in surgery.external.items():
        for ei in FACET_EDGES[f]:
            x, y = EDGE_VERTICES[ei]
            old = sk_old.edge_class[6 * t + ei]
            new = sk_new.edge_class[6 * (base + nt)
                                    + EDGE_INDEX[vmap[x], vmap[y]]]
            if old in mapping and mapping[old] != new:
                raise AssertionError("inconsistent edge transport")
            mapping[old] = new
    return mapping


def ref_move23(tri, face_class):
    sk = tri.skeleton
    x = sk.face_first[face_class]
    if x in sk.boundary_facets or x in sk.self_glued_facets:
        raise TriangulationError("2-3 move needs an interior face")
    ta, fa = divmod(x, 4)
    tb, perm = tri.gluing(ta, fa)
    fb = perm[fa]
    if ta == tb:
        raise TriangulationError("2-3 move needs two distinct tetrahedra")
    w = FACET_VERTICES[fa]
    internal = []
    cyc = Perm4((0, 2, 1, 3))
    for j in range(3):
        internal.append((j, 1, (j + 1) % 3, 2, cyc))
    external = {}
    for j in range(3):
        # facet of A opposite triangle vertex w[j]
        amap = {fa: 0, w[(j + 1) % 3]: 1, w[(j + 2) % 3]: 2, w[j]: 3}
        external[(ta, w[j])] = (j, Perm4.from_map(amap))
        bmap = {fb: 3, perm[w[(j + 1) % 3]]: 1, perm[w[(j + 2) % 3]]: 2,
                perm[w[j]]: 0}
        external[(tb, perm[w[j]])] = (j, Perm4.from_map(bmap))
    surgery = _Surgery((ta, tb), 3, internal, external)
    return _apply_surgery(tri, surgery) + (surgery,)


def _wedges(tri, edge_class, distinct):
    wedges = tri.edge_link(edge_class)
    tets = [w[0] for w in wedges]
    if distinct and len(set(tets)) != len(tets):
        raise TriangulationError(
            "move needs pairwise distinct tetrahedra around the edge")
    return wedges


def ref_move32(tri, edge_class):
    if tri.skeleton.edge_degrees[edge_class] != 3:
        raise TriangulationError("3-2 move needs a degree-3 edge")
    wedges = _wedges(tri, edge_class, distinct=True)
    internal = [(0, 3, 1, 3, Perm4((0, 1, 2, 3)))]
    external = {}
    # Link vertex B_i sits between wedges i and i+1; it is vertex f_in of
    # wedge i and f_out of wedge i+1.  New tets: 0 = (B0,B1,B2, head pole),
    # 1 = (B0,B1,B2, tail pole), pole carrying label 3.
    for i, (t, head, tail, fin, fout) in enumerate(wedges):
        this_b = i
        prev_b = (i - 1) % 3
        third = next(x for x in range(3) if x not in (this_b, prev_b))
        external[(t, head)] = (1, Perm4.from_map(
            {head: third, tail: 3, fin: this_b, fout: prev_b}))
        external[(t, tail)] = (0, Perm4.from_map(
            {tail: third, head: 3, fin: this_b, fout: prev_b}))
    surgery = _Surgery(tuple(w[0] for w in wedges), 2, internal, external)
    return _apply_surgery(tri, surgery) + (surgery,)


def ref_move44(tri, edge_class, axis=0):
    if tri.skeleton.edge_degrees[edge_class] != 4:
        raise TriangulationError("4-4 move needs a degree-4 edge")
    if axis not in (0, 1):
        raise TriangulationError("axis must be 0 or 1")
    wedges = _wedges(tri, edge_class, distinct=True)
    # link square vertices B_0..B_3; new axis joins B_axis and B_axis+2
    ax = (axis, axis + 2)
    offax = tuple(x for x in range(4) if x not in ax)
    # new tets: index 0: (axis0, axis1, offax0, head) 1: (.., offax1, head)
    #           2: (axis0, axis1, offax0, tail) 3: (.., offax1, tail)
    internal = [
        (0, 2, 1, 2, Perm4((0, 1, 2, 3))),
        (2, 2, 3, 2, Perm4((0, 1, 2, 3))),
        (0, 3, 2, 3, Perm4((0, 1, 2, 3))),
        (1, 3, 3, 3, Perm4((0, 1, 2, 3))),
    ]
    external = {}

    def b_label(b):
        if b == ax[0]:
            return 0
        if b == ax[1]:
            return 1
        return 2

    for i, (t, head, tail, fin, fout) in enumerate(wedges):
        b_this = i            # B_i is vertex f_in of wedge i
        b_prev = (i - 1) % 4  # B_{i-1} is vertex f_out
        off_b = b_this if b_this not in ax else b_prev
        axis_b = b_this if b_this in ax else b_prev
        other_axis_label = 1 if axis_b == ax[0] else 0
        tet_head = 0 if off_b == offax[0] else 1
        tet_tail = tet_head + 2
        external[(t, head)] = (tet_tail, Perm4.from_map(
            {tail: 3, fin: b_label(b_this), fout: b_label(b_prev),
             head: other_axis_label}))
        external[(t, tail)] = (tet_head, Perm4.from_map(
            {head: 3, fin: b_label(b_this), fout: b_label(b_prev),
             tail: other_axis_label}))
    surgery = _Surgery(tuple(w[0] for w in wedges), 4, internal, external)
    return _apply_surgery(tri, surgery) + (surgery,)


def ref_apply_move(tri, move):
    """The reference move a MoveSpec names, on a face or edge class that
    exists: the new triangulation, the survivors' new numbers, the first
    new tetrahedron and the surgery."""
    if move.kind == "23":
        return ref_move23(tri, move.face)
    if move.kind == "32":
        return ref_move32(tri, move.edge)
    return ref_move44(tri, move.edge, move.axis)


def _slot_class_map(tri, new_tri, slots):
    """The map of surviving edge classes an edge-slot map carries, each
    old class sent to one new class."""
    old_class, new_class = tri.skeleton.edge_class, new_tri.skeleton.edge_class
    mapping = {}
    for x, y in enumerate(slots):
        if y is not None:
            assert mapping.setdefault(old_class[x], new_class[y]) == \
                new_class[y]
    return mapping


def _assert_moves_match_reference(tri):
    """Every face, edge and axis of ``tri`` is moved to the triangulation
    the reference tables build, with the edge class map of the reference
    transport, or refused with the same text; returns the number of moves
    made."""
    sk = tri.skeleton
    sites = [(move23, ref_move23, (f,)) for f in range(sk.face_count)]
    sites += [(move32, ref_move32, (e,)) for e in range(sk.edge_count)]
    sites += [(move44, ref_move44, (e, axis)) for e in range(sk.edge_count)
              for axis in (0, 1, 2)]
    moved = 0
    for move, reference, args in sites:
        try:
            want = reference(tri, *args)
        except TriangulationError as refusal:
            with pytest.raises(TriangulationError) as got:
                move(tri, *args)
            assert str(got.value) == str(refusal)
            continue
        new_tri, slots = move(tri, *args)
        assert new_tri == want[0]
        assert len(slots) == 6 * tri.tet_count
        assert _slot_class_map(tri, new_tri, slots) == \
            _edge_class_transport(tri, *want)
        moved += 1
    return moved


def _descendants(tri, rng, steps):
    """``tri`` after up to ``steps`` 2-3 moves on random faces."""
    for _ in range(steps):
        faces = _23_faces(tri)
        if not faces:
            break
        tri = move23(tri, rng.choice(faces))[0]
    return tri


def test_moves_match_reference_on_the_grids():
    pool = [build.lens_space(1, 6)[0], build.lens_space(1, 8)[0],
            build.layered_loop(6, twisted=True),
            build.seifert_family("M", 1, 1, 1)[0]]
    grid = [build.lens_space(1, q)[0] for q in range(2, 29)]
    grid += [build.layered_loop(n, twisted) for n in range(3, 20)
             for twisted in (False, True)]
    grid += [build.seifert_family(tag, *params)[0] for tag, params in (
        ("M", (1, 1, 1)), ("M", (2, 1, 2)), ("MPRIME", (1, 1, 1)),
        ("MPRIME", (1, 2, 1)), ("P", (1,)), ("P", (2,)))]
    rng = random.Random(22)
    grid += [_descendants(tri, rng, 3) for tri in pool + grid[:10]]
    moved = sum(_assert_moves_match_reference(tri) for tri in pool + grid)
    assert moved > 1500


@settings(max_examples=150, deadline=None)
@given(gluing_tables())
def test_moves_match_reference_on_random_tables(tri):
    _assert_moves_match_reference(tri)


def test_cocycle_transport_through_moves():
    tri = build.layered_loop(6, twisted=True)
    phi = cocycle.all_nonzero_classes(tri)[0]
    f = _23_faces(tri)[0]
    out, phi2 = pachner_with_cocycle(tri, phi, MoveSpec("23", face=f))
    assert cocycle.is_cocycle(out, phi2.bits)
    c0 = cocycle.parity_census(tri, phi)
    c1 = cocycle.parity_census(out, phi2)
    # a 2-3 move crosses the surface with one extra triangle or quad but
    # keeps the class; edge count grows by one
    assert c1.even_edges + c1.odd_edges == c0.even_edges + c0.odd_edges + 1


def test_transport_builds_face_rows_once(monkeypatch):
    calls = []
    rule = Skeleton.__dict__["face_rows"].func

    def counted(sk):
        calls.append(sk)
        return rule(sk)
    prop = functools.cached_property(counted)
    prop.__set_name__(Skeleton, "face_rows")
    monkeypatch.setattr(Skeleton, "face_rows", prop)
    tri = build.layered_loop(6, twisted=True)
    phi = cocycle.all_nonzero_classes(tri)[0]
    calls.clear()
    for f in _23_faces(tri):
        out, _ = pachner_with_cocycle(tri, phi, MoveSpec("23", face=f))
        # the propagation's rows also serve the closing cocycle check
        assert calls == [out.skeleton]
        calls.clear()


def test_promote_fixed_point():
    tri = build.layered_loop(6, twisted=True)
    phi = cocycle.all_nonzero_classes(tri)[0]
    out, phi2, log = promote(tri, phi)
    assert out == tri and log == []


def test_promote_family_m():
    for args in ((1, 1, 1), (2, 1, 2)):
        tri, _ = build.seifert_family("M", *args)
        phi = cocycle.all_nonzero_classes(tri)[0]
        assert supportive_tori(tri, phi)
        h0 = homology.first_homology(tri)
        out, phi2, log = promote(tri, phi)
        assert log and out.tet_count == tri.tet_count
        h1 = homology.first_homology(out)
        assert (h0.invariant_factors, h0.betti) == \
            (h1.invariant_factors, h1.betti)
        assert not supportive_tori(out, phi2)
        # the flipped octahedra show the documented mixed type pattern
        necklace = tuple(sorted(log[0]["octahedron_types"]))
        assert necklace == ("quad", "quad", "tri", "tri")


def test_balanced_lens_has_no_supportive_tori():
    # both degree-3 even edges lie in the same maximal torus, so the
    # one-degree-3 condition fails and promotion is a fixed point
    tri, _, _ = build.lens_space(1, 8)
    phi = cocycle.all_nonzero_classes(tri)[0]
    assert supportive_tori(tri, phi) == []


def _d5k2_instance():
    tri = augmented_solid_torus((
        AnnulusFilling("fold"),
        AnnulusFilling("lst", w_h=1, w_d=3, w_v=4),
        AnnulusFilling("lst", w_h=1, w_d=3, w_v=4),
    ))
    for phi in cocycle.all_nonzero_classes(tri):
        pats = compression_pattern_scan(tri, phi)
        if pats:
            return tri, phi, pats
    raise AssertionError("synthetic compression instance lost its pattern")


def test_compression_pattern_positive_control():
    # two almost-supportive tori hanging on the degree-five pinched
    # vertical edge of a folded prism
    tri, phi, pats = _d5k2_instance()
    assert any(p["kind"].startswith("d5k2") for p in pats)
    p = pats[0]
    assert tri.skeleton.edge_degrees[p["edge"]] == 5
    assert len(almost_supportive_tori(tri, phi)) >= 2
    assert p["disc_boundary"]


def test_compression_scan_empty_on_families():
    for tri in (build.seifert_family("M", 1, 1, 1)[0],
                build.seifert_family("MPRIME", 1, 1, 1)[0],
                build.layered_loop(4, twisted=True),
                build.layered_loop(6, twisted=True)):
        for phi in cocycle.all_nonzero_classes(tri):
            assert compression_pattern_scan(tri, phi) == []


def test_each_colouring_is_classified_once(monkeypatch):
    # the classifications computed behind classify_tetrahedra's memo
    calls = []
    classify = cocycle._classify

    def counted(tri, bits):
        calls.append(tri)
        return classify(tri, bits)

    monkeypatch.setattr(cocycle, "_classify", counted)
    tri, _ = build.seifert_family("M", 1, 2, 1)
    phi, = cocycle.all_nonzero_classes(tri)
    assert compression_pattern_scan(tri, phi) == []
    assert calls == [tri]
    calls.clear()
    # a fresh build, whose table remembers no classification yet
    tri, _ = build.seifert_family("M", 1, 2, 1)
    out, _, log = promote(tri, phi)
    # the input, then the one candidate the single flip keeps
    assert len(log) == 1 and calls == [tri, out]


def test_promote_searches_and_classifies_each_triangulation_once(
        monkeypatch):
    searched, classified = [], []
    search = analyze.find_maximal_lsts
    classify = cocycle._classify

    def counted_search(tri):
        searched.append(tri)
        return search(tri)

    def counted_classify(tri, bits):
        classified.append(tri)
        return classify(tri, bits)

    monkeypatch.setattr(analyze, "find_maximal_lsts", counted_search)
    # the classifications computed behind classify_tetrahedra's memo
    monkeypatch.setattr(cocycle, "_classify", counted_classify)
    tri, _ = build.seifert_family("M", 1, 2, 1)
    phi, = cocycle.all_nonzero_classes(tri)
    out, _, log = promote(tri, phi)
    # the input, then the kept candidate, whose tori, types and measure
    # start the next step
    assert len(log) == 1
    assert searched == [tri, out]
    assert classified == [tri, out]


def test_compression_feeds_k_phi():
    tri, phi, pats = _d5k2_instance()
    base = fundamental_report(tri, phi, k_phi=0)
    fed = fundamental_report(tri, phi, k_phi=len(pats))
    assert fed.eq1_rhs == base.eq1_rhs + 8 * len(pats)


def test_complexity_certificate_forms():
    tri, _, _ = build.lens_space(1, 8)
    cert = complexity_certificate(tri, family="balanced-lens")
    assert cert["balanced"] and "1+2n" in cert["consistent_bound_forms"]
    assert cert["certified"]

    tri, _ = build.seifert_family("M", 1, 1, 1)
    cert = complexity_certificate(tri, family="M")
    assert "2+2n" in cert["consistent_bound_forms"]

    tri, _ = build.seifert_family("MPRIME", 1, 1, 1)
    cert = complexity_certificate(tri, family="MPRIME")
    assert "3+sum" in cert["consistent_bound_forms"]

    tri = build.layered_loop(6, twisted=True)
    cert = complexity_certificate(tri)
    assert "2+sum" in cert["consistent_bound_forms"]
    assert not cert["certified"]
    assert any(sq["kind"] == "klein" for sq in cert["twisted_squares"])


def test_certificate_from_the_callers_reports_equals_its_own():
    # the family grid, the lens folds to depth 5, and non-members: the
    # twisted loop augmented by one tetrahedron, and an untwisted loop,
    # whose two vertices leave it without colouring classes; a second
    # call reads what the table holds
    tris = [tri for _, _, tri in verifysuite._family_grid()]
    tris += [folded for _, _, folded in verifysuite._lens_grid(5)]
    tris += [build.augmented_quaternionic(4),
             build.layered_loop(5, twisted=False)]
    for tri in tris:
        classes = (cocycle.all_nonzero_classes(tri)
                   if tri.skeleton.vertex_count == 1 else [])
        for family in (None, *analyze._FAMILIES):
            cert = complexity_certificate(tri, family)
            assert cert == complexity_certificate(tri, family)
        # each class's numbers, derived apart from fundamental_report
        expected = []
        for phi in classes:
            census = cocycle.parity_census(tri, phi)
            chi = euler_char(tri, canonical_surface(tri, phi).coord)
            expected.append({"cocycle": str(phi), "chi": chi,
                             "even": census.even_edges,
                             "odd": census.odd_edges,
                             "balanced": census.balanced})
        assert cert["classes"] == expected
        assert cert["balanced"] == any(c["balanced"] for c in expected)


# ----- results a triangulation holds -----------------------------------------


def _held_calls(tri):
    """Name -> call, for each call whose result ``tri`` holds once
    computed: H_1, the maximal tori with their books, the lint, the
    certificate for no family and for each family, and the classification
    of each class's canonical surface, the surfaces made beforehand."""
    calls = {"h1": functools.partial(homology.first_homology, tri),
             "tori": lambda: [tuple(emb) for emb in find_maximal_lsts(tri)],
             "lint": functools.partial(low_degree_lint, tri)}
    for family in (None, *analyze._FAMILIES):
        calls[f"certificate {family}"] = functools.partial(
            complexity_certificate, tri, family)
    if tri.is_closed and tri.skeleton.vertex_count == 1:
        for i, phi in enumerate(cocycle.all_nonzero_classes(tri)):
            calls[f"surface {i}"] = functools.partial(
                surface_classify, tri, canonical_surface(tri, phi).coord)
    return calls


def _result(call):
    """The call's value, or the type and message of the error it raises:
    a random table may be refused, or fail a check of the report."""
    try:
        return "value", call()
    except (TriangulationError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


def _assert_held_results_are_fresh(tri, rng):
    """Each held call, asked twice in an order drawn from ``rng``, equals
    the same call made first on a fresh copy of the table."""
    held, text = _held_calls(tri), serialize(tri)
    want = {name: _result(_held_calls(parse(text))[name]) for name in held}
    order = list(held) * 2
    rng.shuffle(order)
    for name in order:
        assert _result(held[name]) == want[name], name
    # the tori come back in a fresh list each time
    find_maximal_lsts(tri).clear()
    assert _result(held["tori"]) == want["tori"]


def test_held_results_equal_fresh_ones_on_the_grids():
    # the family grid, and every node of the fraction tree to depth 7 with
    # its three folds
    rng = random.Random(52)
    tris = [tri for _, _, tri in verifysuite._family_grid()]
    for _, tri, meta in build.lst_tree(7):
        tris.append(tri)
        tris += [build.fold_along_edge(tri, build.boundary_edge(meta, w),
                                       meta)[0]
                 for w in (meta.p, meta.q, meta.p + meta.q)]
    for tri in tris:
        _assert_held_results_are_fresh(tri, rng)


@settings(max_examples=60, deadline=None)
@given(gluing_tables(kinds=("pair",)), st.randoms(use_true_random=False))
def test_held_results_equal_fresh_ones_on_closed_tables(tri, rng):
    _assert_held_results_are_fresh(tri, rng)


def test_results_the_library_computes_are_not_taken_from_a_caller():
    # each call that once took one of these results in place of computing
    # it is refused by its signature, and without the result returns the
    # library's own value
    l8, _, _ = build.lens_space(1, 6)
    canon = canonical_surface(l8, cocycle.all_nonzero_classes(l8)[0])
    with pytest.raises(TypeError):
        surface_classify(l8, canon.coord, 99)
    assert surface_classify(l8, canon.coord) == (-2, False, True)
    with pytest.raises(TypeError):
        euler_char(l8, canon.coord, edge_weights(l8, vertex_link(l8)))
    assert euler_char(l8, canon.coord) == -2
    # the homology of S^3 and no tori, against the one-tetrahedron L(5,2)
    # and L(4,1)
    s3, _, _ = build.lens_space(1, 2, fold_weight=3)
    for fold_weight, degree, label in ((1, "degree_3", "one_tet_lens_order_5"),
                                       (2, "degree_2", "lens_order_4_exception")):
        tri, _, _ = build.lens_space(1, 2, fold_weight=fold_weight)
        with pytest.raises(TypeError):
            low_degree_lint(tri, h1=homology.first_homology(s3))
        with pytest.raises(TypeError):
            low_degree_lint(tri, lsts=[])
        assert {e["classification"]
                for e in low_degree_lint(tri)[degree]} == {label}
    # M(1,1,1)'s reports, against L(2,1)
    m111, _ = build.seifert_family("M", 1, 1, 1)
    reports = [fundamental_report(m111, phi)
               for phi in cocycle.all_nonzero_classes(m111)]
    l2, _, _ = build.lens_space(1, 3)
    with pytest.raises(TypeError):
        complexity_certificate(l2, None, reports)
    assert [c["cocycle"] for c in complexity_certificate(l2)["classes"]] == \
        [str(phi) for phi in cocycle.all_nonzero_classes(l2)]


def test_certificate_recognises_members_up_to_relabelling():
    members = [("M", build.seifert_family("M", 2, 1, 3)[0]),
               ("MPRIME", build.seifert_family("MPRIME", 1, 3, 2)[0]),
               ("P", build.seifert_family("P", 2)[0]),
               ("Q", build.layered_loop(8, twisted=True)),
               ("balanced-lens", build.lens_space(1, 10)[0])]
    for seed, (family, tri) in enumerate(members):
        shuffled = _random_relabelling(tri, random.Random(seed))
        cert = complexity_certificate(shuffled, family=family)
        assert cert["certified"] and "reason" not in cert


def test_certificate_checks_the_family_not_the_label():
    cases = [
        # the twisted loop has balanced-lens counts but is not a lens space
        (build.layered_loop(6, twisted=True), "balanced-lens"),
        (build.seifert_family("M", 1, 1, 2)[0], "MPRIME"),
        # no L(2n,1) has an even number of tetrahedra
        (build.lens_space(1, 7)[0], "balanced-lens"),
        (build.seifert_family("M", 1, 1, 1)[0], "Q"),
    ]
    for tri, family in cases:
        cert = complexity_certificate(tri, family=family)
        assert cert["certified"] is False
        assert cert["reason"] == (f"no {family} member with {tri.tet_count} "
                                  "tetrahedra is isomorphic to the input")
    cert = complexity_certificate(build.layered_loop(6, twisted=True),
                                  family="Klein")
    assert not cert["certified"] and "unknown family" in cert["reason"]
    # without a family the report has no reason and certifies nothing
    cert = complexity_certificate(build.lens_space(1, 8)[0])
    assert not cert["certified"] and "reason" not in cert


class _EveryHomology:
    """A first homology equal to every one that a family's slopes
    predict, so ``_family_members`` builds each candidate."""

    def __eq__(self, other):
        return True


_EVERY_HOMOLOGY = _EveryHomology()


def test_certificate_builds_only_members_with_the_input_homology(
        monkeypatch):
    built = []
    real = analyze.seifert_family

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(analyze, "seifert_family", counted)
    # a member: 253 M candidates have 50 tetrahedra, and only M(8,8,8)
    # has its homology
    member = build.seifert_family("M", 8, 8, 8)[0]
    assert complexity_certificate(member, family="M")["certified"]
    assert built == [("M", 8, 8, 8)]
    # a non-member of the same size: no candidate shares its homology
    built.clear()
    other = build.layered_loop(50, twisted=True)
    cert = complexity_certificate(other, family="M")
    assert not cert["certified"] and built == []
    # with a homology that every prediction equals, every candidate is
    # built
    assert len(list(analyze._family_members("M", 12, _EVERY_HOMOLOGY))) == 6
    assert len(built) == 6


def test_family_members_follow_the_tetrahedron_count():
    sizes = {("M", 12): 6, ("MPRIME", 13): 6, ("P", 9): 1, ("Q", 8): 1,
             ("balanced-lens", 7): 1,
             ("M", 13): 0, ("M", 6): 0, ("MPRIME", 12): 0, ("P", 8): 0,
             ("P", 5): 0, ("Q", 7): 0, ("Q", 2): 0, ("balanced-lens", 8): 0}
    for (family, t), count in sizes.items():
        members = list(analyze._family_members(family, t, _EVERY_HOMOLOGY))
        assert [tri.tet_count for tri in members] == [t] * count


# ----- torus recognition against the induced-subcomplex reference ----------


def _reference_subcomplex(tri, tets):
    """Induced triangulation on a set of tetrahedra (gluings between them)."""
    index = {t: i for i, t in enumerate(tets)}
    rows = []
    for t in tets:
        row = []
        for f in range(4):
            g = tri.gluing(t, f)
            if g is None or g[0] not in index:
                row.append(None)
            else:
                row.append((index[g[0]], g[1]))
        rows.append(row)
    return Triangulation(rows)


def _reference_book(tri, tets):
    """The book of the torus on ``tets``, read the slow way: its two free
    facets by a scan of every facet of the torus, and each class the two
    faces share by ``_boundary_edge_slot`` in each."""
    members = set(tets)
    faces = sorted((t, f) for t in tets for f in range(4)
                   if (g := tri.gluing(t, f)) is None or g[0] not in members)
    sk = tri.skeleton
    first, second = ({sk.edge_class[6 * t + ei] for ei in FACET_EDGES[f]}
                     for t, f in faces)
    return build.Book(tuple(faces), {
        e: tuple(_boundary_edge_slot(tri, face, e) for face in faces)
        for e in first & second})


def _reference_seed_classes(tri, t):
    """If tetrahedron t has two of its facets glued to each other by an odd
    map and forms a one-tetrahedron layered solid torus, return its
    structure: read off the skeleton of its one-tetrahedron subcomplex."""
    pairs = []
    for f in range(4):
        g = tri.gluing(t, f)
        if g is not None and g[0] == t and g[1][f] != f:
            pairs.append((f, g[1][f], g[1].sign()))
    pairs = {(*sorted(p[:2]), p[2]) for p in pairs}
    if len(pairs) != 1 or pairs.pop()[2] == 1:
        # no pair, two pairs, or a pair glued orientation-reversingly
        return None
    sub = _reference_subcomplex(tri, (t,))
    sk = sub.skeleton
    if sk.edge_count != 3 or len(sk.boundary_facets) != 2:
        return None
    by_degree = {}
    for ec in range(sk.edge_count):
        by_degree.setdefault(sk.edge_degrees[ec], []).append(ec)
    if sorted(by_degree) != [1, 2, 3]:
        return None
    weights = {}
    degrees = {}
    amb = tri.skeleton
    for ec in range(sk.edge_count):
        slot_t, ei = divmod(sk.edge_first[ec], 6)
        cls = amb.edge_class[6 * t + ei]
        weights[cls] = {3: 1, 2: 2, 1: 3}[sk.edge_degrees[ec]]
        degrees[cls] = sk.edge_degrees[ec]
    if len(weights) != 3:
        # boundary edges identified in the ambient complex; the weight
        # bookkeeping per ambient class breaks down, so skip this seed
        return None
    boundary = tuple(weights)
    univalent = next(c for c, d in degrees.items() if d == 1)
    return LayeredSolidTorus((t,), weights, boundary, univalent, None, None)


def _reference_try_extend(tri, emb):
    """One layer of torus growth the slow way: rebuild the induced
    subcomplex on the grown tetrahedra and read every torus degree, the
    free-facet count and the edge count off its own skeleton."""
    free = []
    index = {t: i for i, t in enumerate(emb.tets)}
    for t in emb.tets:
        for f in range(4):
            g = tri.gluing(t, f)
            if g is None or g[0] not in index:
                free.append((t, f))
    if len(free) != 2:
        return None
    (t1, f1), (t2, f2) = free
    g1, g2 = tri.gluing(t1, f1), tri.gluing(t2, f2)
    if g1 is None or g2 is None:
        return None
    if g1[0] != g2[0] or g1[0] in index:
        return None
    new = g1[0]
    if g1[1][f1] == g2[1][f2]:
        return None
    for f in range(4):
        if f in (g1[1][f1], g2[1][f2]):
            continue
        g = tri.gluing(new, f)
        if g is not None and (g[0] in index or g[0] == new):
            return None
    fa, fb = g1[1][f1], g2[1][f2]
    hinge = tuple(v for v in range(4) if v not in (fa, fb))
    amb = tri.skeleton
    hinge_class = amb.edge_class[6 * new + EDGE_INDEX[hinge]]
    if hinge_class not in emb.boundary_edges:
        return None
    others = [e for e in emb.boundary_edges if e != hinge_class]
    new_weight = build.relayered_weight(emb.edge_weights[hinge_class],
                                        *(emb.edge_weights[e] for e in others))
    opp = tuple(v for v in range(4) if v not in hinge)
    new_class = amb.edge_class[6 * new + EDGE_INDEX[opp]]
    if new_class in emb.edge_weights:
        return None
    weights = dict(emb.edge_weights)
    weights[new_class] = new_weight
    grown = emb.tets + (new,)
    sub = _reference_subcomplex(tri, grown)
    sk = sub.skeleton
    if len(sk.boundary_facets) != 2 or sk.edge_count != len(grown) + 2:
        return None
    degrees = {}
    for ec, x in enumerate(sk.edge_first):
        lt, ei = divmod(x, 6)
        degrees[amb.edge_class[6 * grown[lt] + ei]] = sk.edge_degrees[ec]
    if len(degrees) != len(grown) + 2:
        return None
    boundary = tuple(others + [new_class])
    base = emb.base_edge if emb.base_edge is not None else hinge_class
    return LayeredSolidTorus(grown, weights, boundary, new_class, base, None)


def _reference_maximal_lsts(tri):
    out = []
    for t in range(tri.tet_count):
        emb = _reference_seed_classes(tri, t)
        if emb is None:
            continue
        while (grown := _reference_try_extend(tri, emb)) is not None:
            emb = grown
        # the book is read once the torus stops growing
        out.append(emb._replace(book=_reference_book(tri, emb.tets)))
    return out


def _try_extend(tri, emb):
    """Extend a layered solid torus by one layer if the ambient gluings of
    its two boundary faces attach a fresh tetrahedron in the layering
    pattern; returns the grown embedding or None."""
    free = []
    index = {t: i for i, t in enumerate(emb.tets)}
    for t in emb.tets:
        for f in range(4):
            g = tri.gluing(t, f)
            if g is None or g[0] not in index:
                free.append((t, f))
    if len(free) != 2:
        return None
    (t1, f1), (t2, f2) = free
    g1, g2 = tri.gluing(t1, f1), tri.gluing(t2, f2)
    if g1 is None or g2 is None:
        return None
    if g1[0] != g2[0] or g1[0] in index:
        return None
    new = g1[0]
    if g1[1][f1] == g2[1][f2]:
        return None
    # the new tetrahedron's remaining facets must not glue back into the torus
    for f in range(4):
        if f in (g1[1][f1], g2[1][f2]):
            continue
        g = tri.gluing(new, f)
        if g is not None and (g[0] in index or g[0] == new):
            return None
    # hinge edge of the new tetrahedron: shared by its two glued facets
    fa, fb = g1[1][f1], g2[1][f2]
    hinge = tuple(v for v in range(4) if v not in (fa, fb))
    amb = tri.skeleton
    hinge_class = amb.edge_class[6 * new + EDGE_INDEX[hinge]]
    if hinge_class not in emb.boundary_edges:
        return None
    # layering pattern confirmed structurally; update the weight replay
    layered = hinge_class
    others = [e for e in emb.boundary_edges if e != layered]
    new_weight = relayered_weight(emb.edge_weights[layered],
                                  *(emb.edge_weights[e] for e in others))
    opp = tuple(v for v in range(4) if v not in hinge)
    new_class = amb.edge_class[6 * new + EDGE_INDEX[opp]]
    if new_class in emb.edge_weights:
        return None
    weights = dict(emb.edge_weights)
    weights[new_class] = new_weight
    boundary = tuple(others + [new_class])
    base = emb.base_edge if emb.base_edge is not None else layered
    return LayeredSolidTorus(emb.tets + (new,), weights, boundary, new_class,
                             base, None)


def _copying_maximal_lsts(tri):
    """The layer-by-layer search that builds a new embedding per layer,
    each step costing the size of the torus so far: the second reference
    for the carried-frontier growth."""
    out = []
    for t in range(tri.tet_count):
        emb = analyze._seed_classes(tri, t)
        if emb is None:
            continue
        while True:
            grown = _try_extend(tri, emb)
            if grown is None:
                break
            emb = grown
        # the book is read once the torus stops growing
        out.append(emb._replace(book=_reference_book(tri, emb.tets)))
    return out


def _assert_same_embedding(a, b):
    """Every field equal, dicts in the same key order too."""
    for field in LayeredSolidTorus._fields:
        x, y = getattr(a, field), getattr(b, field)
        assert x == y, field
        if isinstance(x, dict):
            assert list(x) == list(y), field


def _assert_same_seeds(tri):
    for t in range(tri.tet_count):
        fast = analyze._seed_classes(tri, t)
        slow = _reference_seed_classes(tri, t)
        assert (fast is None) == (slow is None), t
        if fast is not None:
            _assert_same_embedding(fast, slow)


def _assert_same_tori(tri, references=(_reference_maximal_lsts,
                                        _copying_maximal_lsts)):
    fast = find_maximal_lsts(tri)
    for reference in references:
        slow = reference(tri)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            _assert_same_embedding(a, b)


def _growth_inputs():
    out = []
    for _, tri, meta in build.lst_tree(6):
        out.append(tri)
        for w in (meta.p, meta.q, meta.p + meta.q):
            out.append(build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)[0])
    for tag in ("M", "MPRIME"):
        for k, m, n in itertools.product((1, 2, 3), repeat=3):
            out.append(build.seifert_family(tag, k, m, n)[0])
    for k in (1, 2, 3):
        out.append(build.seifert_family("P", k)[0])
    for n in range(3, 11):
        for twisted in (False, True):
            out.append(build.layered_loop(n, twisted))
    return out


GROWTH_INPUTS = _growth_inputs()


def test_torus_growth_matches_subcomplex_reference():
    for tri in GROWTH_INPUTS:
        _assert_same_tori(tri)


def test_seeds_match_subcomplex_reference():
    seeds = 0
    for tri in GROWTH_INPUTS:
        _assert_same_seeds(tri)
        seeds += sum(analyze._seed_classes(tri, t) is not None
                     for t in range(tri.tet_count))
    assert seeds > len(GROWTH_INPUTS)


def _one_tet_tables():
    """Every one-tetrahedron table with a facet pair glued to each other,
    by each gluing, with the other two facets free, glued to each other,
    or each free or glued to itself by a reflection."""
    for fa, fb in itertools.combinations(range(4), 2):
        fc, fd = (f for f in range(4) if f not in (fa, fb))
        rests = [[(fc, p)] for p in ALL_PERMS if p[fc] == fd]
        reflections = {f: [None] + [p for p in ALL_PERMS if p[f] == f
                                     and p.index != 0
                                     and (p * p).index == 0]
                       for f in (fc, fd)}
        for pc, pd in itertools.product(reflections[fc], reflections[fd]):
            rests.append([(f, p) for f, p in ((fc, pc), (fd, pd)) if p])
        for perm in ALL_PERMS:
            if perm[fa] != fb:
                continue
            for rest in rests:
                yield reference_glued((), [(0, fa, 0, perm)] + [
                    (0, f, 0, p) for f, p in rest], 1)


def test_one_tet_seeds_match_subcomplex_reference():
    tables = list(dict.fromkeys(_one_tet_tables()))
    # 6 pairs x 6 gluings x (6 pairings + 16 free or reflected) of the
    # rest, less the 108 tables with two pairs glued, each drawn twice
    assert len(tables) == 6 * 6 * 22 - 108
    seeds = 0
    for tri in tables:
        _assert_same_seeds(tri)
        _assert_same_tori(tri)
        seeds += analyze._seed_classes(tri, 0) is not None
    # the two odd gluings of the four that do not keep the pair's shared
    # edge, with the other two facets free
    assert seeds == 6 * 2


def test_one_tet_tables_glued_orientation_reversingly_hold_no_torus():
    # the even gluings of the four that do not keep the pair's shared edge,
    # with the other two facets free: non-orientable, so no torus
    tables = []
    for tri in dict.fromkeys(_one_tet_tables()):
        row = tri.gluings[0]
        if sum(g is None for g in row) != 2:
            continue
        fa = next(f for f, g in enumerate(row) if g is not None)
        perm = row[fa][1]
        if perm[perm[fa]] != fa and perm.sign() == 1:
            tables.append(tri)
    assert len(tables) == 12
    for tri in tables:
        assert not tri.is_orientable
        assert analyze._seed_classes(tri, 0) is None
        assert _reference_seed_classes(tri, 0) is None
        assert find_maximal_lsts(tri) == []


@settings(max_examples=300, deadline=None)
@given(gluing_tables())
def test_random_table_seeds_match_subcomplex_reference(tri):
    _assert_same_seeds(tri)
    _assert_same_tori(tri)


MOVE_INPUTS = [tri for tri in GROWTH_INPUTS if _23_faces(tri)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MOVE_INPUTS),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4))
def test_torus_growth_matches_reference_after_moves(tri, choices):
    for choice in choices:
        faces = _23_faces(tri)
        tri = pachner(tri, MoveSpec("23", face=faces[choice % len(faces)]))
    _assert_same_tori(tri)


def _fold_inputs(depth):
    """Every node of ``lst_tree(depth)`` and its three folds."""
    for _, tri, meta in build.lst_tree(depth):
        yield tri
        for w in (meta.p, meta.q, meta.p + meta.q):
            yield build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)[0]


def test_torus_growth_matches_references_on_every_fold():
    count = 0
    for tri in _fold_inputs(9):
        _assert_same_tori(tri)
        count += 1
    assert count == 4 * 511


@pytest.mark.parametrize("n", [400, 800, 1602])
def test_torus_growth_matches_references_on_long_lens_spaces(n):
    tri = build.lens_space(1, n)[0]
    # the subcomplex reference rebuilds a skeleton per layer, so it runs
    # only on the smallest rung
    references = (_reference_maximal_lsts, _copying_maximal_lsts) \
        if n == 400 else (_copying_maximal_lsts,)
    _assert_same_tori(tri, references)
    assert [emb.size for emb in find_maximal_lsts(tri)] == [n - 2] * 2


# One smallest table for each stop condition a valid table can reach.
# Two conditions stay unreachable: gluings are involutions (so two
# frontier facets never meet one facet of the new tetrahedron, nor glue
# into the torus), and the hinge lies in a facet glued onto a frontier
# triangle, whose three edges are the boundary edges.  The frontier always
# holds two facets, a seed's two free ones or a layer's other two, so
# growth does not check their count.
STOP_TABLES = [
    ("tri 1\ntet 0: 0:1230 0:3012 - -\n",
     1, "a free facet is unglued"),
    ("tri 3\n"
     "tet 0: 0:1230 0:3012 1:0123 2:0123\n"
     "tet 1: - - 0:0123 -\n"
     "tet 2: - - - 0:0123\n",
     1, "free facets not glued to one new tetrahedron"),
    ("tri 2\n"
     "tet 0: 0:1230 0:3012 1:3021 1:1203\n"
     "tet 1: 1:1230 1:3012 0:1320 0:2013\n",
     1, "new tetrahedron glues back"),
    ("tri 3\n"
     "tet 0: 0:1230 0:3012 1:3021 1:1203\n"
     "tet 1: 2:2013 2:1320 0:1320 0:2013\n"
     "tet 2: 2:1023 2:1023 1:1203 1:3021\n",
     1, "new edge class already in the torus"),
]


@pytest.mark.parametrize("text,size,reason", STOP_TABLES,
                         ids=[r for _, _, r in STOP_TABLES])
def test_each_stop_condition_matches_both_references(text, size, reason):
    tri = parse(text)
    seed = analyze._seed_classes(tri, 0)
    emb, stopped = analyze._grow(tri, seed)
    assert (emb.size, stopped) == (size, reason)
    _assert_same_tori(tri)


def test_torus_search_logs_one_line_per_torus(caplog):
    tri, _, record = build.lens_space(1, 8)
    assert (tri.tet_count, record.lens_a) == (7, 10)
    with caplog.at_level(logging.DEBUG, logger="trinorm"):
        lsts = find_maximal_lsts(tri)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "trinorm.analyze"]
    assert lines == [
        f"find_maximal_lsts: torus seeded at tetrahedron {emb.tets[0]} has "
        f"6 tetrahedra; stopped: new tetrahedron glues back"
        for emb in lsts]
    assert [emb.tets[0] for emb in lsts] == [0, 6]
