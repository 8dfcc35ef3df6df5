"""Structural detectors and transformations.

Covers recognition of maximal layered solid tori, low-degree edge lint,
the complexity-bound report, Pachner moves with cocycle transport, the
flip promotion loop that removes supportive solid tori, and the
compression-pattern scan.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import permutations

from .perm import Perm4
from .triangulation import (EDGE_INDEX, EDGE_VERTICES, FACET_VERTICES,
                            TriBuilder, TriangulationError)
from . import homology as _homology
from .build import (SEED_WEIGHTS, LayeredSolidTorus, family_slopes,
                    family_tag, frontier_book, lens_space, relayer,
                    relayered_weight, seifert_family)
from .cocycle import (TetType, classify_tetrahedra, parity_census,
                      all_nonzero_classes, Cocycle, is_cocycle)
from .surface import canonical_surface, chi_formula, twisted_square_scan

_log = logging.getLogger(__name__)


# ----- layered solid torus recognition ----------------------------------------


def _seed_classes(tri, t):
    """If tetrahedron t forms a one-tetrahedron layered solid torus, return
    its structure: the seed ``_grow`` starts from, without a book, since
    ``_grow`` reads one off the frontier where growth stops.  That is when
    exactly two of its facets are glued to each other, by an odd map (an
    even one reverses orientation) that does not carry their shared edge
    to itself, and its six edge slots fall into three ambient classes; the
    count of slots in each class is its degree in the torus, 1, 2 or 3."""
    glued = [(f, g[1]) for f, g in enumerate(tri.gluings[t])
             if g is not None and g[0] == t]
    if len(glued) != 2:
        return None
    fa, perm = glued[0]
    fb = perm[fa]
    if fb == fa or perm[fb] == fa or perm.sign() == 1:
        # a facet glued to itself, the pair's shared edge kept, or the
        # pair glued orientation-reversingly
        return None
    degrees = {}
    for c in tri.skeleton.edge_class[6 * t:6 * t + 6]:
        degrees[c] = degrees.get(c, 0) + 1
    if len(degrees) != 3:
        # torus edges identified in the ambient complex; the weight
        # bookkeeping per ambient class breaks down, so skip this seed
        return None
    weights = {c: SEED_WEIGHTS[d] for c, d in degrees.items()}
    univalent = next(c for c, d in degrees.items() if d == 1)
    return LayeredSolidTorus((t,), weights, tuple(weights), univalent, None,
                             None)


# _LAYERING[fa, fb], for a tetrahedron layered onto a torus along its
# facets fa and fb: its other two facets, ascending, which become the free
# facets; the edge slot of the hinge, the edge that fa and fb share (its
# vertices are the other two facets' numbers); and the edge slot of the
# new edge, the one the two free facets share
_LAYERING = {}
for _fa, _fb in permutations(range(4), 2):
    _rest = tuple(f for f in range(4) if f != _fa and f != _fb)
    _LAYERING[_fa, _fb] = (_rest, EDGE_INDEX[_rest], EDGE_INDEX[_fa, _fb])


def _grow(tri, seed):
    """Layer tetrahedra onto a seed torus while the ambient gluings of its
    two free facets attach a fresh tetrahedron in the layering pattern.

    The torus grows on one working state, its frontier (the two free
    facets, ascending), weights and boundary updated in place by
    ``relayer``, so each layer costs O(1).  The seed's two facets not glued
    to each other start the frontier, and after a layer the free facets
    are exactly the new tetrahedron's other two facets: every older torus
    facet is glued inside the torus, and those two do not glue back.
    Returns the frozen torus, with its book read off the frontier, and the
    reason growth stopped."""
    rows = tri.gluings
    edge_class = tri.skeleton.edge_class
    t = seed.tets[0]
    tets, members = [t], {t}
    free = [(t, f) for f, g in enumerate(rows[t]) if g is None or g[0] != t]
    weights = dict(seed.edge_weights)
    boundary = seed.boundary_edges
    univalent, base = seed.univalent_edge, None
    while True:
        (t1, f1), (t2, f2) = free
        g1, g2 = rows[t1][f1], rows[t2][f2]
        if g1 is None or g2 is None:
            reason = "a free facet is unglued"
            break
        new = g1[0]
        if new != g2[0] or new in members:
            reason = "free facets not glued to one new tetrahedron"
            break
        fa, fb = g1[1][f1], g2[1][f2]
        if fa == fb:
            reason = "free facets glued to one facet"
            break
        (r0, r1), hinge_slot, new_slot = _LAYERING[fa, fb]
        row = rows[new]
        h0, h1 = row[r0], row[r1]
        if (h0 is not None and (h0[0] in members or h0[0] == new)) or \
                (h1 is not None and (h1[0] in members or h1[0] == new)):
            reason = "new tetrahedron glues back"
            break
        hinge_class = edge_class[6 * new + hinge_slot]
        if hinge_class not in boundary:
            reason = "hinge is not a boundary edge"
            break
        new_class = edge_class[6 * new + new_slot]
        if new_class in weights:
            reason = "new edge class already in the torus"
            break
        # layering pattern confirmed structurally; update the weight replay
        boundary = relayer(weights, boundary, hinge_class, new_class)
        if base is None:
            base = hinge_class
        univalent = new_class
        tets.append(new)
        members.add(new)
        free = [(new, r0), (new, r1)]
    return LayeredSolidTorus(tuple(tets), weights, boundary, univalent,
                             base, frontier_book(tri, free)), reason


def find_maximal_lsts(tri):
    """All maximal layered solid torus subcomplexes, one per base
    tetrahedron with a self-paired facet pair; each is extended outward
    while the layering pattern continues."""
    out = []
    for t in range(tri.tet_count):
        seed = _seed_classes(tri, t)
        if seed is None:
            continue
        emb, reason = _grow(tri, seed)
        _log.debug("find_maximal_lsts: torus seeded at tetrahedron %d has "
                   "%d tetrahedra; stopped: %s", t, emb.size, reason)
        out.append(emb)
    return out


def lst_intersection_matrix(tri, lsts):
    """Shared-edge-class counts between recognised layered solid tori."""
    n = len(lsts)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            shared = set(lsts[i].edge_weights) & set(lsts[j].edge_weights)
            mat[i][j] = mat[j][i] = len(shared)
    return mat


# ----- low degree lint ----------------------------------------------------------


def low_degree_lint(tri, lsts=None, h1=None):
    """Edges of degree at most three, with the standard exceptions for
    closed one-vertex triangulations classified where recognisable.

    Degree-3 edges are explained either by the whole triangulation being
    one of the small lens spaces (single tetrahedron of order five; two
    tetrahedra of order five or seven) or by being the base edge of an
    embedded two-tetrahedron solid torus with boundary triple {1,3,4}.
    ``lsts`` is ``find_maximal_lsts(tri)`` and ``h1`` is
    ``first_homology(tri)`` when the caller has them.
    """
    sk = tri.skeleton
    report = {"degree_1": [], "degree_2": [], "degree_3": []}
    degrees = sk.edge_degrees
    low3 = [e for e, d in enumerate(degrees) if d == 3]
    low2 = [e for e, d in enumerate(degrees) if d == 2]
    low1 = [e for e, d in enumerate(degrees) if d == 1]
    # the homology only labels degree-1 and degree-2 edges and degree-3
    # edges on at most two tetrahedra
    h = None
    if tri.is_closed and tri.is_connected and \
            (low1 or low2 or (low3 and tri.tet_count <= 2)):
        h = h1 if h1 is not None else _homology.first_homology(tri)
    for e in low1:
        label = "s3_exception" if h is not None and h.order == 1 and \
            not h.betti else "unexplained"
        report["degree_1"].append({"edge": e, "classification": label})
    for e in low2:
        label = "unexplained"
        if h is not None and not h.betti and h.order in (3, 4):
            label = f"lens_order_{h.order}_exception"
        report["degree_2"].append({"edge": e, "classification": label})
    if low3 and lsts is None:
        lsts = find_maximal_lsts(tri)
    for e in low3:
        entry = {"edge": e, "classification": "unexplained"}
        if tri.tet_count == 1 and h is not None and h.order == 5:
            entry["classification"] = "one_tet_lens_order_5"
        elif tri.tet_count == 2 and h is not None and h.order in (5, 7):
            entry["classification"] = f"two_tet_lens_order_{h.order}"
        else:
            for emb in lsts:
                if emb.size < 2 or emb.base_edge != e:
                    continue
                prefix_triple = _prefix_triple(emb)
                if prefix_triple == (1, 3, 4):
                    entry["classification"] = "interior_of_T134"
                    entry["torus_tets"] = list(emb.tets[:2])
                    break
        report["degree_3"].append(entry)
    return report


def _prefix_triple(emb):
    """Boundary triple of the two-tetrahedron prefix of a layered torus:
    the seed carries {1,2,3} and the first layering removed the base
    edge's weight."""
    removed = emb.edge_weights[emb.base_edge]
    others = [x for x in (1, 2, 3) if x != removed]
    return tuple(sorted(others + [relayered_weight(removed, *others)]))


# ----- bound report --------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    census: object
    surface: object              # the CanonicalSurface whose chi is measured
    chi: int
    g: int
    k_phi: int
    identity_lhs: int
    identity_rhs: int
    eq1_lhs: int
    eq1_rhs: int
    balanced: bool


def fundamental_report(tri, phi, k_phi=0):
    """Evaluate the unconditional degree identity and the two sides of the
    conditional lower-bound inequality.

    The identity 4*chi + 2T = 4 + sum (d-4) e_d + n_tri holds for every
    colouring and is asserted; the inequality
    e_3 >= 2 + sum_{d>=5} (d-4) e_d + 8 k_phi + n_tri only holds under the
    minimality hypotheses of the source results, so it is reported without
    being enforced.
    """
    types = classify_tetrahedra(tri, phi)
    census = parity_census(tri, phi, types)
    surf = canonical_surface(tri, phi, types)
    chi, formula = surf.chi, chi_formula(census)
    _log.debug("fundamental_report: cell-count chi %d, census formula chi %d",
               chi, formula)
    if chi != formula:
        raise AssertionError("cell-count and census Euler characteristics differ")
    hist = census.even_degree_histogram
    identity_lhs = 4 * chi + 2 * tri.tet_count
    identity_rhs = 4 + sum((d - 4) * c for d, c in hist.items()) + census.tri_tets
    if identity_lhs != identity_rhs:
        raise AssertionError(
            f"degree identity violated: {identity_lhs} != {identity_rhs}")
    eq1_lhs = hist.get(3, 0)
    eq1_rhs = 2 + sum((d - 4) * c for d, c in hist.items() if d >= 5) \
        + 8 * k_phi + census.tri_tets
    return BoundReport(census, surf, chi, 2 - chi, k_phi, identity_lhs,
                       identity_rhs, eq1_lhs, eq1_rhs, census.balanced)


# ----- Pachner moves --------------------------------------------------------------


@dataclass(frozen=True)
class MoveSpec:
    kind: str                   # "23", "32" or "44"
    face: int | None = None
    edge: int | None = None
    axis: int = 0


_IDENTITY = Perm4((0, 1, 2, 3))


def _retriangulate(tri, old, new):
    """Replace the tetrahedra of a region by new ones on the same region
    vertices; returns the new triangulation and its edge-slot map.

    ``old`` lists (tet, names), names[v] the region vertex at vertex v of
    tet; ``new`` lists, for each new tetrahedron, the region vertices at
    its labels 0..3.  The tetrahedra outside the region keep their order
    and come before the new ones.  A facet is keyed by the bitmask of its
    three names.  Two new facets with the same names are glued name to
    name, opposite vertex to opposite vertex; an old facet whose names
    match a free new facet hands its outside gluing over to it, and the
    other old facets lie inside the region and vanish.  Each gluing is
    joined once, from its lower slot.

    ``slots[6t + e]`` is the new slot of edge e of old tetrahedron t:
    outside the region it moves with its tetrahedron; inside, it is the
    new edge with the same two names (the region is a simplicial ball, so
    the names fix the edge), or None when no new tetrahedron has both.
    """
    region = dict(old)
    index, base = [None] * tri.tet_count, 0    # index[t]: t's new number
    for t in range(tri.tet_count):
        if t not in region:
            index[t] = base
            base += 1
    builder = TriBuilder(base + len(new))
    labels = [{n: v for v, n in enumerate(names)} for names in new]
    free, edge_at = {}, {}      # free: key -> (new tet, facet) unglued
    for j, names in enumerate(new):
        full = sum(1 << n for n in names)
        for f, n in enumerate(names):
            key = full ^ (1 << n)
            if key not in free:
                free[key] = (j, f)
                continue
            k, g = free.pop(key)
            builder.join(base + k, g, base + j, Perm4(tuple(
                f if v == g else labels[j][m] for v, m in enumerate(new[k]))))
        for e, (a, b) in enumerate(EDGE_VERTICES):
            edge_at.setdefault((1 << names[a]) | (1 << names[b]),
                               6 * (base + j) + e)

    def end(t, f):
        """The new tetrahedron and vertex map of old facet f of t, or None
        for a facet inside the region."""
        if index[t] is not None:
            return index[t], _IDENTITY
        names = region[t]
        hit = free.get(sum(1 << n for n in names) ^ (1 << names[f]))
        if hit is None:
            return None
        j, g = hit
        return base + j, Perm4(tuple(g if v == f else labels[j][m]
                                     for v, m in enumerate(names)))

    # each gluing is joined once, from its lower slot, and one between two
    # tetrahedra outside the region is copied as it is
    for t, row in enumerate(tri.gluings):
        for f, g in enumerate(row):
            if g is None or 4 * g[0] + g[1][f] < 4 * t + f:
                continue
            u, perm = g
            if index[t] is not None and index[u] is not None:
                builder.join(index[t], f, index[u], perm)
                continue
            here, there = end(t, f), end(u, perm[f])
            if here is not None and there is not None:
                (a, ma), (b, mb) = here, there
                builder.join(a, ma[f], b, mb * perm * ma.inverse())
    slots = []
    for t, i in enumerate(index):
        if i is not None:
            slots.extend(range(6 * i, 6 * i + 6))
        else:
            names = region[t]
            slots.extend(edge_at.get((1 << names[a]) | (1 << names[b]))
                         for a, b in EDGE_VERTICES)
    return builder.freeze(), slots


def move23(tri, face_class):
    sk = tri.skeleton
    x = sk.face_first[face_class]
    if x in sk.boundary_facets or x in sk.self_glued_facets:
        raise TriangulationError("2-3 move needs an interior face")
    ta, fa = divmod(x, 4)
    tb, perm = tri.gluing(ta, fa)
    if ta == tb:
        raise TriangulationError("2-3 move needs two distinct tetrahedra")
    # the shared face's vertices are 0, 1, 2; A's apex is 3 and B's is 4
    names_a, names_b = [3] * 4, [4] * 4
    for i, v in enumerate(FACET_VERTICES[fa]):
        names_a[v] = names_b[perm[v]] = i
    return _retriangulate(tri, [(ta, names_a), (tb, names_b)],
                          [(3, (j + 1) % 3, (j + 2) % 3, 4) for j in range(3)])


def _star(tri, edge_class, move, degree):
    """The star of an edge class of the given degree as the ``old`` region
    of ``_retriangulate``: link vertex i is f_in of wedge i and f_out of
    wedge i+1, the head is named ``degree`` and the tail ``degree + 1``."""
    if tri.skeleton.edge_degrees[edge_class] != degree:
        raise TriangulationError(f"{move} move needs a degree-{degree} edge")
    old = []
    for i, (t, head, tail, fin, fout) in enumerate(tri.edge_link(edge_class)):
        names = [0] * 4
        names[head], names[tail] = degree, degree + 1
        names[fin], names[fout] = i, (i - 1) % degree
        old.append((t, names))
    if len({t for t, _ in old}) != degree:
        raise TriangulationError(
            "move needs pairwise distinct tetrahedra around the edge")
    return old


def move32(tri, edge_class):
    old = _star(tri, edge_class, "3-2", 3)
    return _retriangulate(tri, old, [(0, 1, 2, 3), (0, 1, 2, 4)])


def move44(tri, edge_class, axis=0):
    # the axis is checked after the degree and before the tetrahedra
    if tri.skeleton.edge_degrees[edge_class] == 4 and axis not in (0, 1):
        raise TriangulationError("axis must be 0 or 1")
    old = _star(tri, edge_class, "4-4", 4)
    # the new axis joins link vertices axis and axis + 2
    return _retriangulate(tri, old, [
        (axis, axis + 2, off, pole) for pole in (4, 5)
        for off in (1 - axis, 3 - axis)])


def _apply_move(tri, move):
    """Run the move a MoveSpec names after checking that its face or edge
    class exists; returns the new triangulation and its edge-slot map, as
    ``_retriangulate`` does."""
    if move.kind not in ("23", "32", "44"):
        raise TriangulationError(f"unknown move kind {move.kind!r}")
    sk = tri.skeleton
    what, site, count = ("face", move.face, sk.face_count) \
        if move.kind == "23" else ("edge", move.edge, sk.edge_count)
    if site is None or not 0 <= site < count:
        raise TriangulationError(f"no {what} class {site} (there are {count})")
    if move.kind == "23":
        return move23(tri, site)
    if move.kind == "32":
        return move32(tri, site)
    return move44(tri, site, move.axis)


def pachner(tri, move: MoveSpec):
    """Apply a bistellar move, returning the new triangulation alone."""
    return _apply_move(tri, move)[0]


def pachner_with_cocycle(tri, phi, move: MoveSpec):
    """Apply a move and transport the colouring to the result.

    Surviving edge classes keep their bits; the value on a newly created
    edge is forced by any face relation containing it.
    """
    new_tri, slots = _apply_move(tri, move)
    old_class, new_class = tri.skeleton.edge_class, new_tri.skeleton.edge_class
    mapping = {}                # surviving old edge class -> new class
    for x, y in enumerate(slots):
        if y is not None:
            new = new_class[y]
            if mapping.setdefault(old_class[x], new) != new:
                raise AssertionError("inconsistent edge transport")
    ne = new_tri.skeleton.edge_count
    unknown, value = (1 << ne) - 1, 0     # bitsets over the new edges
    for old, new in mapping.items():
        bit = 1 << new
        val = bit if phi[old] else 0
        if not unknown & bit and value & bit != val:
            raise AssertionError("cocycle transport conflict")
        unknown &= ~bit
        value |= val
    rows = new_tri.skeleton.face_rows
    changed = True
    while changed and unknown:
        changed = False
        for row in rows:
            free = row & unknown
            if free and not free & (free - 1):
                # one unknown bit left: the face relation forces it
                if bin(row & value).count("1") % 2:
                    value |= free
                unknown ^= free
                changed = True
    if unknown:
        raise AssertionError("cocycle transport left undetermined edges")
    bits = tuple((value >> e) & 1 for e in range(ne))
    if not is_cocycle(new_tri, bits):
        raise AssertionError("transported colouring is not a cocycle")
    return new_tri, Cocycle(bits)


# ----- supportive tori and promotion ---------------------------------------------


def _quad_tori(tri, phi, types=None):
    """Maximal layered solid tori of quad type under the colouring;
    ``types`` is its ``classify_tetrahedra`` list when the caller has one."""
    if types is None:
        types = classify_tetrahedra(tri, phi)
    return [emb for emb in find_maximal_lsts(tri)
            if emb.tet_type(types) is TetType.QUAD]


def _one_three_rest_four(sk, edges):
    """Whether exactly one of the edge classes has degree three and every
    other one degree four."""
    degrees = sorted(sk.edge_degrees[e] for e in edges)
    return degrees == [3] + [4] * (len(degrees) - 1)


def supportive_tori(tri, phi, types=None):
    """Maximal layered solid tori of quad type containing an even interior
    edge of degree three, all other even edges (interior or boundary) of
    degree four.  ``types`` as for ``_quad_tori``."""
    sk = tri.skeleton
    return [emb for emb in _quad_tori(tri, phi, types) if _one_three_rest_four(
        sk, [e for e in emb.edge_weights if phi[e] == 0])]


@dataclass(frozen=True)
class PromotionObstruction(TriangulationError):
    """A supportive torus that no 4-4 flip can remove; the CLI reports it
    as a domain error."""
    torus: LayeredSolidTorus
    reason: str

    def __str__(self):
        return f"supportive torus at {self.torus.tets}: {self.reason}"

    def __reduce__(self):
        # the default sets the fields again after building, which a frozen
        # dataclass refuses
        return type(self), (self.torus, self.reason)


def _even_boundary_edge(tri, phi, emb):
    evens = [e for e in emb.boundary_edges if phi[e] == 0]
    if len(evens) != 1:
        raise AssertionError("layered solid torus without a unique even "
                             "boundary edge")
    return evens[0]


def promote(tri, phi, max_steps=1000):
    """Flip away all supportive solid tori with 4-4 moves.

    Each step performs a 4-4 flip on the even boundary edge of a
    supportive torus, choosing the replacement axis that lexicographically
    decreases (empty-type count, supportive count); the source results
    guarantee such a flip exists for the realisable octahedron patterns.
    """
    log = []
    current, cur_phi = tri, phi
    all_types = classify_tetrahedra(current, cur_phi)
    sup = supportive_tori(current, cur_phi, all_types)
    measure = (parity_census(current, cur_phi, all_types).empty_tets, len(sup))
    for _ in range(max_steps):
        if not sup:
            return current, cur_phi, log
        emb = sup[0]
        e = _even_boundary_edge(current, cur_phi, emb)
        degree = current.skeleton.edge_degrees[e]
        if degree != 4:
            raise PromotionObstruction(emb, f"even boundary edge has degree "
                                            f"{degree}, not four")
        wedge_tets = [w[0] for w in current.edge_link(e)]
        if len(set(wedge_tets)) != 4:
            raise PromotionObstruction(
                emb, "univalent edge is not contained in four distinct "
                     "tetrahedra")
        types = [all_types[t][0] for t in wedge_tets]
        chosen = None
        for axis in (0, 1):
            cand_tri, cand_phi = pachner_with_cocycle(
                current, cur_phi, MoveSpec("44", edge=e, axis=axis))
            cand_types = classify_tetrahedra(cand_tri, cand_phi)
            cand_sup = supportive_tori(cand_tri, cand_phi, cand_types)
            cand_measure = (
                parity_census(cand_tri, cand_phi, cand_types).empty_tets,
                len(cand_sup))
            if cand_measure < measure:
                chosen = (axis, cand_tri, cand_phi, cand_types, cand_sup,
                          cand_measure)
                break
        if chosen is None:
            raise PromotionObstruction(
                emb, f"no measure-decreasing flip; octahedron types {types}")
        # the chosen candidate's tori and measure start the next step
        axis, current, cur_phi, all_types, sup, measure = chosen
        log.append({"edge": e, "axis": axis,
                    "octahedron_types": [t.value for t in types]})
    raise AssertionError("promotion failed to terminate")


# ----- compression patterns --------------------------------------------------------


def almost_supportive_tori(tri, phi, types=None):
    """Quad-type maximal layered solid tori with an interior even edge of
    degree three, all other interior even edges of degree four, and even
    boundary edge of degree at least five.  ``types`` as for
    ``_quad_tori``."""
    sk = tri.skeleton
    out = []
    for emb in _quad_tori(tri, phi, types):
        if not _one_three_rest_four(
                sk, [e for e in emb.interior_edges if phi[e] == 0]):
            continue
        bdry_even = _even_boundary_edge(tri, phi, emb)
        if sk.edge_degrees[bdry_even] >= 5:
            out.append((emb, bdry_even))
    return out


def compression_pattern_scan(tri, phi):
    """Detect the two local configurations that witness compression discs
    for the canonical surface: an even edge of degree six met by three
    alternating almost-supportive tori with all six tetrahedra of quad
    type, and the degree-five variant with two such tori."""
    sk = tri.skeleton
    types = classify_tetrahedra(tri, phi)
    by_edge = {}
    for emb, e in almost_supportive_tori(tri, phi, types):
        by_edge.setdefault(e, []).append(emb)
    patterns = []
    for e, tori in sorted(by_edge.items()):
        degree = sk.edge_degrees[e]
        wedges = tri.edge_link(e)
        tets = [w[0] for w in wedges]
        if len(set(tets)) != len(tets):
            continue
        top_positions = []
        for emb in tori:
            top = emb.tets[-1]
            if top in tets:
                top_positions.append(tets.index(top))
        top_positions.sort()
        if degree == 6 and len(tori) == 3:
            if len(top_positions) != 3:
                continue
            alternating = top_positions in ([0, 2, 4], [1, 3, 5])
            all_quad = all(types[t][0] is TetType.QUAD for t in tets)
            if alternating and all_quad:
                patterns.append({
                    "kind": "d6k3", "edge": e,
                    "disc_boundary": [(t, types[t][1]) for t in tets]})
        elif degree == 5 and len(tori) == 2:
            if len(top_positions) != 2:
                continue
            gap = (top_positions[1] - top_positions[0]) % 5
            if gap not in (2, 3):
                continue
            mid = (top_positions[0] + 1) % 5 if gap == 2 \
                else (top_positions[1] + 1) % 5
            trio = {tets[top_positions[0]], tets[top_positions[1]], tets[mid]}
            if not all(types[t][0] is TetType.QUAD for t in trio):
                continue
            rest = [t for t in tets if t not in trio]
            rest_types = {types[t][0] for t in rest}
            if rest_types == {TetType.QUAD}:
                patterns.append({
                    "kind": "d5k2_quad", "edge": e,
                    "disc_boundary": [(t, types[t][1]) for t in tets]})
            elif rest_types == {TetType.TRI}:
                patterns.append({
                    "kind": "d5k2_tri", "edge": e,
                    "disc_boundary": [(t, types[t][1]) for t in trio]})
    return patterns


# ----- complexity certificate ---------------------------------------------------------


_FAMILIES = ("balanced-lens", "M", "MPRIME", "P", "Q")


def _family_members(family, tet_count, h1=None):
    """The members of a named minimal family with the given number of
    tetrahedra, built afresh; the count fixes the parameters.  L(2n,1)
    has 2n - 3 tetrahedra, P(k) 2k + 5, Q(k) k, M(k,m,n) 2(k+m+n) + 2 and
    M'(k,m,n) 2(k+m+n) + 3.  Given the input's first homology ``h1``, a
    Seifert family member is built only when its slopes predict that
    homology, since no other member can be isomorphic to the input."""
    t = tet_count
    if family == "balanced-lens":
        if t % 2:
            yield lens_space(1, t + 1)[0]
        return
    candidates = []
    if family == "P":
        if t % 2 and t >= 7:
            candidates.append(((t - 5) // 2,))
    elif family == "Q":
        if t % 2 == 0 and t >= 4:
            candidates.append((t,))
    elif family in ("M", "MPRIME"):
        s, odd = divmod(t - (2 if family == "M" else 3), 2)
        if not odd:
            candidates = [(k, m, s - k - m) for k in range(1, s - 1)
                          for m in range(1, s - k)]
    for params in candidates:
        if h1 is not None:
            predicted = _homology.seifert_homology(
                family_slopes(family, *params))
            if predicted != h1:
                continue
        yield seifert_family(family, *params)[0]


def complexity_certificate(tri, family=None, reports=None):
    """Aggregate report: which complexity-bound shape the instance's counts
    are consistent with.  Norm values are taken as the negated Euler
    characteristics of the canonical surfaces, which bound the true norms
    from above; equality is only certified for a named family, when the
    input is isomorphic to one of its members and its counts fit a bound
    form.  A named family that is not certified gets a ``reason``.  Pass
    every class's ``fundamental_report`` when you have them."""
    if not tri.is_closed:
        raise TriangulationError("certificates require closed triangulations")
    h = _homology.first_homology(tri)
    if reports is None:
        classes = all_nonzero_classes(tri) if tri.skeleton.vertex_count == 1 else []
        reports = [fundamental_report(tri, phi) for phi in classes]
    per_class = [{"cocycle": str(rep.surface.cocycle), "chi": rep.chi,
                  "even": rep.census.even_edges, "odd": rep.census.odd_edges,
                  "balanced": rep.balanced} for rep in reports]
    t = tri.tet_count
    norms = [max(0, -c["chi"]) for c in per_class]
    forms = []
    if h.z2_rank >= 1:
        best = max(norms) if norms else 0
        if t == 1 + 2 * best:
            forms.append("1+2n")
        if t == 2 + 2 * best:
            forms.append("2+2n")
    if h.z2_rank == 2 and len(norms) == 3:
        if t == 2 + sum(norms):
            forms.append("2+sum")
        if t == 3 + sum(norms):
            forms.append("3+sum")
    reason = None
    if family is not None:
        family = next((name for name in _FAMILIES
                       if family_tag(name) == family_tag(family)), family)
        if family not in _FAMILIES:
            reason = (f"unknown family {family!r}; "
                      f"known: {', '.join(_FAMILIES)}")
        elif not (tri.is_connected and any(
                tri.isomorphic(m) for m in _family_members(family, t, h))):
            reason = (f"no {family} member with {t} tetrahedra is "
                      "isomorphic to the input")
        elif not forms:
            reason = "the counts fit no bound form"
    cert = {
        "tet_count": t,
        "homology": str(h),
        "z2_rank": h.z2_rank,
        "classes": per_class,
        "balanced": any(rep.balanced for rep in reports),
        "consistent_bound_forms": forms,
        "twisted_squares": twisted_squares(tri),
        "certified": family is not None and reason is None,
        "family": family,
    }
    if reason is not None:
        cert["reason"] = reason
    return cert


def twisted_squares(tri):
    """The twisted-square scan as JSON records {tet, pairs, kind}."""
    return [{"tet": t, "pairs": list(pairs), "kind": kind}
            for t, pairs, kind in twisted_square_scan(tri)]
