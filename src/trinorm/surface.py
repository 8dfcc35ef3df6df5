"""Normal coordinate arithmetic and the canonical dual surfaces.

A coordinate assigns to each tetrahedron one row of ten disc counts: the
four vertex-linking triangles, the three quadrilateral types and the three
octagon types, in that order.  The incidence tables below are the single
source of truth for how each disc meets the edges and faces of its
tetrahedron, and every one of them is indexed by the same ten entries:

  triangle at vertex v   crosses the three edges at v once; one arc per
                         incident facet, cutting off v.
  quad of type i         separates vertices {0, i+1} from the rest; crosses
                         the four edges outside its pair (i, 5-i) once; one
                         arc per facet, cutting off the vertex that is
                         alone on its side of the partition.
  octagon of type i      same separation as quad i but also crosses the
                         pair edges twice; two arcs per facet, cutting off
                         both vertices of the majority side.

Octagons only arise from b-modifications of all-quad canonical surfaces.

The cell count ``euler_char``, the edge weights, the surface
classification and the formal Euler characteristic all read a coordinate's
rows as they are, against the disc tables derived from these incidences:
``_DISC_ARCS``, ``DISC_EDGE_WEIGHTS`` and the corner lists built from them.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache
from itertools import accumulate, chain, combinations, repeat
from operator import add, eq, mul
from typing import NamedTuple

from .triangulation import (EDGE_VERTICES, FACET_VERTICES,
                            TriangulationError, _linked)
from .cocycle import TetType, classify_tetrahedra, ParityCensus

_log = logging.getLogger(__name__)

# quad type i is disjoint from edge pair (i, 5-i): (01|23), (02|13), (03|12)
QUAD_PAIRS = ((0, 5), (1, 4), (2, 3))
# vertex partner of vertex 0 on the small side of quad/octagon type i
QUAD_SIDE_A = ((0, 1), (0, 2), (0, 3))


def _facet_side(i, facet, size):
    """The vertices of the facet that lie on one side of the partition of
    quad/octagon type i, taking the side that holds ``size`` of them."""
    verts = FACET_VERTICES[facet]
    ina = tuple(v for v in verts if v in QUAD_SIDE_A[i])
    return ina if len(ina) == size else tuple(v for v in verts
                                              if v not in QUAD_SIDE_A[i])


# QUAD_ARC_VERTEX[i][facet]: the vertex the arc of quad type i cuts off in
# the facet, the one alone on its side; OCT_ARC_VERTICES[i][facet]: the two
# vertices cut off by the arcs of octagon type i, the majority side
QUAD_ARC_VERTEX = tuple(tuple(_facet_side(i, f, 1)[0] for f in range(4))
                        for i in range(3))
OCT_ARC_VERTICES = tuple(tuple(_facet_side(i, f, 2) for f in range(4))
                         for i in range(3))


TRI_EDGE_WEIGHTS = tuple(
    tuple(1 if v in EDGE_VERTICES[e] else 0 for e in range(6)) for v in range(4))
QUAD_EDGE_WEIGHTS = tuple(
    tuple(0 if e in QUAD_PAIRS[i] else 1 for e in range(6)) for i in range(3))
OCT_EDGE_WEIGHTS = tuple(
    tuple(2 if e in QUAD_PAIRS[i] else 1 for e in range(6)) for i in range(3))
# the rows of all ten disc types, in the order tris + quads + octs
DISC_EDGE_WEIGHTS = TRI_EDGE_WEIGHTS + QUAD_EDGE_WEIGHTS + OCT_EDGE_WEIGHTS


def _disc_arcs(d):
    """The entries 4*facet + vertex of a tetrahedron's arc row that one
    disc of type d adds an arc to."""
    if d < 4:
        return tuple(4 * f + d for f in range(4) if f != d)
    if d < 7:
        return tuple(4 * f + QUAD_ARC_VERTEX[d - 4][f] for f in range(4))
    return tuple(4 * f + v for f in range(4)
                 for v in OCT_ARC_VERTICES[d - 7][f])


# for each disc type in the order of DISC_EDGE_WEIGHTS: the arc row
# entries it adds to, and the edges it crosses, once per crossing
_DISC_ARCS = tuple(_disc_arcs(d) for d in range(10))
_DISC_EDGES = tuple(tuple(e for e in range(6) for _ in range(row[e]))
                    for row in DISC_EDGE_WEIGHTS)
# the row with no disc, and _UNIT_ROWS[d]: the row with one disc of type d
_ZERO_ROW = (0,) * 10
_UNIT_ROWS = tuple(tuple(int(d == e) for e in range(10)) for d in range(10))


class CoordinateError(TriangulationError):
    pass


class NormalCoordinate(NamedTuple):
    """Per-tetrahedron disc multiplicities.

    rows[t] holds the ten counts of tetrahedron t in the order of
    DISC_EDGE_WEIGHTS: triangles at vertices 0-3, then quads and octagons
    of types 0-2.  Formal coordinates may carry negative quad entries and
    are exempt from the embeddability restriction of one quad-or-octagon
    type per tetrahedron.
    """
    rows: tuple
    formal: bool = False

    @classmethod
    def zero(cls, tet_count, formal=False):
        return cls((_ZERO_ROW,) * tet_count, formal)

    @property
    def tet_count(self):
        return len(self.rows)

    def __add__(self, other):
        if other.tet_count != self.tet_count:
            raise CoordinateError(
                f"cannot add coordinates of {self.tet_count} and "
                f"{other.tet_count} tetrahedra")
        return NormalCoordinate(
            tuple(tuple(map(add, ra, rb))
                  for ra, rb in zip(self.rows, other.rows)),
            self.formal or other.formal)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return NormalCoordinate(
            tuple(tuple(c * a for a in r) for r in self.rows),
            formal=self.formal or c < 0)

    def dump(self):
        """One line per tetrahedron: its triangles, quads and octagons,
        the three groups split by bars."""
        return "\n".join("%d: %s %s %s %s | %s %s %s | %s %s %s" % (t, *row)
                         for t, row in enumerate(self.rows))


def _check_size(tri, coord):
    if coord.tet_count != tri.tet_count:
        raise CoordinateError(
            f"coordinate has {coord.tet_count} tetrahedra, "
            f"the triangulation {tri.tet_count}")


def _class_weights(tri, slot_weights):
    """The weight of each edge class, as a tuple, from the tuple of the
    weights of its slots, which must agree."""
    *_, first, spread = tri.slot_gathers
    if spread(slot_weights) != slot_weights:
        for c, slots in enumerate(tri.skeleton.edge_slots()):
            ws = {slot_weights[x] for x in slots}
            if len(ws) != 1:
                raise CoordinateError(
                    f"edge class {c} has mixed weights {ws}")
    return first(slot_weights)


def edge_weights(tri, coord):
    """Intersection count of the coordinate with each edge class; slots of
    one class must agree.  Rows go through ``_slot_weights`` unchecked."""
    _check_size(tri, coord)
    return list(_class_weights(
        tri, tuple(chain.from_iterable(map(_slot_weights, coord.rows)))))


@lru_cache(maxsize=4096)
def _slot_weights(counts):
    """The six edge-slot weights that one tetrahedron's row of ten disc
    counts gives, embeddable or not: each disc adds its count to every
    edge slot it crosses, once per crossing."""
    weights = [0] * 6
    for d, c in enumerate(counts):
        if c:
            for ei in _DISC_EDGES[d]:
                weights[ei] += c
    return tuple(weights)


@lru_cache(maxsize=4096)
def _tet_cells(counts):
    """The cells that one tetrahedron's row of ten disc counts adds: its
    arc row, where entry 4*facet + vertex counts the arcs cutting off the
    vertex in the facet, its six edge-slot weights and its number of
    discs.  Counts that are not embeddable give instead the message of
    the error they raise, with {} for the tetrahedron."""
    if min(counts) < 0:
        return "negative multiplicity in tetrahedron {}"
    if counts[4:].count(0) < 5:
        return "tetrahedron {} has more than one quad-or-octagon type"
    arcs = [0] * 16
    for d, c in enumerate(counts):
        if c:
            for entry in _DISC_ARCS[d]:
                arcs[entry] += c
    return tuple(arcs), _slot_weights(counts), sum(counts)


def euler_char(tri, coord, weights=None):
    """Euler characteristic by direct cell count of the induced
    decomposition: vertices on edges, arcs in faces, discs in tetrahedra.

    Validates the coordinate on the way: its size, embeddability, then
    arc counts matching across every interior face gluing, then agreeing
    weights on the slots of every edge class, unless the caller passes
    the ``edge_weights`` it has already checked.  The arcs and slot
    weights are read through the triangulation's ``slot_gathers``."""
    _check_size(tri, coord)
    if coord.formal:
        raise CoordinateError("formal coordinates are not embeddable")
    # each tetrahedron's cells, looked up by its counts; the first
    # tetrahedron that is not embeddable raises
    cells = list(map(_tet_cells, coord.rows))
    if str in map(type, cells):
        t = list(map(type, cells)).index(str)
        raise CoordinateError(cells[t].format(t))
    arc_rows, weight_rows, disc_counts = zip(*cells) if cells else ((),) * 3
    # arcs[16t + 4f + v] counts the arcs cutting off vertex v in facet f
    # of tetrahedron t: its corner slot 4(4t + f) + v
    arcs = tuple(chain.from_iterable(arc_rows))
    lower, upper, counted, _, _ = tri.slot_gathers
    if lower(arcs) != upper(arcs):
        for a, b in zip(*tri.facet_corners[:2]):
            if arcs[a] != arcs[b]:
                (t1, f1), v = divmod(a // 4, 4), a % 4
                t2, f2 = b // 16, b // 4 % 4
                raise CoordinateError(
                    f"matching fails across face ({t1},{f1})~({t2},{f2}) "
                    f"at vertex {v}")
    if weights is None:
        weights = _class_weights(tri, tuple(chain.from_iterable(weight_rows)))
    return sum(weights) - sum(counted(arcs)) + sum(disc_counts)


def vertex_link(tri):
    """One triangle of every type in every tetrahedron: the link of the
    vertices, a sphere for each vertex class."""
    return NormalCoordinate(((1,) * 4 + (0,) * 6,) * tri.tet_count)


# ----- the canonical surface -------------------------------------------------


class CanonicalSurface(NamedTuple):
    coord: NormalCoordinate
    cocycle: object
    chi: int


# the row of the canonical surface in a tetrahedron of each type that
# classify_tetrahedra gives: a quad dual to the even pair, a triangle at
# the odd corner, or nothing
_CANONICAL_ROWS = {(TetType.EMPTY, None): _ZERO_ROW}
_CANONICAL_ROWS.update(((TetType.TRI, v), _UNIT_ROWS[v]) for v in range(4))
_CANONICAL_ROWS.update(((TetType.QUAD, i), _UNIT_ROWS[4 + i])
                       for i in range(3))


def canonical_surface(tri, phi):
    """The unique normal surface meeting every odd edge once: a quad dual to
    the even pair in each QUAD tetrahedron, one triangle at the odd corner
    of each TRI one, nothing in EMPTY ones."""
    coord = NormalCoordinate(tuple(map(_CANONICAL_ROWS.__getitem__,
                                       classify_tetrahedra(tri, phi))))
    ws = edge_weights(tri, coord)
    differ = [e for e, w in enumerate(ws) if w != phi[e]]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("canonical_surface: %d edge weights against the "
                   "colouring, differing on edges %s", len(ws), differ)
    if differ:
        raise AssertionError("canonical surface weight differs from parity")
    return CanonicalSurface(coord, phi, euler_char(tri, coord, ws))


def chi_formula(census: ParityCensus):
    """Euler characteristic of the canonical surface from the parity census
    alone: half of 2 - 2e + n_tri + 2n_empty."""
    num = 2 - 2 * census.even_edges + census.tri_tets + 2 * census.empty_tets
    if num % 2:
        raise AssertionError("census gives an odd doubled Euler characteristic")
    return num // 2


# ----- b-modifications --------------------------------------------------------


def _b_row(qi, c1, c2):
    """The discs that replace the quad of type ``qi`` when c1 and c2 say
    which edges of its even pair are selected: the quad when neither is,
    one octagon when both are, and else two triangles at the ends of the
    selected edge.  Returns (row, octagon count)."""
    if not c1 and not c2:
        return _UNIT_ROWS[4 + qi], 0
    if c1 and c2:
        return _UNIT_ROWS[7 + qi], 1
    a, b = EDGE_VERTICES[QUAD_PAIRS[qi][0 if c1 else 1]]
    return tuple(map(add, _UNIT_ROWS[a], _UNIT_ROWS[b])), 0


# _B_ROWS[4*qi + 2*c1 + c2]: the row of _b_row(qi, c1, c2)
_B_ROWS = tuple(_b_row(qi, c1, c2)
                for qi in range(3) for c1 in (0, 1) for c2 in (0, 1))


def _quad_sites(tri, coord):
    """For each tetrahedron of the all-quad coordinate ``coord``: 4 times
    its quad type and the edge classes of the quad's even pair, which pick
    its row of _B_ROWS.  The table is made once per coordinate object:
    ``tri`` holds the last table made together with that object, and hands
    it back only for the same object, which it keeps alive."""
    held = tri._quad_sites
    if held is not None and held[0] is coord:
        return held[1]
    edge_class = tri.skeleton.edge_class
    sites = []
    for t, row in enumerate(coord.rows):
        quads = row[4:7]
        if not any(quads):
            raise TriangulationError(
                "b-modification needs all tetrahedra of quad type")
        qi = quads.index(1)
        e1, e2 = QUAD_PAIRS[qi]
        sites.append((4 * qi, edge_class[6 * t + e1], edge_class[6 * t + e2]))
    tri._quad_sites = coord, sites
    return sites


def b_modification(tri, canon, b_edges):
    """Raise the weight of the selected even edges of the canonical surface
    ``canon`` from 0 to 2.

    Requires every tetrahedron to be of QUAD type.  A quad whose even pair
    has one selected edge becomes two triangles at the ends of that edge;
    with both selected it becomes one octagon.  Returns the coordinate,
    the octagon count and the Euler characteristic, after checking the
    octagon count formula by a full cell count.  The quad sites of
    ``canon`` are tabulated once and shared by every b of the surface.
    """
    _check_size(tri, canon.coord)
    b = set(b_edges)
    sk = tri.skeleton
    for e in b:
        if not 0 <= e < sk.edge_count:
            raise TriangulationError(f"{e} is not an edge class")
        if canon.cocycle[e]:
            raise TriangulationError(f"edge {e} is odd; b must select even edges")
    selected = bytearray(sk.edge_count)
    for e in b:
        selected[e] = 1
    picked = [_B_ROWS[q + 2 * selected[c1] + selected[c2]]
              for q, c1, c2 in _quad_sites(tri, canon.coord)]
    rows, oct_counts = zip(*picked) if picked else ((), ())
    coord = NormalCoordinate(rows)
    oct_count = sum(oct_counts)
    chi = euler_char(tri, coord)
    formula = canon.chi - 2 * oct_count + 2 * len(b)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("b_modification: b=%s, %d octagons, cell-count chi %d, "
                   "formula chi %d", sorted(b), oct_count, chi, formula)
    if chi != formula:
        raise AssertionError(
            f"octagon count formula violated at b={sorted(b)}")
    return coord, oct_count, chi


# ----- formal solutions -------------------------------------------------------


def tet_solution(tri, tet):
    """All four triangles plus all three quads with coefficient -1 in one
    tetrahedron; satisfies the matching equations with zero arcs.  The
    other tetrahedra share one zero row."""
    n = tri.tet_count
    if not 0 <= tet < n:
        raise CoordinateError(
            f"{tet} is not a tetrahedron of a {n}-tetrahedron triangulation")
    rows = [_ZERO_ROW] * n
    rows[tet] = (1, 1, 1, 1, -1, -1, -1, 0, 0, 0)
    return NormalCoordinate(tuple(rows), formal=True)


# _SLOT_ROWS[ei]: what one slot of an edge class at edge ei of a
# tetrahedron adds to its edge solution, the two triangles at the ends of
# the edge plus the quad disjoint from it with coefficient -1
_SLOT_ROWS = tuple(tuple(int(v in EDGE_VERTICES[ei]) for v in range(4))
                   + tuple(-int(ei in pair) for pair in QUAD_PAIRS)
                   + (0, 0, 0) for ei in range(6))


def _edge_solution(tri, slots):
    """The edge solution of the edge class with the given slots: for
    every slot, the two triangles at its ends plus the quad disjoint from
    it with coefficient -1.  The tetrahedra it misses share one zero
    row."""
    rows = [_ZERO_ROW] * tri.tet_count
    for x in slots:
        t, ei = divmod(x, 6)
        rows[t] = tuple(map(add, rows[t], _SLOT_ROWS[ei]))
    return NormalCoordinate(tuple(rows), formal=True)


def _formal_chi_functional(tri):
    """The linear Euler characteristic functional of a closed
    triangulation: each disc contributes one face, half an edge per side,
    and 1/degree of a vertex per corner.

    The value of each of the ten disc types in each tetrahedron is
    tabulated once, scaled by 2*lcm of the edge degrees so that every
    entry is an integer; a call sums the coordinate against the table and
    divides once, giving an int when the value is integral and a Fraction
    otherwise."""
    sk = tri.skeleton
    if not tri.is_closed:
        raise TriangulationError("formal chi is defined for closed triangulations")
    half = math.lcm(*sk.edge_degrees)
    scale = 2 * half
    # per disc type: one face less half an edge per arc
    faces = [scale - half * len(arcs) for arcs in _DISC_ARCS]
    share = [scale // degree for degree in sk.edge_degrees]
    table = []
    for t in range(tri.tet_count):
        # scale / degree: the scaled share of each edge's vertex per
        # corner, one corner per crossing
        corner = [share[c] for c in sk.edge_class[6 * t:6 * t + 6]]
        table.append([sum(map(mul, corner, row)) + face
                      for row, face in zip(DISC_EDGE_WEIGHTS, faces)])

    def chi(coord):
        _check_size(tri, coord)
        total = 0
        for row, counts in zip(table, coord.rows):
            total += sum(map(mul, row, counts))
        if total % scale == 0:
            return total // scale
        from fractions import Fraction
        return Fraction(total, scale)
    return chi


def special_solutions(tri):
    """Edge and tetrahedral solutions plus the formal Euler characteristic
    functional, in the convention with negative quadrilateral entries."""
    edges = [_edge_solution(tri, slots)
             for slots in tri.skeleton.edge_slots()]
    tets = [tet_solution(tri, t) for t in range(tri.tet_count)]
    return edges, tets, _formal_chi_functional(tri)


# ----- twisted squares ---------------------------------------------------------


# the kind of a twisted square by how many of its two identifications
# reverse the slot orientations: none, one or both
_SQUARE_KINDS = ("pinched_rp2", "klein", "torus")


def _twisted_squares_of(key):
    """The twisted squares of one tetrahedron, as ((a, b), kind) for each
    two of its opposite edge pairs a < b that are identified.  Pair i is
    edges i and 5 - i; bit 2i of ``key`` says that the pair is one edge
    class, bit 2i + 1 that the two slots' signs differ."""
    same = [i for i in range(3) if key >> 2 * i & 1]
    return tuple(((a, b), _SQUARE_KINDS[(key >> 2 * a + 1 & 1)
                                        + (key >> 2 * b + 1 & 1)])
                 for a, b in combinations(same, 2))


# _TWISTED_SQUARES[key]: the twisted squares of a tetrahedron whose edge
# slots give ``key`` as in _twisted_squares_of
_TWISTED_SQUARES = tuple(_twisted_squares_of(key) for key in range(64))


def twisted_square_scan(tri):
    """Tetrahedra with two pairs of opposite edges identified.

    The square bounded by the four identified edges closes up to a torus
    when both identifications translate (class orientations anti-aligned
    along the square's cyclic boundary), a Klein bottle when exactly one
    reverses, and a pinched projective plane when both do.  Each
    tetrahedron's six edge slots are read once, into a key of
    _TWISTED_SQUARES.
    """
    sk = tri.skeleton
    results = []
    for t, (c0, c1, c2, c3, c4, c5), (s0, s1, s2, s3, s4, s5) in zip(
            range(tri.tet_count), zip(*[iter(sk.edge_class)] * 6),
            zip(*[iter(sk.edge_sign)] * 6)):
        for pairs, kind in _TWISTED_SQUARES[
                (c0 == c5) | (s0 != s5) << 1 | (c1 == c4) << 2
                | (s1 != s4) << 3 | (c2 == c3) << 4 | (s2 != s3) << 5]:
            results.append((t, pairs, kind))
    return results


# ----- surface classification ---------------------------------------------------


# _CORNER_DISCS[4f + v]: the disc types with an arc cutting off vertex v
# in facet f, triangles first, each with a bit that is 1 when the type's
# parallel copies are numbered from the far side of v: quad and octagon
# copies are numbered from the side of their partition that holds vertex
# 0.  The bit is also the transverse side, each disc being oriented toward
# its vertex or toward that side
_CORNER_DISCS = tuple(
    tuple((d, int(d > 3 and corner % 4 not in QUAD_SIDE_A[(d - 4) % 3]))
          for d in range(10) if corner in _DISC_ARCS[d])
    for corner in range(16))


def _tet_arcs(counts):
    """The arcs that one tetrahedron's row of ten disc counts puts at each
    corner 4*facet + vertex: the discs there, nearest the vertex first,
    each with its bit.  Discs are numbered type by type from 0, the copies
    of type d from the prefix sum of the counts before it; a type with its
    bit set lists them from the last copy."""
    first = list(accumulate(counts, initial=0))
    out = []
    for corner in _CORNER_DISCS:
        row = []
        for d, bit in corner:
            copies = range(first[d], first[d + 1])
            row += zip(reversed(copies) if bit else copies, repeat(bit))
        out.append(tuple(row))
    return tuple(out)


# the arcs of the eleven rows with at most one disc, the empty row and one
# per disc type: every row of a canonical surface is one of them
_UNIT_ARCS = {row: _tet_arcs(row) for row in (_ZERO_ROW,) + _UNIT_ROWS}


def surface_classify(tri, coord, chi=None):
    """(chi, orientable, connected) of an embedded coordinate.

    Orientability is decided by propagating transverse orientations across
    the normal disc adjacency graph.  That coincides with orientability of
    the surface itself only in an orientable manifold, so in a
    non-orientable one ``orientable`` is None: not decided.  One call of
    ``_linked`` joins the discs glued across faces.  The empty surface is
    orientable.  A caller that has already counted the
    coordinate with ``euler_char`` (which also validates it) passes that
    ``chi`` instead of recounting.
    """
    if chi is None:
        chi = euler_char(tri, coord)
    else:
        _check_size(tri, coord)
    counts = coord.rows
    # the discs of tetrahedron t are numbered from start[t] on
    start = list(accumulate(map(sum, counts), initial=0))
    total = start[-1]
    if not total:
        return chi, True, False
    # arcs[16t + 4f + v]: the discs with an arc at that corner slot, found
    # once for each distinct row of counts outside _UNIT_ARCS
    rows = {row: _UNIT_ARCS.get(row) or _tet_arcs(row) for row in set(counts)}
    arcs = list(chain.from_iterable(map(rows.__getitem__, counts)))

    # discs joined across faces, with a parity bit when the transverse
    # orientations disagree; any odd cycle (a conflict) is one-sidedness
    relations = []
    lower, upper, _ = tri.facet_corners
    for a, b in zip(lower, upper):
        side1, side2 = arcs[a], arcs[b]
        if len(side1) != len(side2):
            raise CoordinateError("arc mismatch during classification")
        if not side1:
            continue
        s1, s2 = start[a // 16], start[b // 16]
        for (d1, bit1), (d2, bit2) in zip(side1, side2):
            relations.append((s1 + d1, s2 + d2, bit1 ^ bit2))
    parent, conflicts = list(range(total)), []
    _linked(parent, [0] * total, 0, 0, relations, conflicts, total)
    roots = sum(map(eq, parent, range(total)))
    orientable = not conflicts if tri.is_orientable else None
    return chi, orientable, roots == 1
