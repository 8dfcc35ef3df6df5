"""GF(2) edge colourings of one-vertex triangulations.

In a closed one-vertex triangulation every edge is a loop, so a
homomorphism pi_1(M) -> Z/2 is the same thing as an assignment of bits to
edge classes for which the three edges of every face sum to zero.  The
solution space of those face relations is the kernel of the skeleton's
``face_rows``, read off its cached ``face_echelon``.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .triangulation import EDGE_VERTICES, FACET_EDGES, TriangulationError


class TetType(Enum):
    """Edge-parity pattern of a tetrahedron: QUAD has one opposite pair of
    even edges and carries a quadrilateral of the canonical surface, TRI
    has its three odd edges at a single vertex and carries a triangle,
    EMPTY is all even and carries nothing."""
    QUAD = "quad"
    TRI = "tri"
    EMPTY = "empty"


class Cocycle(NamedTuple):
    """A Z/2 cochain on edge classes satisfying all face relations."""
    bits: tuple

    def __getitem__(self, edge_class):
        return self.bits[edge_class]

    @property
    def is_zero(self):
        return not any(self.bits)

    def even_edges(self):
        return tuple(i for i, b in enumerate(self.bits) if b == 0)

    def odd_edges(self):
        return tuple(i for i, b in enumerate(self.bits) if b)

    def __add__(self, other):
        if len(other.bits) != len(self.bits):
            raise TriangulationError(
                f"cannot add cocycles on {len(self.bits)} and "
                f"{len(other.bits)} edges")
        return Cocycle(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self):
        return "".join(str(b) for b in self.bits)


def _require_one_vertex_closed(tri):
    sk = tri.skeleton
    if sk.boundary_facets:
        raise TriangulationError("cocycles require a closed triangulation")
    if sk.vertex_count != 1:
        raise TriangulationError(
            "cocycles are only computed on one-vertex triangulations")


def _check_length(tri, bits):
    if len(bits) != tri.skeleton.edge_count:
        raise TriangulationError(
            f"colouring has {len(bits)} edge bits, the triangulation "
            f"{tri.skeleton.edge_count} edges")


def cocycle_basis(tri):
    """Deterministic basis of H^1(M; Z/2) as edge colourings: one vector
    per edge class that ``face_echelon`` does not pivot on, in increasing
    order, the class's own bit plus the pivot of every reduced row that
    holds the class."""
    _require_one_vertex_closed(tri)
    sk = tri.skeleton
    ne = sk.edge_count
    reduced = sk.face_echelon
    basis = []
    for fc in range(ne):
        if fc in reduced:
            continue
        vec = 1 << fc
        for pc, row in reduced.items():
            if (row >> fc) & 1:
                vec |= 1 << pc
        basis.append(Cocycle(tuple((vec >> e) & 1 for e in range(ne))))
    return basis


def all_nonzero_classes(tri):
    """Every nonzero element of H^1(M; Z/2), ordered by binary combination
    of the deterministic basis."""
    basis = cocycle_basis(tri)
    out = []
    for mask in range(1, 1 << len(basis)):
        acc = None
        for i, phi in enumerate(basis):
            if (mask >> i) & 1:
                acc = phi if acc is None else acc + phi
        out.append(acc)
    return out


def is_cocycle(tri, bits):
    """Whether the edge bits satisfy every face relation."""
    _check_length(tri, bits)
    vec = 0
    for e, b in enumerate(bits):
        if b:
            vec |= 1 << e
    return all(bin(row & vec).count("1") % 2 == 0
               for row in tri.skeleton.face_rows)


# the (TetType, detail) of each odd-edge mask of a tetrahedron, bit i set
# when edge i is odd: quad type i has the even pair (i, 5-i), and a tri
# type's three odd edges meet at its vertex; None for the masks no cocycle
# gives
_MASK_TYPES = [None] * 64
_MASK_TYPES[0] = (TetType.EMPTY, None)
for _i in range(3):
    _MASK_TYPES[0b111111 ^ (1 << _i) ^ (1 << (5 - _i))] = (TetType.QUAD, _i)
for _v in range(4):
    _MASK_TYPES[sum(1 << ei for ei, pair in enumerate(EDGE_VERTICES)
                    if _v in pair)] = (TetType.TRI, _v)


def classify_tetrahedra(tri, phi):
    """Type of every tetrahedron under the colouring, as a tuple of
    (TetType, detail) where detail is the even-pair quad index for QUAD
    tetrahedra and the odd-corner vertex for TRI ones.  ``tri`` holds the
    last colouring classified on it with its types, and hands them back for
    an equal colouring, so each colouring is classified once."""
    bits, types = tri._tet_types
    if bits != phi.bits:
        types = _classify(tri, phi.bits)
        tri._tet_types = phi.bits, types
    return types


def _classify(tri, bits):
    """The types ``classify_tetrahedra`` returns, worked out."""
    _check_length(tri, bits)
    # the bits read through the skeleton once: 1 on each odd edge slot
    odd_class = [1 if b else 0 for b in bits]
    odd = [odd_class[c] for c in tri.skeleton.edge_class]
    out = []
    for t6 in range(0, len(odd), 6):
        b0, b1, b2, b3, b4, b5 = odd[t6:t6 + 6]
        kind = _MASK_TYPES[b0 | b1 << 1 | b2 << 2 | b3 << 3 | b4 << 4
                           | b5 << 5]
        if kind is None:
            raise TriangulationError(
                f"edge parities of tetrahedron {t6 // 6} match no type; "
                "input is not a cocycle")
        out.append(kind)
    return tuple(out)


class ParityCensus(NamedTuple):
    even_edges: int
    odd_edges: int
    even_degree_histogram: dict
    even_edge_slots: int          # pre-images of even edges over all tetrahedra
    quad_tets: int
    tri_tets: int
    empty_tets: int
    even_subcomplex: tuple        # (vertices, edges, faces, tetrahedra)

    @property
    def balanced(self):
        return self.even_edges == self.odd_edges


def parity_census(tri, phi):
    """Edge and tetrahedron counts by parity, plus the size of the
    subcomplex spanned by the even edges."""
    _require_one_vertex_closed(tri)
    sk = tri.skeleton
    n_quad = n_tri = n_empty = 0
    for ty, _ in classify_tetrahedra(tri, phi):
        n_quad += ty is TetType.QUAD
        n_tri += ty is TetType.TRI
        n_empty += ty is TetType.EMPTY

    bits = phi.bits
    even = [d for c, d in enumerate(sk.edge_degrees) if bits[c] == 0]
    odd_count = sk.edge_count - len(even)
    hist = {}
    for d in even:
        hist[d] = hist.get(d, 0) + 1
    slots = sum(even)
    if slots != 2 * n_quad + 3 * n_tri + 6 * n_empty:
        raise AssertionError("even-edge slot count disagrees with tet types")

    even_class = [b == 0 for b in bits]
    even_slot = [even_class[c] for c in sk.edge_class]
    even_faces = 0
    for s in sk.face_first:
        # face slot s is facet s % 4 of tetrahedron s // 4
        t6 = 6 * (s >> 2)
        ea, eb, ec = FACET_EDGES[s & 3]
        if even_slot[t6 + ea] and even_slot[t6 + eb] and even_slot[t6 + ec]:
            even_faces += 1
    sub_vertices = 1 if even else 0
    census = ParityCensus(
        even_edges=len(even),
        odd_edges=odd_count,
        even_degree_histogram=dict(sorted(hist.items())),
        even_edge_slots=slots,
        quad_tets=n_quad,
        tri_tets=n_tri,
        empty_tets=n_empty,
        even_subcomplex=(sub_vertices, len(even), even_faces, n_empty),
    )
    return census
