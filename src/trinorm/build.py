"""Constructors for the parametric triangulation families.

Layered solid tori are built by walking the unique minimal path of the
fraction tree (node p/q has children p/(p+q) and q/(p+q)) from 1/2 up to
the target and layering one tetrahedron per step.  Lens spaces arise by
folding the two boundary faces together; the quaternionic loops and the
augmented (pinched prism) families are assembled from fixed gluing layouts
that are gated by the integer homology oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

from .perm import Perm4
from .triangulation import (EDGE_VERTICES, FACET_EDGES, TriBuilder,
                            TriangulationError)
from . import homology

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Book:
    """The boundary of a layered solid torus as gluing positions.

    faces holds the two boundary faces (tet, facet) in ascending order, and
    edges maps each of the three boundary edge classes to its directed
    vertex pair (head, tail) in each face, taken in the class direction of
    the triangulation's skeleton.
    """
    faces: tuple
    edges: dict

    def hinge(self, edge_class):
        """(tet, facet, a, b, c) for each face: the given boundary edge runs
        from vertex a to vertex b, and c is the face's third vertex."""
        if edge_class not in self.edges:
            raise TriangulationError(
                f"edge {edge_class} is not a boundary edge")
        # facet f is opposite vertex f, and the four labels sum to 6
        return [(t, f, a, b, 6 - f - a - b)
                for (t, f), (a, b) in zip(self.faces, self.edges[edge_class])]


@dataclass(frozen=True)
class LayeredSolidTorus:
    """A layered solid torus, built by ``lst`` or recognised inside a
    triangulation by ``analyze.find_maximal_lsts``.

    tets lists its tetrahedra in layering order.  edge_weights maps each of
    its edge classes to the geometric intersection number of the edge's
    loop with the meridian disc; the three boundary edges carry the triple
    {p, q, p+q}.  The univalent edge is the boundary edge of torus-degree
    one; base_edge is the first edge ever layered on (absent for a single
    tetrahedron).  book locates the boundary for the next layering or fold:
    a built torus carries it along, and a recognised one reads it off its
    frontier with ``frontier_book``.
    """
    tets: tuple
    edge_weights: dict
    boundary_edges: tuple
    univalent_edge: int
    base_edge: int | None
    book: Book = field(compare=False, repr=False)

    @property
    def size(self):
        return len(self.tets)

    @cached_property
    def boundary_triple(self):
        # sorted once; the record is frozen and its weights never change
        return tuple(sorted(self.edge_weights[e] for e in self.boundary_edges))

    @property
    def p(self):
        return self.boundary_triple[0]

    @property
    def q(self):
        return self.boundary_triple[1]

    @property
    def interior_edges(self):
        return tuple(e for e in self.edge_weights
                     if e not in self.boundary_edges)

    def tet_type(self, types):
        """Uniform colouring type of the torus, QUAD or EMPTY, read off
        ``types``, the list ``classify_tetrahedra`` returns."""
        kinds = {types[t][0] for t in self.tets}
        if len(kinds) != 1:
            raise AssertionError("layered solid torus with mixed tetrahedron types")
        return kinds.pop()


@dataclass(frozen=True)
class FoldRecord:
    fold_edge_weight: int
    lens_a: int
    lens_b: int


@dataclass(frozen=True)
class LGraphNode:
    p: int
    q: int
    depth: int
    e_bar: int
    o_bar: int

    @classmethod
    def of(cls, p, q, depth, weights):
        """The node p/q at the given depth, from the meridian weights of
        the depth + 2 edges of lst(p, q)."""
        e_bar = sum(1 for w in weights if w % 2 == 0)
        return cls(p, q, depth, e_bar, len(weights) - e_bar)

    @property
    def deficiency(self):
        # odd-minus-even convention; the balanced chain has deficiency 1
        return self.o_bar - self.e_bar


@dataclass(frozen=True)
class SeifertParams:
    family: str
    params: tuple
    slopes: tuple
    predicted_homology: homology.HomologyProfile


# the meridian weight of each edge of a one-tetrahedron layered solid
# torus, by its degree in the torus
SEED_WEIGHTS = {3: 1, 2: 2, 1: 3}


def _seed_lst():
    """The one-tetrahedron layered solid torus: facet 0 glued to facet 1 by
    the cyclic permutation.  Its three edges carry meridian weights 1
    (degree 3), 2 (degree 2) and 3 (the univalent edge)."""
    b = TriBuilder(1)
    b.join(0, 0, 0, Perm4((1, 2, 3, 0)))
    tri = b.freeze()
    degrees = tri.skeleton.edge_degrees
    weights = {e: SEED_WEIGHTS[d] for e, d in enumerate(degrees)}
    return tri, LayeredSolidTorus((0,), weights, tuple(weights),
                                  degrees.index(1), None,
                                  frontier_book(tri, ((0, 2), (0, 3))))


def frontier_book(tri, faces):
    """The book of a layered solid torus in tri whose two boundary faces
    are ``faces``, (tet, facet) in ascending order: each boundary edge
    class's vertex pair (head, tail) in each face, in the class direction
    of tri's skeleton, from its first slot in the face.  Only a torus in a
    non-orientable or invalid complex has a class met in one face only;
    that class is no boundary edge of the book."""
    sk = tri.skeleton
    first, second = {}, {}
    for slots, (t, f) in zip((first, second), faces):
        for ei in FACET_EDGES[f]:
            x = 6 * t + ei
            a, b = EDGE_VERTICES[ei]
            slots.setdefault(sk.edge_class[x],
                             (a, b) if sk.edge_sign[x] > 0 else (b, a))
    return Book(tuple(faces),
                {e: (pair, second[e]) for e, pair in first.items()
                 if e in second})


# the seed of every ``lst`` and ``lst_tree`` call, built once: its table
# and skeleton are the built root of every chain of layers on it
_SEED = _seed_lst()


# _LAYER_MAPS[a, b, c] holds the two gluings ``_layer`` makes of a face
# (tet, f) whose hinge runs a -> b, with third vertex c = 6 - f - a - b:
# onto the new tetrahedron's facet 2 (the first face) and facet 3 (the
# second), the hinge landing on its edge 0 -> 1
_LAYER_MAPS = {(a, b, c): (Perm4.from_map({a: 0, b: 1, c: 3, f: 2}),
                           Perm4.from_map({a: 0, b: 1, c: 2, f: 3}))
               for a, b, c, f in permutations(range(4))}


def _layer(book, hinge, new, new_class):
    """The two joins that attach tetrahedron ``new`` across the book's two
    faces, hinged on the boundary edge class ``hinge``, and the book they
    leave; ``Triangulation.glued`` makes the joins.

    The new tetrahedron glues its facets 2 and 3 over the two faces with
    the hinge landing on its edge (0,1); orientation of the hinge is
    matched on both sides, which pins the gluing completely.  Facets 0 and
    1 become the new boundary and edge (2,3), directed 2->3 and numbered
    ``new_class`` (the old edge-class count), is the fresh boundary edge.
    The two kept classes keep their direction; of each one's two images,
    the one through vertex 0 lies in facet 1 and the other in facet 0.
    """
    (t1, f1, a1, b1, c1), (t2, f2, a2, b2, c2) = book.hinge(hinge)
    g1 = _LAYER_MAPS[a1, b1, c1][0]
    g2 = _LAYER_MAPS[a2, b2, c2][1]
    im1, im2 = g1.images, g2.images
    edges = {}
    for e, ((h1, u1), (h2, u2)) in book.edges.items():
        if e != hinge:
            i1, i2 = (im1[h1], im1[u1]), (im2[h2], im2[u2])
            edges[e] = (i2, i1) if 0 in i1 else (i1, i2)
    edges[new_class] = ((2, 3), (2, 3))
    return (((t1, f1, new, g1), (t2, f2, new, g2)),
            Book(((new, 0), (new, 1)), edges))


def layer_on_edge(tri, edge_class, torus):
    """Attach one tetrahedron across the two boundary faces of tri, the
    layered solid torus ``torus``, hinged on the given boundary edge (see
    ``_layer``); returns the new triangulation and its torus.  The new
    table shares tri's unchanged rows (``Triangulation.glued``).  The
    boundary is read off the torus's book, so a torus whose faces are
    glued in tri is refused."""
    new = tri.tet_count
    joins, book = _layer(torus.book, edge_class, new,
                         len(torus.edge_weights))
    return tri.glued(joins, 1), _relayered_meta(torus, edge_class, new, book)


def relayered_weight(removed, w1, w2):
    """Meridian weight of the boundary edge created by one layering: the
    layered-on edge of weight ``removed`` leaves the boundary triple, the
    edges of weights w1 and w2 stay, and the new edge completes them to a
    triple again."""
    return abs(w1 - w2) if removed == w1 + w2 else w1 + w2


def relayer(weights, boundary, hinge, new_class):
    """One layering on the boundary edge ``hinge``, in place: records the
    meridian weight of the fresh boundary edge ``new_class`` in
    ``weights`` and returns the new boundary, the two kept edges in their
    order and then ``new_class``."""
    a, b = [e for e in boundary if e != hinge]
    weights[new_class] = relayered_weight(weights[hinge], weights[a],
                                          weights[b])
    return a, b, new_class


def boundary_edge(torus, weight):
    """The boundary edge class of the given meridian weight."""
    for e in torus.boundary_edges:
        if torus.edge_weights[e] == weight:
            return e
    raise TriangulationError(f"no boundary edge of weight {weight}: the "
                             f"boundary triple is {torus.boundary_triple}")


def _relayered_meta(torus, layered_class, new_tet, book):
    """The torus after layering ``new_tet`` on ``layered_class``.  A
    layering keeps every edge class's index and numbers the fresh boundary
    edge next, as its book does."""
    new_class = len(torus.edge_weights)
    weights = dict(torus.edge_weights)
    boundary = relayer(weights, torus.boundary_edges, layered_class, new_class)
    base = layered_class if torus.base_edge is None else torus.base_edge
    return LayeredSolidTorus(torus.tets + (new_tet,), weights, boundary,
                             new_class, base, book)


def minimal_path(p, q):
    """Fraction-tree nodes from (1,2) to (p,q) along the unique minimal
    path, found by running the parent rule (a,b) -> sorted(a, b-a)."""
    path = [(p, q)]
    a, b = p, q
    while (a, b) != (1, 2):
        if a < 1 or b <= a:
            raise TriangulationError(f"no layering path to {p}/{q}")
        a, b = (a, b - a) if a < b - a else (b - a, a)
        path.append((a, b))
    path.reverse()
    return path


def lst(p, q):
    """Layered solid torus with boundary triple {p, q, p+q}, layered along
    the minimal path on one working state: the joins, the weights, the
    boundary, the tetrahedra and the book, updated by each layer as
    ``relayer`` and ``_layer`` do.  Only the seed tetrahedron's skeleton
    is read, and the seed is glued once, with every layer's joins."""
    p, q = int(p), int(q)
    if p > q:
        p, q = q, p
    if p < 1:
        raise TriangulationError("weights must be positive")
    if (p, q) == (1, 1):
        raise TriangulationError(
            "the Moebius triple {1,1,2} is a degenerate solid torus")
    if math.gcd(p, q) != 1:
        raise TriangulationError(f"weights {p}, {q} are not coprime")
    seed, torus = _SEED
    joins = []
    tets = list(torus.tets)
    weights = dict(torus.edge_weights)
    boundary, book = torus.boundary_edges, torus.book
    univalent, base = torus.univalent_edge, None
    path = minimal_path(p, q)
    for (pa, pb), (ca, cb) in zip(path, path[1:]):
        # moving to the child replaces one of pa, pb by the new sum
        gone = pa if pa not in (ca, cb) else pb
        hinge = next(e for e in boundary if weights[e] == gone)
        univalent = len(weights)
        new = len(tets)
        layer, book = _layer(book, hinge, new, univalent)
        joins += layer
        boundary = relayer(weights, boundary, hinge, univalent)
        if base is None:
            base = hinge
        tets.append(new)
    return seed.glued(joins, len(tets) - 1), LayeredSolidTorus(
        tuple(tets), weights, boundary, univalent, base, book)


def fold_record(p, q, weight):
    """The lens space L(lens_a, lens_b) obtained by folding lst(p, q) along
    its boundary edge of the given weight (p, q or p+q)."""
    if weight == p:
        return FoldRecord(weight, 2 * q + p, q)
    if weight == q:
        return FoldRecord(weight, 2 * p + q, p)
    return FoldRecord(weight, abs(p - q), p)


def fold_along_edge(tri, edge_class, torus):
    """Close the book of tri, the layered solid torus ``torus``: identify
    the two boundary faces by the map fixing the given boundary edge
    pointwise.  The other two boundary edges merge into a single class.
    Returns the lens space, which shares tri's unchanged rows
    (``Triangulation.glued``), and its fold record.  The boundary is read
    off the torus's book, so a torus whose faces are glued in tri is
    refused."""
    (t1, f1, a1, b1, c1), (t2, f2, a2, b2, c2) = torus.book.hinge(edge_class)
    fold = Perm4.from_map({a1: a2, b1: b2, c1: c2, f1: f2})
    return tri.glued(((t1, f1, t2, fold),)), fold_record(
        torus.p, torus.q, torus.edge_weights[edge_class])


def lens_space(p, q, fold_weight=None):
    """Layered lens space obtained by folding lst(p, q).  fold_weight picks
    the boundary edge (one of p, q, p+q); the default folds along the even
    boundary edge when p or q is even, else along p+q."""
    tri, meta = lst(p, q)
    if fold_weight is None:
        evens = [w for w in (meta.p, meta.q) if w % 2 == 0]
        fold_weight = evens[0] if evens else meta.p + meta.q
    folded, record = fold_along_edge(tri, boundary_edge(meta, fold_weight),
                                     meta)
    return folded, meta, record


def meridian_weight_oracle(tri):
    """Independent recomputation of layered-solid-torus edge weights.

    A layered solid torus has one vertex and H_1 = Z, the cokernel of d2.
    An edge whose class is +-w leaves H_1 / <edge> = Z/w, or Z when w = 0,
    so its weight is the order of that quotient: the product of the
    invariant factors of d2 with the edge's unit column added, when they
    have full rank."""
    sk = tri.skeleton
    if sk.vertex_count != 1:
        raise TriangulationError(
            "the meridian oracle requires a one-vertex complex")
    _, d2 = homology.boundary_matrices(tri)
    ne, nf = sk.edge_count, sk.face_count
    diag, rank = homology.smith_normal_form(d2, ne, nf)
    cyclic = rank == ne - 1 and all(d <= 1 for d in diag)
    debug = _log.isEnabledFor(logging.DEBUG)
    if debug:
        _log.debug("meridian_weight_oracle: %d edges, d2 of rank %d with "
                   "factors %s, H_1 = Z: %s", ne, rank,
                   [d for d in diag if d > 1], cyclic)
    if not cyclic:
        raise TriangulationError("H_1 is not infinite cyclic")
    weights = {}
    for e in range(ne):
        diag, rank = homology.smith_normal_form(
            [row + [int(i == e)] for i, row in enumerate(d2)], ne, nf + 1)
        weights[e] = math.prod(diag) if rank == ne else 0
    if debug:
        _log.debug("meridian_weight_oracle: weights %s",
                   [weights[e] for e in range(ne)])
    return weights


# ----- L-graph --------------------------------------------------------------


def lst_weight_multiset(p, q):
    """Meridian weights of all depth+2 edges of lst(p,q), by replaying the
    boundary triples along the minimal path (no triangulation built)."""
    path = minimal_path(min(p, q), max(p, q))
    weights = [1, 2, 3]
    for ca, cb in path[1:]:
        weights.append(ca + cb)
    return weights


def lgraph(depth_limit):
    """All fraction-tree nodes to the given depth, level by level, with
    even/odd edge-weight counts of the corresponding layered solid torus.
    Weights come from the replay alone; no triangulation is built."""
    if depth_limit < 1:
        raise TriangulationError("depth limit must be at least 1")
    nodes = []
    level = [(1, 2)]
    for depth in range(1, depth_limit + 1):
        nodes += [LGraphNode.of(p, q, depth, lst_weight_multiset(p, q))
                  for p, q in level]
        level = [c for p, q in level for c in ((p, p + q), (q, p + q))]
    return nodes


def lst_tree(depth_limit, share=None):
    """(node, triangulation, meta) for every fraction-tree node to the
    given depth, depth first in preorder, child p/(p+q) before q/(p+q).

    Each child is layered once on its parent, and only the pending
    siblings along the current path are held, so memory stays linear in
    the depth.  Stable-sorting the nodes by depth gives ``lgraph``'s order.

    ``share`` 0 walks only the root and the subtree under its first child,
    ``share`` 1 only the subtree under its second child: share 0 then
    share 1 is the whole walk, and the two share no node.  Any other
    ``share`` is refused, ``True`` and ``1.0`` too, by type.
    """
    if depth_limit < 1:
        raise TriangulationError("depth limit must be at least 1")
    if share is not None and (type(share) is not int or share not in (0, 1)):
        raise TriangulationError(f"no share {share!r} of the tree; "
                                 "the shares are 0 and 1")
    stack = [(*_SEED, 1)]
    while stack:
        tri, meta, depth = stack.pop()
        if share != 1 or depth > 1:
            yield (LGraphNode.of(meta.p, meta.q, depth,
                                 meta.edge_weights.values()), tri, meta)
        if depth < depth_limit:
            # layering on the edge of weight q gives p/(p+q): pushed last,
            # it is visited first.  A root's child is in the share numbered
            # alongside it.
            for child_share, gone in ((1, meta.p), (0, meta.q)):
                if share is None or depth > 1 or share == child_share:
                    stack.append((*layer_on_edge(
                        tri, boundary_edge(meta, gone), meta), depth + 1))


def enumerate_minimal_lens_families(depth_limit):
    """Fold every fraction-tree node with an even weight along its even
    boundary edge and keep the folds whose parity census matches one of the
    three minimal-lens patterns: balanced, or all even edges of degree four
    except (one of degree 3 and one of degree 5) or (two of degree 3 and
    one of degree 6).

    Each returned entry is re-verified on the actual folded triangulation:
    the census is recomputed from the cocycle found by the colouring
    module, not from the weight replay.
    """
    from . import cocycle as _cocycle

    if depth_limit < 3:
        raise TriangulationError("enumeration needs depth at least 3")
    results = []
    for node, tri, meta in lst_tree(depth_limit):
        evens = [w for w in (node.p, node.q) if w % 2 == 0]
        if not evens:
            continue
        folded, record = fold_along_edge(
            tri, boundary_edge(meta, evens[0]), meta)
        classes = _cocycle.all_nonzero_classes(folded)
        if len(classes) != 1:
            raise AssertionError("even lens space without a unique class")
        census = _cocycle.parity_census(folded, classes[0])
        hist = census.even_degree_histogram
        if hist.get(3, 0) == 2 and hist.get(5, 0) == 2:
            raise AssertionError("census shows two degree-3 and two degree-5 "
                                 "even edges, which should be impossible")
        others = {d: c for d, c in hist.items() if d != 4}
        if census.balanced and others == {3: 2}:
            classification = "balanced"
        elif others == {3: 1, 5: 1}:
            classification = "e3=1,e5=1"
        elif others == {3: 2, 6: 1}:
            classification = "e3=2,e6=1"
        else:
            continue
        results.append((node, record, classification))
    results.sort(key=lambda row: row[0].depth)    # stable: lgraph's order
    return results


# ----- layered loops ---------------------------------------------------------

# Chain joint: tetrahedron i is layered across two faces of tetrahedron
# i+1, facet 0 onto facet 2 and facet 1 onto facet 3.  The twisted closure
# crosses the facets (0 onto 3, 1 onto 2).  Both layouts are pinned by the
# homology oracle: the twisted loop must produce Z/2+Z/2 for even length
# and Z/4 for odd, with one vertex and n+1 edges.
_CHAIN_A = Perm4((2, 1, 0, 3))
_CHAIN_B = Perm4((0, 3, 2, 1))
_TWIST_A = Perm4((3, 0, 1, 2))
_TWIST_B = Perm4((1, 2, 3, 0))


def layered_loop(n, twisted):
    """Layered chain of n tetrahedra closed into a loop, with or without a
    twist.  Twisted loops triangulate the generalised quaternionic spaces;
    the twisted loop of even length 2k is the minimal triangulation used by
    the Q family."""
    n = int(n)
    if n < 3:
        raise TriangulationError("layered loops need at least 3 tetrahedra")
    b = TriBuilder(n)
    for i in range(n - 1):
        b.join(i, 0, i + 1, _CHAIN_A)
        b.join(i, 1, i + 1, _CHAIN_B)
    if twisted:
        b.join(n - 1, 0, 0, _TWIST_A)
        b.join(n - 1, 1, 0, _TWIST_B)
    else:
        b.join(n - 1, 0, 0, _CHAIN_A)
        b.join(n - 1, 1, 0, _CHAIN_B)
    return b.freeze()


# ----- augmented solid tori ---------------------------------------------------


PRISM_ANNULI = (
    # (triangle1 slot, triangle2 slot, horizontal, diagonal, verticals)
    # as (tet, facet) and per-triangle edge vertex pairs
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


def _prism_builder():
    """Three-tetrahedron triangular prism with its top triangle glued to
    the bottom one; a solid torus with three vertices, each of corner
    degree four, and three two-triangle boundary annuli."""
    b = TriBuilder(3)
    b.join(0, 2, 1, Perm4((0, 1, 2, 3)))
    b.join(1, 1, 2, Perm4((0, 1, 2, 3)))
    b.join(2, 0, 0, Perm4((3, 0, 1, 2)))
    return b


@dataclass(frozen=True)
class AnnulusFilling:
    """How one boundary annulus of the pinched prism gets closed off.

    kind 'lst': attach a layered solid torus, gluing its boundary edges of
    the given weights to the annulus' horizontal, diagonal and vertical
    edges.  kind 'fold': identify the annulus' two triangles directly,
    matching the named edges across ('cross', the default, swaps
    horizontal and diagonal; 'straight' keeps horizontal on horizontal).
    A straight fold leaves an edge identified with itself reversed, so
    ``augmented_solid_torus`` rejects it.
    """
    kind: str
    w_h: int = 0
    w_d: int = 0
    w_v: int = 0
    style: str = "cross"


def _triangle_map(edges_from, edges_to):
    """Vertex map of a triangle gluing given the three edge correspondences
    {role: (vertex pair)} on both sides."""
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


def augmented_solid_torus(fillings):
    """Pinched-prism solid torus with its three annuli closed by the given
    fillings.  Every layered-solid-torus attachment pinches the two
    vertical edges of its annulus onto a single edge, which is what turns
    each annulus into a one-vertex torus.  Raises TriangulationError when
    the result has an invalid edge, as every straight fold leaves."""
    if len(fillings) != 3:
        raise TriangulationError("exactly three annulus fillings required")
    b = _prism_builder()
    pending = []
    for annulus, filling in zip(PRISM_ANNULI, fillings):
        t1, f1 = annulus["tri1"]
        t2, f2 = annulus["tri2"]
        if filling.kind == "fold":
            if filling.style not in ("straight", "cross"):
                raise TriangulationError(
                    f"unknown fold style {filling.style!r}")
            e1, e2 = dict(annulus["edges1"]), dict(annulus["edges2"])
            if filling.style == "cross":
                e2 = {"h": e2["d"], "d": e2["h"], "v": e2["v"]}
            vmap = _triangle_map(e1, e2)
            vmap[f1] = f2
            b.join(t1, f1, t2, Perm4.from_map(vmap))
        elif filling.kind == "lst":
            pending.append((annulus, filling))
        else:
            raise TriangulationError(f"unknown filling kind {filling.kind!r}")

    # attach solid tori one at a time, extending the prism's builder
    for annulus, filling in pending:
        triple = sorted((filling.w_h, filling.w_d, filling.w_v))
        if triple[0] + triple[1] != triple[2]:
            raise TriangulationError(
                f"weights {triple} do not form a solid torus boundary triple")
        if math.gcd(triple[0], triple[1]) != 1:
            raise TriangulationError(f"weights {triple} are not coprime")
        sub, meta = lst(triple[0], triple[1])
        offset = len(b.rows)
        b.rows.extend([None if g is None else (g[0] + offset, g[1])
                       for g in row] for row in sub.gluings)
        want = {"h": boundary_edge(meta, filling.w_h),
                "d": boundary_edge(meta, filling.w_d),
                "v": boundary_edge(meta, filling.w_v)}
        lst_faces = [(lt, lf, {role: meta.book.edges[e][side]
                               for role, e in want.items()})
                     for side, (lt, lf) in enumerate(meta.book.faces)]
        for (lt, lf, edges_from), key in zip(lst_faces, ("1", "2")):
            t_p, f_p = annulus["tri" + key]
            vmap = _triangle_map(edges_from, annulus["edges" + key])
            vmap[lf] = f_p
            b.join(lt + offset, lf, t_p, Perm4.from_map(vmap))
    tri = b.freeze()
    # a straight fold identifies an edge with itself reversed
    homology.require_valid_cells(tri)
    return tri


# ----- the named families -----------------------------------------------------


def augmented_quaternionic(k):
    """Augmented-solid-torus triangulation of the generalised quaternionic
    space of even order parameter k: two crossed folds plus the solid torus
    with boundary triple {1, k-1, k}.  One tetrahedron larger than the
    twisted layered loop of the same space."""
    if k < 4 or k % 2:
        raise TriangulationError("needs even k >= 4")
    tri = augmented_solid_torus((
        AnnulusFilling("fold", style="cross"),
        AnnulusFilling("fold", style="cross"),
        AnnulusFilling("lst", w_h=k - 1, w_d=1, w_v=k),
    ))
    predicted = homology.seifert_homology(family_slopes("Q", k))
    actual = homology.first_homology(tri)
    _log.debug("augmented_quaternionic(%d): Seifert H1 %s, built H1 %s",
               k, predicted, actual)
    if actual != predicted:
        raise AssertionError("augmented quaternionic homology mismatch")
    return tri


def family_tag(tag):
    """A family name in its canonical spelling: upper case, with a prime
    written ' or \u2032 spelled PRIME, so M' and M\u2032 are MPRIME."""
    return tag.upper().replace("'", "PRIME").replace("\u2032", "PRIME")


def family_slopes(tag, *params):
    """The Seifert slopes (a_i, b_i), over the sphere, of the member of
    family ``tag`` (canonical spelling) with the given parameters."""
    if tag == "M":
        k, m, n = params
        return ((1, 1), (2 * k + 1, 1), (2 * m + 1, 1), (2 * n + 1, 1))
    if tag == "MPRIME":
        k, m, n = params
        return ((1, -1), (2 * k + 2, 1), (2 * m + 2, 1), (2 * n + 2, 1))
    if tag == "P":
        (k,) = params
        return ((1, -1), (2, 1), (2, 1), (6 * k + 4, 6 * k + 1))
    if tag == "Q":
        (k,) = params
        return ((1, -1), (2, 1), (2, 1), (k, 1))
    raise TriangulationError(f"unknown family tag {tag!r}")


def seifert_family(tag, k, m=None, n=None):
    """Build one of the four minimal families and its Seifert parameters.

    M and M' are augmented solid tori, P is the prism family (two folded
    annuli plus one long solid torus) and Q is the twisted layered loop.
    The annulus weight assignments below were fixed by requiring the built
    complex to reproduce the Seifert-presentation homology over a parameter
    grid; that oracle runs again on every call.
    """
    tag = family_tag(tag)
    if tag == "M":
        if not all(x and x >= 1 for x in (k, m, n)):
            raise TriangulationError("family M needs positive k, m, n")
        tri = augmented_solid_torus((
            AnnulusFilling("lst", w_h=2 * k + 2, w_d=1, w_v=2 * k + 1),
            AnnulusFilling("lst", w_h=2 * m + 2, w_d=1, w_v=2 * m + 1),
            AnnulusFilling("lst", w_h=2 * n, w_d=1, w_v=2 * n + 1),
        ))
        params = (k, m, n)
    elif tag == "MPRIME":
        if not all(x and x >= 1 for x in (k, m, n)):
            raise TriangulationError("family M' needs positive k, m, n")
        tri = augmented_solid_torus((
            AnnulusFilling("lst", w_h=1, w_d=2 * k + 1, w_v=2 * k + 2),
            AnnulusFilling("lst", w_h=1, w_d=2 * m + 1, w_v=2 * m + 2),
            AnnulusFilling("lst", w_h=2 * n + 1, w_d=1, w_v=2 * n + 2),
        ))
        params = (k, m, n)
    elif tag == "P":
        if not k or k < 1:
            raise TriangulationError("family P needs positive k")
        tri = augmented_solid_torus((
            AnnulusFilling("fold", style="cross"),
            AnnulusFilling("fold", style="cross"),
            AnnulusFilling("lst", w_h=3, w_d=6 * k + 1, w_v=6 * k + 4),
        ))
        params = (k,)
    elif tag == "Q":
        if not k or k < 4 or k % 2:
            raise TriangulationError("family Q needs even k >= 4")
        tri = layered_loop(k, twisted=True)
        params = (k,)
    else:
        raise TriangulationError(f"unknown family tag {tag!r}")
    slopes = family_slopes(tag, *params)
    predicted = homology.seifert_homology(slopes)
    actual = homology.first_homology(tri)
    _log.debug("seifert_family %s%s: Seifert H1 %s, built H1 %s",
               tag, params, predicted, actual)
    if actual != predicted:
        raise AssertionError(
            f"family {tag}{params}: built homology {actual} differs from "
            f"Seifert prediction {predicted}")
    return tri, SeifertParams(tag, params, slopes, predicted)
