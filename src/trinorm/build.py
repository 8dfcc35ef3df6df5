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
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

from .perm import Perm4
from .triangulation import (EDGE_VERTICES, FACET_EDGES, _NO_TETRAHEDRA,
                            TriangulationError)
from . import cocycle, homology

_log = logging.getLogger(__name__)


class Book(NamedTuple):
    """The boundary of a layered solid torus as gluing positions.

    faces holds the two boundary faces (tet, facet) in ascending order, and
    edges maps each of the three boundary edge classes to its directed
    vertex pair (head, tail) in each face, taken in the class direction of
    the triangulation's skeleton.
    """
    faces: tuple
    edges: dict

    def hinge(self, edge_class):
        """The given boundary edge's vertex pair (a, b) in each face: it
        runs from vertex a to vertex b."""
        pairs = self.edges.get(edge_class)
        if pairs is None:
            raise TriangulationError(
                f"edge {edge_class} is not a boundary edge")
        return pairs


class _TorusFields(NamedTuple):
    tets: tuple
    edge_weights: dict
    boundary_edges: tuple
    univalent_edge: int
    base_edge: int | None
    book: Book


class LayeredSolidTorus(_TorusFields):
    """A layered solid torus, built by ``lst`` or recognised inside a
    triangulation by ``analyze.find_maximal_lsts``.

    tets lists its tetrahedra in layering order.  edge_weights maps each of
    its edge classes to the geometric intersection number of the edge's
    loop with the meridian disc; the three boundary edges carry the triple
    {p, q, p+q}.  The univalent edge is the boundary edge of torus-degree
    one; base_edge is the first edge ever layered on (absent for a single
    tetrahedron).  book locates the boundary for the next layering or fold:
    a built torus carries it along, and a recognised one reads it off its
    frontier with ``frontier_book``.  Equality ignores the book, and the
    instance dict holds only the cached ``boundary_triple``.
    """

    def __eq__(self, other):
        # every field but the book
        return type(other) is type(self) and self[:5] == other[:5]

    __ne__ = object.__ne__      # the negated __eq__, not tuple's

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: the record is immutable")

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
        ``types``, the tuple ``classify_tetrahedra`` returns."""
        kinds = {types[t][0] for t in self.tets}
        if len(kinds) != 1:
            raise AssertionError("layered solid torus with mixed tetrahedron types")
        return kinds.pop()


class FoldRecord(NamedTuple):
    fold_edge_weight: int
    lens_a: int
    lens_b: int


class LGraphNode(NamedTuple):
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


class SeifertParams(NamedTuple):
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
    tri = _NO_TETRAHEDRA.glued(((0, 0, 0, Perm4((1, 2, 3, 0))),), 1)
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


def _third(f, a, b):
    """The vertex of facet f other than a and b: facet f is opposite
    vertex f, and the four labels sum to 6."""
    return 6 - f - a - b


def _face_map(f, pair, g, images):
    """The gluing of facet f onto facet g that sends the two vertices
    ``pair`` of f to ``images`` in g, and so f's third vertex to g's: the
    one face-onto-face rule, which every layer, fold and filling glues
    by."""
    (a, b), (c, d) = pair, images
    return Perm4.from_map({a: c, b: d, _third(f, a, b): _third(g, c, d),
                           f: g})


@lru_cache(maxsize=None)
def _layer_step(f1, f2, hinge, kept):
    """``_layer``'s rule on a book's shape, labels 0..3 only, so few shapes
    occur: the facets of the two faces, the hinge's vertex pair in each
    and the kept classes' pairs in order.  Returns the gluings of the faces
    onto the new tetrahedron's facets 2 and 3, each hinge pair onto (0, 1),
    and the new book's pairs: the kept classes' in order, then the fresh
    edge's.  A walk of the fraction tree meets 10 shapes."""
    g1 = _face_map(f1, hinge[0], 2, (0, 1))
    g2 = _face_map(f2, hinge[1], 3, (0, 1))
    im1, im2 = g1.images, g2.images
    pairs = []
    for (h1, u1), (h2, u2) in kept:
        i1, i2 = (im1[h1], im1[u1]), (im2[h2], im2[u2])
        pairs.append((i2, i1) if 0 in i1 else (i1, i2))
    return g1, g2, (*pairs, ((2, 3), (2, 3)))


def _layer(book, hinge, new, new_class):
    """The two joins that attach tetrahedron ``new`` across the book's two
    faces, hinged on the boundary edge class ``hinge``, and the book they
    leave; ``Triangulation.glued`` makes the joins.  The rule is
    ``_layer_step``'s, looked up by the book's shape.

    The new tetrahedron glues its facets 2 and 3 over the two faces with
    the hinge landing on its edge (0,1); orientation of the hinge is
    matched on both sides, which pins the gluing completely.  Facets 0 and
    1 become the new boundary and edge (2,3), directed 2->3 and numbered
    ``new_class`` (the old edge-class count), is the fresh boundary edge.
    The two kept classes keep their direction; of each one's two images,
    the one through vertex 0 lies in facet 1 and the other in facet 0.
    """
    pairs = book.hinge(hinge)
    kept, kept_pairs = [], []
    for e, pair in book.edges.items():
        if e != hinge:
            kept.append(e)
            kept_pairs.append(pair)
    (t1, f1), (t2, f2) = book.faces
    g1, g2, images = _layer_step(f1, f2, pairs, tuple(kept_pairs))
    kept.append(new_class)
    return (((t1, f1, new, g1), (t2, f2, new, g2)),
            Book(((new, 0), (new, 1)), dict(zip(kept, images))))


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
    """The boundary edge class of the given meridian weight; a weight the
    boundary does not carry is refused, naming the triple."""
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


def _weight(value, name="weight"):
    """``value`` as a meridian weight or a constructor's parameter: an int,
    refused by type otherwise, ``True`` and ``2.0`` too, so no weight or
    parameter is truncated or coerced."""
    if type(value) is not int:
        raise TriangulationError(f"{name} {value!r} is not an int")
    return value


def lst(p, q):
    """Layered solid torus with boundary triple {p, q, p+q}, layered along
    the minimal path.  Only the seed tetrahedron's skeleton is read, and
    the seed is glued once, with every layer's joins.

    Each layer works on locals: the book's two faces as four ints, and its
    three classes in book order, each with its pair and weight.  The hinge
    is the class of the weight the step to the child drops, found by two
    comparisons; ``_layer_step`` gives the joins and the kept classes'
    new pairs, which stay in order, and ``relayered_weight`` the fresh
    class's weight.  The seed's boundary order, (0, 1, 2), and its book
    order, (0, 2, 1), disagree only on classes 1 and 2, and a minimal
    path's first layer is on one of them (of weight 2 or 1, never p+q);
    so the kept classes are in the same order in both, and after a layer
    the boundary is the book's classes in order, as ``relayer`` leaves
    it."""
    p, q = _weight(p), _weight(q)
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
    path = minimal_path(p, q)
    weights = dict(torus.edge_weights)
    if len(path) == 1:
        return seed.glued(()), torus._replace(
            edge_weights=weights,
            book=Book(torus.book.faces, dict(torus.book.edges)))
    (t1, f1), (t2, f2) = torus.book.faces
    (c0, p0), (c1, p1), (c2, p2) = torus.book.edges.items()
    w0, w1, w2 = weights[c0], weights[c1], weights[c2]
    joins = []
    base = None
    new = len(torus.tets)
    for (a, b), (ca, _) in zip(path, path[1:]):
        # the child a/(a+b) drops the weight b, the child b/(a+b) drops a
        gone = b if ca == a else a
        if w0 == gone:
            hinge, pair = c0, p0
            c0, p0, w0, c1, p1, w1 = c1, p1, w1, c2, p2, w2
        elif w1 == gone:
            hinge, pair = c1, p1
            c1, p1, w1 = c2, p2, w2
        else:
            hinge, pair = c2, p2
        g1, g2, (p0, p1, p2) = _layer_step(f1, f2, pair, (p0, p1))
        joins.append((t1, f1, new, g1))
        joins.append((t2, f2, new, g2))
        # k tetrahedra hold k + 2 classes: the fresh one is numbered next
        c2 = new + 2
        w2 = weights[c2] = relayered_weight(gone, w0, w1)
        if base is None:
            base = hinge
        t1 = t2 = new
        f1, f2 = 0, 1
        new += 1
    return seed.glued(joins, new - 1), LayeredSolidTorus(
        tuple(range(new)), weights, (c0, c1, c2), c2, base,
        Book(((t1, 0), (t1, 1)), {c0: p0, c1: p1, c2: p2}))


def fold_record(p, q, weight):
    """The lens space L(lens_a, lens_b) obtained by folding lst(p, q) along
    its boundary edge of the given weight (p, q or p+q)."""
    if weight == p:
        return FoldRecord(weight, 2 * q + p, q)
    if weight == q:
        return FoldRecord(weight, 2 * p + q, p)
    return FoldRecord(weight, abs(p - q), p)


@lru_cache(maxsize=None)
def _fold_map(f1, f2, hinge):
    """The fold's gluing of facet f1 onto f2, the hinge's vertex pair in
    the first face onto its pair in the second; memoised like the layer's.
    All three folds of every fraction-tree node meet 8 shapes, the
    census's even folds 5."""
    return _face_map(f1, hinge[0], f2, hinge[1])


def fold_along_edge(tri, edge_class, torus):
    """Close the book of tri, the layered solid torus ``torus``: identify
    the two boundary faces by the map fixing the given boundary edge
    pointwise.  The other two boundary edges merge into a single class.
    Returns the lens space, which shares tri's unchanged rows
    (``Triangulation.glued``), and its fold record.  The boundary is read
    off the torus's book, so a torus whose faces are glued in tri is
    refused."""
    (t1, f1), (t2, f2) = torus.book.faces
    fold = _fold_map(f1, f2, torus.book.hinge(edge_class))
    return tri.glued(((t1, f1, t2, fold),)), fold_record(
        torus.p, torus.q, torus.edge_weights[edge_class])


def lens_space(p, q, fold_weight=None):
    """Layered lens space obtained by folding lst(p, q).  fold_weight picks
    the boundary edge (one of p, q, p+q); the default folds along the even
    boundary edge when p or q is even, else along p+q.  A weight or
    fold weight that is not an int is refused, as ``lst`` refuses one."""
    if fold_weight is not None:
        _weight(fold_weight, "fold weight")
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
    have full rank.  The H_1 check and the weights are logged at DEBUG."""
    sk = tri.skeleton
    if sk.vertex_count != 1:
        raise TriangulationError(
            "the meridian oracle requires a one-vertex complex")
    _, d2 = homology.boundary_matrices(tri)
    ne = sk.edge_count
    diag, rank = homology.smith_normal_form(d2)
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
            [row + [int(i == e)] for i, row in enumerate(d2)])
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
    No triangulation is built: a node's even count is its parent's, plus
    one when the weight its layer adds is even, 2p+q for the child p/(p+q)
    and p+2q for q/(p+q); the root 1/2 has the weights 1, 2, 3."""
    if depth_limit < 1:
        raise TriangulationError("depth limit must be at least 1")
    nodes = []
    level = [(1, 2, 1)]
    for depth in range(1, depth_limit + 1):
        nodes += [LGraphNode(p, q, depth, even, depth + 2 - even)
                  for p, q, even in level]
        level = [(a, b, even + 1 - w % 2) for p, q, even in level
                 for a, b, w in ((p, p + q, 2 * p + q), (q, p + q, p + 2 * q))]
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


def _classified(others, balanced):
    """The minimal-lens class of a fold along an even edge, from its even
    edges' degree histogram without degree 4 and whether it has as many
    even edges as odd; None when it is no row.  The patterns: balanced
    with two even edges of degree 3, or (one of degree 3 and one of degree
    5), or (two of degree 3 and one of degree 6)."""
    if balanced and others == {3: 2}:
        return "balanced"
    if others == {3: 1, 5: 1}:
        return "e3=1,e5=1"
    if others == {3: 2, 6: 1}:
        return "e3=2,e6=1"
    return None


# the sorted buried even degrees other than 4 that a row's fold can hold:
# every sub-multiset of the two unbalanced patterns, which hold balanced's
_FITTING = frozenset(combo for pattern in ((3, 3, 6), (3, 5))
                     for r in range(len(pattern) + 1)
                     for combo in combinations(pattern, r))

# the seed's boundary in the census walk's terms: each edge's (weight,
# slots), in its boundary order
_SEED_EDGES = tuple((_SEED[1].edge_weights[e],
                     _SEED[0].skeleton.edge_degrees[e])
                    for e in _SEED[1].boundary_edges)


def _census_layer(edges, buried, gone):
    """One layer of the census walk, on the boundary edge of weight
    ``gone``.  ``edges`` holds each boundary edge's (weight, slots) in the
    torus's boundary order and ``buried`` the sorted degrees other than 4
    of its interior even edges.  As ``_layer_step`` glues it, the hinge
    gains one slot and is buried, with its parity, its weight mod 2; each
    kept edge gains two, and the fresh edge, last, has one.  Returns the
    child's edges and buried degrees."""
    kept = []
    for w, slots in edges:
        if w == gone:
            hinge = slots + 1
        else:
            kept.append((w, slots + 2))
    (a, _), (b, _) = kept
    if gone % 2 == 0 and hinge != 4:
        buried = tuple(sorted((*buried, hinge)))
    return (*kept, (relayered_weight(gone, a, b), 1)), buried


def _census_class(edges, buried, deficiency):
    """The class ``enumerate_minimal_lens_families`` gives the torus with
    the census walk's ``edges`` and ``buried`` and the given deficiency, or
    None: no row, or no fold, when p+q is the even weight.  The fold along
    the even boundary edge keeps that edge's degree and merges the two odd
    ones into one odd class of the summed degree.  So the fold has the
    torus's even edges and one odd edge fewer, and is balanced exactly
    when the torus has deficiency 1."""
    fold = next((slots for w, slots in sorted(edges)[:2] if w % 2 == 0),
                None)
    if fold is None:
        return None
    others = {}
    for d in (*buried, fold) if fold != 4 else buried:
        others[d] = others.get(d, 0) + 1
    return _classified(others, deficiency == 1)


def _census_walk(depth_limit, tally):
    """The census walk: the fraction tree to the given depth in
    ``lst_tree``'s order, as integers, with no triangulation built.  Each
    node carries its boundary edges' weights and slots, its buried even
    degrees other than 4 (see ``_census_layer``) and its even count, as
    ``lgraph`` does.  Yields (node, class, torus) for each node that
    ``_census_class`` predicts a row, where torus() builds the node's
    (triangulation, meta), layered on the nearest built ancestor.

    A buried edge's weight and degree never change again, and a fold
    keeps them; so every fold in a subtree holds its root's buried degrees
    among its even ones, and a subtree whose buried degrees are not in
    ``_FITTING`` holds no row, and is skipped.  Counts the nodes walked,
    the subtrees skipped and the tori built in ``tally``."""
    stack = [(_SEED_EDGES, (), 1, 1, lambda: _SEED)]
    while stack:
        edges, buried, depth, even, torus = stack.pop()
        tally["walked"] += 1
        (p, _), (q, _), _ = sorted(edges)
        # odd count minus even count: the deficiency
        predicted = _census_class(edges, buried, depth + 2 - 2 * even)
        if predicted:
            yield (LGraphNode(p, q, depth, even, depth + 2 - even),
                   predicted, torus)
        if depth == depth_limit:
            continue
        # the child p/(p+q), layered on q, is pushed last and so visited
        # first
        for gone in (p, q):
            child, child_buried = _census_layer(edges, buried, gone)
            if child_buried not in _FITTING:
                tally["skipped"] += 1
                continue
            stack.append((child, child_buried, depth + 1,
                          even + 1 - child[2][0] % 2,
                          _layered_lazily(torus, gone, tally)))


def _layered_lazily(parent, gone, tally):
    """A function building, once, the torus layered on the boundary edge
    of weight ``gone`` of the torus parent() builds."""
    built = None

    def torus():
        nonlocal built
        if built is None:
            tri, meta = parent()
            built = layer_on_edge(tri, boundary_edge(meta, gone), meta)
            tally["built"] += 1
        return built
    return torus


def _fold_class(tri, meta, weight):
    """Fold the torus along its boundary edge of the given even weight and
    colour the lens space by its one nonzero class.  Returns the fold
    record and the class ``_classified`` reads off the class's parity
    tally, or None.  Asserts that the class is unique, that the even
    edges' slots agree with the tetrahedron types (``parity_tally`` does)
    and that the even degrees are not two of 3 and two of 5, which should
    be impossible.

    Only ``cocycle.parity_tally`` is asked: a row reads the even degree
    histogram and whether the even edges are as many as the odd ones, and
    never the even subcomplex that ``parity_census`` adds."""
    folded, record = fold_along_edge(tri, boundary_edge(meta, weight), meta)
    classes = cocycle.all_nonzero_classes(folded)
    if len(classes) != 1:
        raise AssertionError("even lens space without a unique class")
    even, odd, hist, *_ = cocycle.parity_tally(folded, classes[0])
    if hist.get(3, 0) == 2 and hist.get(5, 0) == 2:
        raise AssertionError("census shows two degree-3 and two degree-5 "
                             "even edges, which should be impossible")
    others = {d: c for d, c in hist.items() if d != 4}
    return record, _classified(others, even == odd)


def enumerate_minimal_lens_families(depth_limit):
    """Every fraction-tree node to the given depth whose fold along its
    even boundary edge (p or q) matches one of the three minimal-lens
    patterns of ``_classified``, as (node, fold record, class), in
    ``lgraph``'s order.

    The rows are read off the layering rule by ``_census_walk``, which
    builds no triangulation and skips the subtrees that can hold none.
    Each row's torus, fold and colouring are then built, and its class is
    re-computed from the cocycle found by the colouring module
    (``_fold_class``); it must equal the walk's.
    """
    if depth_limit < 3:
        raise TriangulationError("enumeration needs depth at least 3")
    tally = dict.fromkeys(("walked", "skipped", "built"), 0)
    results = []
    for node, predicted, torus in _census_walk(depth_limit, tally):
        tri, meta = torus()
        record, built = _fold_class(
            tri, meta, node.p if node.p % 2 == 0 else node.q)
        if built != predicted:
            raise AssertionError(
                f"the fold of {node.p}/{node.q} is {built}, but the layering "
                f"rule predicts {predicted}")
        results.append((node, record, predicted))
    _log.debug("enumerate_minimal_lens_families(%d): %d nodes walked, %d "
               "subtrees skipped, %d tori built, %d rows", depth_limit,
               tally["walked"], tally["skipped"], tally["built"],
               len(results))
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
    if _weight(n, "loop length") < 3:
        raise TriangulationError("layered loops need at least 3 tetrahedra")
    joins = []
    for i in range(n - 1):
        joins += (i, 0, i + 1, _CHAIN_A), (i, 1, i + 1, _CHAIN_B)
    a, b = (_TWIST_A, _TWIST_B) if twisted else (_CHAIN_A, _CHAIN_B)
    joins += (n - 1, 0, 0, a), (n - 1, 1, 0, b)
    return _NO_TETRAHEDRA.glued(joins, n)


# ----- augmented solid tori ---------------------------------------------------


# The pinched prism's three boundary annuli, each two triangles (tet,
# facet, the vertices opposite its horizontal, diagonal and vertical edges)
PRISM_ANNULI = (
    ((1, 3, (2, 1, 0)), (2, 3, (0, 1, 2))),
    ((0, 0, (3, 2, 1)), (1, 0, (1, 2, 3))),
    ((0, 1, (3, 2, 0)), (2, 2, (0, 1, 3))),
)


# The joins of the three-tetrahedron triangular prism with its top
# triangle glued to the bottom one: a solid torus with three vertices, each
# of corner degree four, and three two-triangle boundary annuli.
_PRISM_JOINS = ((0, 2, 1, Perm4((0, 1, 2, 3))),
                (1, 1, 2, Perm4((0, 1, 2, 3))),
                (2, 0, 0, Perm4((3, 0, 1, 2))))

# Each annulus's fold: its first triangle onto its second, horizontal onto
# diagonal, diagonal onto horizontal and vertical onto vertical.
_PRISM_FOLDS = tuple((t1, f1, t2, _face_map(f1, (h1, d1), f2, (d2, h2)))
                     for (t1, f1, (h1, d1, _)), (t2, f2, (h2, d2, _))
                     in PRISM_ANNULI)


class AnnulusFilling(NamedTuple):
    """How one boundary annulus of the pinched prism gets closed off.

    kind 'lst': attach a layered solid torus, gluing its boundary edges of
    the given weights to the annulus' horizontal, diagonal and vertical
    edges.  kind 'fold': identify the annulus' two triangles directly,
    crossing horizontal onto diagonal and vertical onto vertical; a fold
    takes no weights, and one with a nonzero weight is refused.
    """
    kind: str
    w_h: int = 0
    w_d: int = 0
    w_v: int = 0


def augmented_solid_torus(fillings):
    """Pinched-prism solid torus with its three annuli closed by the given
    fillings.  Every layered-solid-torus attachment pinches the two
    vertical edges of its annulus onto a single edge, which is what turns
    each annulus into a one-vertex torus.  Raises TriangulationError when
    the result has an invalid edge.

    An unknown kind, and then a fold with a nonzero weight, is refused
    before any torus's weights are checked.
    Each torus is built by ``lst``, its own gluings re-joined from their
    lower slots at the next tetrahedron offset, and each boundary face
    glued to its annulus triangle, the vertex opposite each weight's edge
    onto the vertex opposite that role's edge."""
    if len(fillings) != 3:
        raise TriangulationError("exactly three annulus fillings required")
    for filling in fillings:
        if filling.kind not in ("fold", "lst"):
            raise TriangulationError(f"unknown filling kind {filling.kind!r}")
    for filling in fillings:
        if filling.kind == "fold" and any(filling[1:]):
            raise TriangulationError(
                f"a fold filling takes no weights, got {list(filling[1:])}")
    joins, n = list(_PRISM_JOINS), 3
    for annulus, fold, filling in zip(PRISM_ANNULI, _PRISM_FOLDS, fillings):
        if filling.kind == "fold":
            joins.append(fold)
            continue
        triple = sorted(map(_weight, filling[1:]))
        if triple[0] + triple[1] != triple[2]:
            raise TriangulationError(
                f"weights {triple} do not form a solid torus boundary triple")
        if math.gcd(triple[0], triple[1]) != 1:
            raise TriangulationError(f"weights {triple} are not coprime")
        sub, meta = lst(triple[0], triple[1])
        for t, row in enumerate(sub.gluings):
            for f, g in enumerate(row):
                if g is not None and 4 * t + f <= 4 * g[0] + g[1].images[f]:
                    joins.append((t + n, f, g[0] + n, g[1]))
        h, d = (meta.book.edges[boundary_edge(meta, w)]
                for w in (filling.w_h, filling.w_d))
        for (lt, lf), (tp, fp, (oh, od, _)), hp, dp in zip(
                meta.book.faces, annulus, h, d):
            joins.append((lt + n, lf, tp, _face_map(
                lf, (_third(lf, *hp), _third(lf, *dp)), fp, (oh, od))))
        n += sub.tet_count
    tri = _NO_TETRAHEDRA.glued(joins, n)
    homology.require_valid_cells(tri)
    return tri


# ----- the named families -----------------------------------------------------


def augmented_quaternionic(k):
    """Augmented-solid-torus triangulation of the generalised quaternionic
    space of even order parameter k: two crossed folds plus the solid torus
    with boundary triple {1, k-1, k}.  One tetrahedron larger than the
    twisted layered loop of the same space.  Its H_1 is checked against
    the Seifert presentation, and both are logged at DEBUG."""
    if _weight(k, "parameter k") < 4 or k % 2:
        raise TriangulationError("needs even k >= 4")
    tri = augmented_solid_torus((
        AnnulusFilling("fold"),
        AnnulusFilling("fold"),
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
    grid; that oracle runs again on every call, and logs the predicted and
    the built H_1 at DEBUG.
    """
    tag = family_tag(tag)
    for name, x in zip("kmn", (k, m, n) if tag in ("M", "MPRIME") else (k,)):
        if x is not None:
            _weight(x, f"parameter {name}")
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
            AnnulusFilling("fold"),
            AnnulusFilling("fold"),
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
