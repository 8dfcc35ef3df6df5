"""Pseudo-simplicial 3-manifold triangulations as face-gluing data.

A triangulation is a set of abstract tetrahedra together with gluings of
their facets.  Facet i of a tetrahedron is the triangle opposite vertex i,
and a gluing stores the full vertex permutation carrying one tetrahedron's
labels to the other's; the facet correspondence is derived from it.
Self-identifications of edges and vertices arise freely in the quotient,
which is what makes one-vertex triangulations of closed manifolds possible.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .perm import Perm4, ALL_PERMS, BY_CODE, INVERSE, PRODUCT

_log = logging.getLogger(__name__)

# Fixed tables for the sub-simplices of a tetrahedron.
#
# Edges are indexed 0..5 in lexicographic order of their vertex pairs.
# OPPOSITE_EDGE pairs each edge with the one it is disjoint from, and
# FACET_EDGES lists the three edges lying inside each facet triangle.
EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {pair: i for i, pair in enumerate(EDGE_VERTICES)}
for _a, _b in list(EDGE_INDEX):
    EDGE_INDEX[(_b, _a)] = EDGE_INDEX[(_a, _b)]
OPPOSITE_EDGE = (5, 4, 3, 2, 1, 0)
FACET_EDGES = ((3, 4, 5), (1, 2, 5), (0, 2, 4), (0, 1, 3))
FACET_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _gather(slots):
    """A C-level reader of the entries ``slots`` of a sequence, as a
    tuple: ``itemgetter(*slots)``, except that one slot or none gives a
    tuple too."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return lambda seq: tuple(map(seq.__getitem__, slots))


def _gluing_entry(perm, facet):
    """What gluing ``facet`` by ``perm`` does to the facet's cells."""
    target = perm[facet]
    vertices = tuple((v, perm[v]) for v in FACET_VERTICES[facet])
    edges = []
    for ei in FACET_EDGES[facet]:
        a, b = EDGE_VERTICES[ei]
        edges.append((ei, EDGE_INDEX[(perm[a], perm[b])],
                      1 if perm[a] > perm[b] else 0))
    return target, vertices, tuple(edges)


# GLUING_TABLE[perm.index][facet] = (target facet, ((vertex, image), x3),
# ((edge, image edge, flip), x3)): the flip bit is 1 when the edge's
# ascending direction maps to a descending one.
GLUING_TABLE = tuple(tuple(_gluing_entry(perm, f) for f in range(4))
                     for perm in ALL_PERMS)


# The canonical labelling works on permutation indices: _MUL[a][b] is the
# index of ALL_PERMS[a] * ALL_PERMS[b], _INV[a] that of the inverse, and
# _OLD_FACETS[rho] lists the facets that the vertex relabelling rho carries
# to the new facets 0, 1, 2, 3.
_MUL = tuple(tuple(p.index for p in row) for row in PRODUCT)
_INV = tuple(p.index for p in INVERSE)
_OLD_FACETS = tuple(p.images for p in INVERSE)
# a boundary facet's code: below every glued entry, as (-1, identity) is
_BOUNDARY_CODE = -24


def _pruned_codes(glu, start, perm, best):
    """One start of the canonical search.  The BFS relabelling that gives
    tetrahedron ``start`` label 0 and vertex map ``perm`` (an index) emits
    its table row by row, as the BFS reaches each tetrahedron, in entry
    codes label*24 + permutation index (_BOUNDARY_CODE for a boundary
    facet); ``glu`` is the gluing table as (tet, perm index) or None.

    Each code is compared with the same entry of ``best``, the least code
    list so far (None before the first start).  Returns (codes, compared,
    abandoned): codes is the whole list when it is less than ``best``, and
    None when the start is abandoned at its first larger entry or ties
    ``best`` to the end, so a tie keeps the earlier start."""
    label = {start: 0}
    relab = [perm]              # new label -> old vertex labels -> new ones
    order = [start]             # new label -> old tetrahedron
    codes = []
    deciding = best is not None
    compared = 0
    for i, t in enumerate(order):   # the BFS appends to order as it goes
        rho = relab[i]
        rho_inv = _INV[rho]
        row = glu[t]
        for old_f in _OLD_FACETS[rho]:
            g = row[old_f]
            if g is None:
                code = _BOUNDARY_CODE
            else:
                u, pi = g
                lu = label.get(u)
                if lu is None:
                    # a new tetrahedron, relabelled so that this gluing
                    # becomes the identity
                    lu = label[u] = len(order)
                    order.append(u)
                    relab.append(_MUL[rho][_INV[pi]])
                    code = 24 * lu
                else:
                    code = 24 * lu + _MUL[_MUL[relab[lu]][pi]][rho_inv]
            if deciding:
                other = best[len(codes)]
                if code > other:
                    return None, len(codes) + 1, True
                if code < other:
                    deciding = False
                    compared = len(codes) + 1
            codes.append(code)
    if deciding:
        return None, len(codes), False
    return codes, compared, False


class TriangulationError(ValueError):
    """Invalid gluing data or an operation applied outside its domain."""


class GluingError(TriangulationError):
    """An inconsistent gluing, located at ``slot`` = (tet, facet)."""

    def __init__(self, message, slot):
        self.slot = slot
        super().__init__(message)

    def __reduce__(self):
        # the default rebuilds from args, which lack the slot
        return type(self), (*self.args, self.slot)


class ParseError(TriangulationError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _linked(parent, parity, x0, y0, relations, conflicts, low):
    """Join slot ``x0 + i`` with slot ``y0 + j`` at parity ``rel`` for each
    (i, j, rel) of ``relations``, in order.  Roots are the least slot of
    their class: a root is linked under the lesser root, and finds halve
    their paths.  A slot holds its parity to its parent, a root its
    class's kept bit, the parity of the root a union keeping x's root
    would leave.  The root of each odd cycle is appended to ``conflicts``
    as it is found.  Returns the least of ``low`` and the roots linked or
    given another kept bit."""
    for i, j, rel in relations:
        a, pa = x0 + i, 0
        while parent[a] != a:
            up = parent[a]
            if parent[up] == up:
                pa ^= parity[a]
                a = up
                break
            parity[a] ^= parity[up]
            pa ^= parity[a]
            parent[a] = a = parent[up]
        b, pb = y0 + j, 0
        while parent[b] != b:
            up = parent[b]
            if parent[up] == up:
                pb ^= parity[b]
                b = up
                break
            parity[b] ^= parity[up]
            pb ^= parity[b]
            parent[b] = b = parent[up]
        rel ^= pa ^ pb
        if a < b:
            parent[b] = a
            parity[b] = rel
        elif b < a:
            # b stays the root, with the kept bit of a, x's side
            parent[a] = b
            parity[b] = parity[a] ^ rel
            parity[a] = rel
        else:
            if rel:
                conflicts.append(a)
            continue
        # b was linked under a, or took a's kept bit
        if b < low:
            low = b
    return low


def _gf2_reduce(rows):
    """Reduced row echelon form over GF(2) of rows given as int bitsets.

    Returns a dict pivot bit -> row: each row's pivot is its lowest set
    bit, and no row holds any other row's pivot.  The form depends only on
    the row space, so the order of ``rows`` does not matter.
    """
    reduced = {}
    mask = 0                    # the pivot bits so far
    for row in rows:
        # each stored row holds no other pivot, so clearing one pivot bit
        # leaves the others as they were
        hit = row & mask
        while hit:
            low = hit & -hit
            row ^= reduced[low.bit_length() - 1]
            hit ^= low
        if row:
            low = row & -row
            for p, r in reduced.items():
                if r & low:
                    reduced[p] = r ^ row
            reduced[low.bit_length() - 1] = row
            mask |= low
    return reduced


class Skeleton:
    """The vertex, edge and face classes of a triangulation as flat lists
    indexed by slot: slot 4t+i is vertex i or facet i of tetrahedron t, and
    slot 6t+i is its edge i.

    ``vertex_class`` and ``edge_class`` give each slot's class, classes
    being numbered by their first slot; ``edge_first`` records that slot
    for each edge class, ``vertex_count`` only counts the vertex classes,
    and ``face_first`` lists the first slot of each face class.
    ``edge_sign`` is +1 where the slot's ascending orientation is the
    class direction and -1 where it is reversed.  The direction is that
    of the class's kept root: the slot that stays the root when the edge
    unions, run in order of each gluing's lower facet slot, keep the
    lower side's root.  It is carried as that root's parity relative to
    the class's least slot.  A vertex slot's sign is always +1, so vertex
    classes carry no direction.  ``invalid_edges`` holds the edge classes
    identified with themselves reversed, ``boundary_facets`` and
    ``self_glued_facets`` the facet slots left free or glued to
    themselves.  ``edge_degrees``, ``boundary_edges``, ``face_rows`` and
    ``face_echelon`` are derived on first use, and ``edge_slots()`` groups
    the edge slots by class.

    One routine, ``_resumed``, builds these lists, reading the gluings in
    order of their lower facet slots and joining edge slots through
    ``_linked``, the one parity union-find; the full pass runs it from the
    skeleton of no tetrahedra.  Each skeleton keeps the slot forest its
    pass left, ``_forest``, and the last lower slot of a gluing it read,
    ``_last``.  A table that ``Triangulation.glued`` makes from a parent
    whose skeleton is built reads on from the parent's forest when every
    join's lower facet slot is a free facet of the parent after ``_last``,
    since the full pass would read the parent's gluings and then the
    joins: layers and folds do, those that merge two old classes or make
    an edge invalid too.  Any other table gets the full pass when the
    skeleton is asked for."""

    def __init__(self, vertex_class, vertex_count, edge_class, edge_sign,
                 edge_first, invalid_edges, face_first, boundary_facets,
                 self_glued_facets):
        self.vertex_class = vertex_class
        self.vertex_count = vertex_count
        self.edge_class = edge_class
        self.edge_sign = edge_sign
        self.edge_first = edge_first
        self.invalid_edges = invalid_edges
        self.face_first = face_first
        self.boundary_facets = boundary_facets
        self.self_glued_facets = self_glued_facets
        self.edge_count = len(edge_first)
        self.face_count = len(face_first)

    @cached_property
    def edge_degrees(self):
        """The degree of each edge class: its number of slots."""
        degrees = [0] * self.edge_count
        for c in self.edge_class:
            degrees[c] += 1
        return degrees

    @cached_property
    def boundary_edges(self):
        """The edge classes that lie in a free facet."""
        edge_class = self.edge_class
        return frozenset(edge_class[6 * (x // 4) + ei]
                         for x in self.boundary_facets
                         for ei in FACET_EDGES[x % 4])

    @cached_property
    def face_rows(self):
        """d2 mod 2 as one GF(2) row per face class, in face order: bit e
        is set iff edge class e appears an odd number of times among the
        face's three edges."""
        edge_class = self.edge_class
        rows = []
        for s in self.face_first:
            t, f = divmod(s, 4)
            w = 6 * t
            a, b, c = FACET_EDGES[f]
            rows.append((1 << edge_class[w + a]) ^ (1 << edge_class[w + b])
                        ^ (1 << edge_class[w + c]))
        return rows

    @cached_property
    def face_echelon(self):
        """``_gf2_reduce`` of ``face_rows``: its size is the rank of d2 mod
        2, and the edge classes it does not pivot on index the cocycle
        space."""
        return _gf2_reduce(self.face_rows)

    def edge_slots(self):
        """The slots of each edge class, in slot order."""
        slots = [[] for _ in range(self.edge_count)]
        for x, c in enumerate(self.edge_class):
            slots[c].append(x)
        return slots

    def degree_histogram(self):
        hist = {}
        for d in self.edge_degrees:
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))


def _resumed(sk, gluings):
    """The skeleton of ``gluings`` read on from ``sk``, the skeleton of its
    first ``len(sk.vertex_class) // 4`` tetrahedra, when every gluing
    beyond those has its lower facet slot after ``sk._last``.

    The pass reads the free facets of ``sk`` after ``sk._last``, then the
    new tetrahedra's facets, in slot order: every other slot was read into
    ``sk``.  Vertex and edge slots are joined as each gluing is read, in
    partitions whose roots are the least slot of their class: a root is
    linked under the lesser root, and finds halve their paths.  A vertex
    slot's sign is always +1, so its root carries no direction.  Edge
    slots are joined by ``_linked``, the lower slot's side as x, so a
    root's parity slot holds the parity of the class's kept root.  The
    forest starts as a copy of ``sk``'s with the new slots as roots.
    Below the least old root the pass links or gives another kept bit,
    every slot keeps its class and sign in ``sk``, so only the slots from
    there on are numbered."""
    n = len(gluings)
    last = sk._last
    old_vert, old_edge, old_parity = sk._forest
    v_old, e_old = len(old_vert), len(old_edge)
    vert = old_vert + list(range(v_old, 4 * n))
    edge = old_edge + list(range(e_old, 6 * n))
    parity = old_parity + [0] * (6 * n - e_old)
    # the least old root linked or given another kept bit so far
    low_v, low_e = v_old, e_old
    conflicts = []
    # a face class is one free facet, one self-glued facet, or a lower
    # slot with the upper slot it is glued to, numbered by lower slot; sk's
    # free facets after sk._last, its tail, are read again
    free = bisect_right(sk.boundary_facets, last)
    tail = sk.boundary_facets[free:]
    boundary_facets = sk.boundary_facets[:free]
    face_first = sk.face_first[:len(sk.face_first) - len(tail)]
    self_glued = sk.self_glued_facets[:]
    facets = chain([(x, gluings[x >> 2][x & 3]) for x in tail],
                   enumerate(chain.from_iterable(gluings[v_old >> 2:]),
                             v_old))
    for x, g in facets:
        if g is None:
            face_first.append(x)
            boundary_facets.append(x)
            continue
        u, perm = g
        f = x & 3
        target, vertices, edges = GLUING_TABLE[perm.index][f]
        u4 = 4 * u
        y = u4 + target
        # each gluing is read once, from its lower slot; a self-glued
        # facet is its own lower slot
        if y < x:
            continue
        last = x
        face_first.append(x)
        if y == x:
            self_glued.append(x)
        t4 = x - f
        for v, w in vertices:
            a = t4 + v
            while vert[a] != a:
                vert[a] = a = vert[vert[a]]
            b = u4 + w
            while vert[b] != b:
                vert[b] = b = vert[vert[b]]
            if a < b:
                vert[b] = a
                if b < low_v:
                    low_v = b
            elif b < a:
                vert[a] = b
                if a < low_v:
                    low_v = a
        low_e = _linked(edge, parity, 6 * (x >> 2), 6 * u, edges,
                        conflicts, low_e)
    # every slot's parent is a lesser slot of its class or itself, so a
    # class is numbered at its root, its first slot, and each later slot
    # takes its parent's class, and its sign through its parent's; an old
    # root's class number counts the classes before it
    vertex_class = sk.vertex_class[:low_v]
    vertex_count = sk.vertex_class[low_v] if low_v < v_old \
        else sk.vertex_count
    for x, a in enumerate(vert[low_v:], low_v):
        if a == x:
            vertex_class.append(vertex_count)
            vertex_count += 1
        else:
            vertex_class.append(vertex_class[a])
    edge_class, edge_sign = sk.edge_class[:low_e], sk.edge_sign[:low_e]
    edge_first = sk.edge_first[:sk.edge_class[low_e] if low_e < e_old
                               else sk.edge_count]
    for x, a in enumerate(edge[low_e:], low_e):
        if a == x:
            edge_class.append(len(edge_first))
            edge_first.append(x)
            edge_sign.append(1 - 2 * parity[x])
        else:
            edge_class.append(edge_class[a])
            edge_sign.append(-edge_sign[a] if parity[x] else edge_sign[a])
    # an old invalid class is found again at its first slot
    invalid_edges = sk.invalid_edges
    if conflicts or low_e < e_old:
        invalid_edges = frozenset(
            [edge_class[sk.edge_first[c]] for c in invalid_edges]
            + [edge_class[a] for a in conflicts])
    resumed = Skeleton(vertex_class, vertex_count, edge_class, edge_sign,
                       edge_first, invalid_edges, face_first,
                       boundary_facets, self_glued)
    resumed._forest = vert, edge, parity
    resumed._last = last
    return resumed


# the skeleton of no tetrahedra, which the full pass reads on from
_EMPTY = Skeleton([], 0, [], [], [], frozenset(), [], [], [])
_EMPTY._forest = [], [], []
_EMPTY._last = -1


class Triangulation:
    """Immutable face-gluing table.

    gluings[t][f] is either None (boundary facet) or a pair (u, perm) where
    perm is the Perm4 carrying vertex labels of tetrahedron t to labels of
    u, and facet f of t is glued to facet perm[f] of u.
    """

    # the last coordinate b-modified on this table with its quad sites (see
    # surface._quad_sites), and the last colouring classified on it with
    # its tetrahedron types (see cocycle.classify_tetrahedra)
    _quad_sites = None
    _tet_types = None, None

    def __init__(self, gluings):
        table = tuple(map(tuple, gluings))
        n = len(table)
        for t, row in enumerate(table):
            if len(row) != 4:
                raise TriangulationError(f"tetrahedron {t} needs 4 facet entries")
            for f, g in enumerate(row):
                if g is None:
                    continue
                u, perm = g
                if not 0 <= u < n:
                    raise TriangulationError(
                        f"dangling tetrahedron index {u} at tet {t} facet {f}")
                index = perm.index
                if u == t and index == 0:
                    raise GluingError(
                        f"facet {f} of tet {t} glued to itself pointwise",
                        (t, f))
                back = table[u][perm.images[f]]
                if back is None or back[0] != t \
                        or back[1] is not INVERSE[index]:
                    raise GluingError(
                        f"non-involutive gluing at tet {t} facet {f}", (t, f))
        self._gluings = table

    @property
    def tet_count(self):
        return len(self._gluings)

    @property
    def gluings(self):
        return self._gluings

    def gluing(self, tet, facet):
        return self._gluings[tet][facet]

    def glued(self, joins, new_tets=0):
        """This triangulation with ``new_tets`` free tetrahedra appended and
        each join (t, f, u, perm) made, in order, by ``_join``.  The rows no
        join writes are this table's own tuples, and only the entries the
        joins write are checked: this table was checked when it was built,
        and a join writes only free facets, both sides of each pairing at
        once.  It is the library's one assembler: every table a
        construction or a move makes is glued here, onto a parent or onto
        ``_NO_TETRAHEDRA``, so ``__init__``'s whole-table check is left to
        rows from outside (``parse``).

        When this table's skeleton is built, the new table's is read on
        from its slot forest here, by ``_resumed``, if every join's lower
        facet slot is a facet of this table after the last lower slot of a
        gluing here: the full pass reads gluings in order of their lower
        slots, so on the new table it would read this table's gluings and
        then the joins (see ``Skeleton``).  A layer or a fold on the newest
        tetrahedron's free facets, as in ``lst_tree``, always meets that
        test.  Otherwise, as for ``lst``'s joins between new tetrahedra,
        the new table's skeleton is the full pass, run when it is asked
        for, so no skeleton is built that nothing reads."""
        joins = tuple(joins)
        rows = list(self._gluings)
        rows += ([None] * 4 for _ in range(new_tets))
        for join in joins:
            for t, f, entry in _join(rows, *join):
                row = rows[t]
                if type(row) is tuple:
                    # a row of this table, copied at its first write
                    row = rows[t] = list(row)
                row[f] = entry
        tri = Triangulation.__new__(Triangulation)
        # tuple() hands an unwritten row, already a tuple, back as it is
        tri._gluings = tuple(map(tuple, rows))
        if "skeleton" in self.__dict__:
            sk = self.skeleton
            last, first_new = sk._last, 4 * len(self._gluings)
            for t, f, u, perm in joins:
                x, y = 4 * t + f, 4 * u + perm.images[f]
                if not last < (x if x < y else y) < first_new:
                    break
            else:
                tri.skeleton = _resumed(sk, tri._gluings)
        return tri

    @cached_property
    def is_closed(self):
        return all(None not in row for row in self._gluings)

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self._gluings == other._gluings)

    def __hash__(self):
        return hash(self._gluings)

    def __repr__(self):
        return f"<Triangulation with {self.tet_count} tetrahedra>"

    # ----- skeleton ------------------------------------------------------

    @cached_property
    def skeleton(self):
        """The full pass: ``_resumed`` from the skeleton of no tetrahedra,
        unless ``glued`` resumed it from the parent's."""
        return _resumed(_EMPTY, self._gluings)

    @cached_property
    def facet_corners(self):
        """The corner slots that normal arcs are counted on: corner
        4x + v is vertex v of facet slot x, that is 16t + 4f + v.

        Returns (lower, upper, counted), three tuples: for each glued face
        class in face order, the three corners of its first facet and the
        corners they are glued to, vertex by vertex; and the three corners
        of the first facet of every face class.  ``slot_gathers`` reads
        through these tuples without copying them."""
        glu = self._gluings
        lower, upper, counted = [], [], []
        for x in self.skeleton.face_first:
            t, f = divmod(x, 4)
            a = 4 * x
            i, j, k = FACET_VERTICES[f]
            corners = a + i, a + j, a + k
            counted += corners
            g = glu[t][f]
            if g is not None:
                lower += corners
                target, ((_, i), (_, j), (_, k)), _ = \
                    GLUING_TABLE[g[1].index][f]
                b = 16 * g[0] + 4 * target
                upper += (b + i, b + j, b + k)
        return tuple(lower), tuple(upper), tuple(counted)

    @cached_property
    def slot_gathers(self):
        """The ``_gather``s a normal cell count reads its slot tables
        through: (lower, upper, counted, first, spread).  The first three
        read the corner tuples of ``facet_corners``.  ``first`` reads a
        sequence of per-slot edge values at the first slot of each edge
        class, and ``spread`` at the first slot of each slot's class: the
        values agree on every class iff ``spread`` gives them back, as a
        tuple, unchanged."""
        sk = self.skeleton
        first = sk.edge_first
        return (*map(_gather, self.facet_corners), _gather(first),
                _gather(_gather(sk.edge_class)(first)))

    @property
    def is_valid(self):
        return not self.skeleton.invalid_edges

    # ----- global structure ----------------------------------------------

    @cached_property
    def dual_tree(self):
        """The faces of a spanning tree of the dual graph of tetrahedron
        0's component, as their lower facet slots: a depth-first search
        from tetrahedron 0 keeps each face that first reaches a
        tetrahedron.  The graph's nodes are the tetrahedra, and its edges
        the faces glued between two distinct tetrahedra."""
        glu = self._gluings
        if not glu:
            return []
        seen = [False] * len(glu)
        seen[0] = True
        stack = [0]
        tree = []
        while stack:
            t = stack.pop()
            for f, g in enumerate(glu[t]):
                if g is not None and not seen[g[0]]:
                    u, perm = g
                    seen[u] = True
                    stack.append(u)
                    x, y = 4 * t + f, 4 * u + perm.images[f]
                    tree.append(x if x < y else y)
        return tree

    @property
    def is_connected(self):
        return len(self.dual_tree) == max(self.tet_count - 1, 0)

    @cached_property
    def is_orientable(self):
        """True iff the tetrahedra admit orientations compatible with every
        gluing.  Crossing a gluing with odd permutation keeps the
        orientation sign; an even permutation flips it."""
        n = self.tet_count
        sign = [0] * n
        for start in range(n):
            if sign[start]:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                t = stack.pop()
                for g in self._gluings[t]:
                    if g is None:
                        continue
                    u, perm = g
                    want = sign[t] * (-perm.sign())
                    if sign[u] == 0:
                        sign[u] = want
                        stack.append(u)
                    elif sign[u] != want:
                        return False
        return True

    # ----- edge links -----------------------------------------------------

    def edge_link(self, edge_class):
        """Walk around an edge class, returning the cyclic list of wedges
        (tet, head, tail, f_in, f_out) in traversal order.

        head/tail are the tetrahedron labels of the edge's endpoints taken
        in the class direction; f_in and f_out are the two remaining labels,
        f_in being the facet shared with the previous wedge.  Only closed
        edges (no boundary face incident) are supported.
        """
        sk = self.skeleton
        if edge_class in sk.boundary_edges:
            raise TriangulationError("edge link walk requires an interior edge")
        x = sk.edge_first[edge_class]
        t0, ei0 = divmod(x, 6)
        a, b = EDGE_VERTICES[ei0]
        if sk.edge_sign[x] < 0:
            a, b = b, a
        others = [v for v in range(4) if v not in (a, b)]
        f_in = others[0]
        wedges = []
        t, head, tail, fin = t0, a, b, f_in
        for _ in range(sk.edge_degrees[edge_class]):
            fout = next(v for v in range(4) if v not in (head, tail, fin))
            wedges.append((t, head, tail, fin, fout))
            g = self._gluings[t][fout]
            if g is None:
                raise TriangulationError("edge link walk hit a boundary facet")
            u, perm = g
            t, head, tail, fin = u, perm[head], perm[tail], perm[fout]
        if (t, head, tail, fin) != (t0, a, b, f_in):
            raise TriangulationError("edge link walk failed to close up")
        return wedges

    # ----- canonical form and isomorphism ---------------------------------

    @cached_property
    def canonical_table(self):
        """Gluing table of the least BFS relabelling, over every start
        tetrahedron and vertex map, in the order of the entry codes of
        ``_pruned_codes``: Burton's isomorphism signature search, which
        drops each start at its first entry larger than the best so far.
        Entries are (label, images) or None for a boundary facet."""
        n = self.tet_count
        if n == 0:
            return ()
        if not self.is_connected:
            raise TriangulationError(
                "canonical form requires a connected triangulation")
        glu = tuple(tuple(None if g is None else (g[0], g[1].index)
                          for g in row) for row in self._gluings)
        best = winner = None
        abandoned = compared = 0
        for start in range(n):
            for perm in range(24):
                codes, seen, dropped = _pruned_codes(glu, start, perm, best)
                compared += seen
                abandoned += dropped
                if codes is not None:
                    best, winner = codes, (start, perm)
        _log.debug("canonical_table: %d starts tried, %d abandoned, %d "
                   "entries compared; winner start %d perm %d", 24 * n,
                   abandoned, compared, *winner)
        return tuple(
            tuple(None if c == _BOUNDARY_CODE
                  else (c // 24, ALL_PERMS[c % 24].images)
                  for c in best[i:i + 4])
            for i in range(0, 4 * n, 4))

    def isomorphic(self, other):
        if self.tet_count != other.tet_count:
            return False
        return self.canonical_table == other.canonical_table


# the table of no tetrahedra, onto which the constructions and the moves
# glue whole tables
_NO_TETRAHEDRA = Triangulation(())


def _join(rows, t, f, u, perm):
    """The one join rule, which ``Triangulation.glued`` makes each join by:
    the entries (tet, facet, entry) that gluing facet f of t to facet
    perm[f] of u writes into the table ``rows``, one for a facet paired
    with itself and one on each side otherwise.  Refuses a tetrahedron out
    of range, a facet already glued, a facet glued to itself pointwise and
    a self-pairing that is not an involution."""
    n = len(rows)
    for s in (t, u):
        if not 0 <= s < n:
            raise TriangulationError(
                f"dangling tetrahedron index {s} at tet {t} facet {f}")
    target = perm.images[f]
    if rows[t][f] is not None or rows[u][target] is not None:
        raise TriangulationError(
            f"facet already glued: tet {t} facet {f} -> tet {u}")
    inverse = INVERSE[perm.index]
    if u == t and target == f:
        # self-paired facet: the two directions coincide
        if perm.index == 0:
            raise GluingError(
                f"facet {f} of tet {t} glued to itself pointwise", (t, f))
        if perm is not inverse:
            raise TriangulationError("self-gluing must be an involution")
        return ((t, f, (u, perm)),)
    return (t, f, (u, perm)), (u, target, (t, inverse))


# ----- text format ---------------------------------------------------------


def _decimal(token):
    """The value of ``token`` if it is ASCII decimal digits, else None."""
    if token.isascii() and token.isdigit():
        return int(token)
    return None


def parse(text):
    """Parse the .tri interchange format.

    Format: a line "tri <n>", then for each tetrahedron a line
    "tet <i>: g0 g1 g2 g3" where each gj is "-" for a boundary facet or
    "<t>:<abcd>" giving the target tetrahedron and the images of vertices
    0123.  The keywords are the exact tokens "tri" and "tet", n and i are
    the only words after them, and n, i and t are ASCII decimal digits.
    '%' starts a comment.
    """
    tet_count = None
    entries = {}
    entry_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "tri":
            if tet_count is not None:
                raise ParseError("duplicate 'tri' header", lineno)
            tet_count = _decimal(words[1]) if len(words) == 2 else None
            if tet_count is None:
                raise ParseError("malformed 'tri' header", lineno)
            continue
        head, _, rest = line.partition(":")
        head = head.split()
        if not head or head[0] != "tet":
            raise ParseError(f"unrecognised line {line!r}", lineno)
        if tet_count is None:
            raise ParseError("'tet' line before 'tri' header", lineno)
        index = _decimal(head[1]) if len(head) == 2 else None
        if index is None:
            raise ParseError("malformed 'tet' line", lineno)
        if index >= tet_count:
            raise ParseError(f"tetrahedron index {index} out of range", lineno)
        if index in entries:
            raise ParseError(f"duplicate entry for tetrahedron {index}", lineno)
        tokens = rest.split()
        if len(tokens) != 4:
            raise ParseError("expected 4 facet gluings", lineno)
        row = []
        for tok in tokens:
            if tok == "-":
                row.append(None)
                continue
            target, _, code = tok.partition(":")
            t = _decimal(target)
            if t is None:
                raise ParseError(f"malformed gluing {tok!r}", lineno)
            if t >= tet_count:
                raise ParseError(f"dangling tetrahedron index {t}", lineno)
            perm = BY_CODE.get(code)
            if perm is None:
                # no code of a permutation: from_compact says why
                try:
                    perm = Perm4.from_compact(code)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            row.append((t, perm))
        entries[index] = row
        entry_lines[index] = lineno
    if tet_count is None:
        raise ParseError("missing 'tri' header")
    if len(entries) != tet_count:
        # the indices are distinct and in range, so one is missing; stop
        # at the first, whatever the count the header claims
        missing = next(i for i in range(tet_count) if i not in entries)
        raise ParseError(f"missing entry for tetrahedron {missing}")
    try:
        return Triangulation([entries[i] for i in range(tet_count)])
    except GluingError as exc:
        raise ParseError(str(exc), entry_lines[exc.slot[0]]) from None


def serialize(tri):
    """Canonical re-emission: tetrahedra ascending, facets in order."""
    lines = [f"tri {tri.tet_count}"]
    for t in range(tri.tet_count):
        parts = []
        for f in range(4):
            g = tri.gluing(t, f)
            parts.append("-" if g is None else f"{g[0]}:{g[1].compact()}")
        lines.append(f"tet {t}: " + " ".join(parts))
    return "\n".join(lines) + "\n"
