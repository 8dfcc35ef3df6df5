"""Exact integer and GF(2) linear algebra plus first homology.

Dense matrices are lists of lists of Python ints (arbitrary precision).
First homology works on sparse columns instead.  Its relations are the
face columns of d2 off a spanning tree of the dual graph: the T - 1 tree
faces' columns are integer combinations of the others, since d2 d3 = 0, so
F - T + 1 face columns are left.  Unit pivots eliminate all but a small
remainder of them, and only that remainder goes through the dense Smith
normal form (Dumas, Saunders and Villard 2001).  The GF(2) side packs
rows into int bitsets, reduces them with the one eliminator
``_gf2_reduce`` of ``triangulation`` (d2 mod 2 is the skeleton's cached
``face_echelon``, every face's row), and is computed independently of the
integer route so the two can be cross-checked.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

from .triangulation import (EDGE_INDEX, EDGE_VERTICES, FACET_VERTICES,
                            TriangulationError, _gf2_reduce, _linked)

_log = logging.getLogger(__name__)


# ----- Smith normal form ----------------------------------------------------


def smith_normal_form(matrix):
    """Diagonalise an integer matrix, a list of equal-length rows, by
    unimodular row/column operations.

    Returns (diag, rank), where diag is the list of diagonal entries
    d_1 | d_2 | ... (nonnegative, divisibility chain), one per row or
    column, whichever are fewer, and rank counts the nonzero ones.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    a = [list(r) for r in matrix]

    def row_op(i, j, q):  # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for k in range(cols):
            ai[k] -= q * aj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a pivot of least absolute value
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of later entries by the pivot
        d = a[t][t]
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % d:
                    row_op(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    diag = [abs(a[i][i]) for i in range(limit)]
    return diag, sum(1 for v in diag if v)


# ----- GF(2) -----------------------------------------------------------------


def gf2_rank(rows):
    """Rank over GF(2) of rows given as int bitsets."""
    return len(_gf2_reduce(rows))


# ----- homology --------------------------------------------------------------


class HomologyProfile(NamedTuple):
    invariant_factors: tuple   # torsion coefficients d_1 | d_2 | ..., each > 1
    betti: int
    z2_rank: int

    @property
    def order(self):
        """Order of the torsion subgroup (1 when torsion-free)."""
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __str__(self):
        parts = [f"Z^{self.betti}"] if self.betti else []
        parts += [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def require_valid_cells(tri):
    """Reject the cells the quotient CW structure cannot orient: a facet
    glued to itself, or an edge identified with itself reversed."""
    sk = tri.skeleton
    if sk.self_glued_facets:
        raise TriangulationError(
            "homology is not defined for self-identified facets")
    if sk.invalid_edges:
        raise TriangulationError(
            "homology requires all edges valid (no reversed self-gluing)")


# _FACET_TERMS[f]: the boundary of facet f as (edge, coefficient) terms,
# for its ascending vertices w the edges (w1, w2), (w0, w2) and (w0, w1)
_FACET_TERMS = tuple(((EDGE_INDEX[w[1], w[2]], 1),
                      (EDGE_INDEX[w[0], w[2]], -1),
                      (EDGE_INDEX[w[0], w[1]], 1)) for w in FACET_VERTICES)


def _edge_ends(sk):
    """Each edge class's (tail, head) vertex classes, in the class
    direction."""
    vertex_class, edge_sign = sk.vertex_class, sk.edge_sign
    ends = []
    for s in sk.edge_first:
        t, ei = divmod(s, 6)
        a, b = EDGE_VERTICES[ei]
        if edge_sign[s] < 0:
            a, b = b, a
        ends.append((vertex_class[4 * t + a], vertex_class[4 * t + b]))
    return ends


def _face_columns(sk, slots):
    """The boundary of the face class first met at each facet slot of
    ``slots``, as a dict edge class -> nonzero coefficient."""
    edge_class, edge_sign = sk.edge_class, sk.edge_sign
    faces = []
    for s in slots:
        t, f = divmod(s, 4)
        w = 6 * t
        terms = _FACET_TERMS[f]
        (i, _), (j, _), (k, _) = terms
        a, b, c = edge_class[w + i], edge_class[w + j], edge_class[w + k]
        if a != b != c != a:
            # three distinct classes: the terms' coefficients, +1, -1, +1
            faces.append({a: edge_sign[w + i], b: -edge_sign[w + j],
                          c: edge_sign[w + k]})
            continue
        col = {}
        for ei, coeff in terms:
            x = w + ei
            idx = edge_class[x]
            v = col.get(idx, 0) + coeff * edge_sign[x]
            if v:
                col[idx] = v
            else:
                del col[idx]
        faces.append(col)
    return faces


def _boundary_columns(tri):
    """The boundary maps of the quotient CW structure as sparse columns,
    with the edge/face class orientations of the skeleton: each edge
    class's (tail, head) vertex classes, and each face class's boundary as
    a dict edge class -> nonzero coefficient."""
    require_valid_cells(tri)
    sk = tri.skeleton
    return _edge_ends(sk), _face_columns(sk, sk.face_first)


def boundary_matrices(tri):
    """Integer boundary maps d1 (vertices x edges) and d2 (edges x faces)
    of the quotient CW structure, with the edge/face class orientations of
    the skeleton."""
    ends, faces = _boundary_columns(tri)
    ne, nf = len(ends), len(faces)
    d1 = [[0] * ne for _ in range(tri.skeleton.vertex_count)]
    for e, (tail, head) in enumerate(ends):
        d1[head][e] += 1
        d1[tail][e] -= 1
    d2 = [[0] * nf for _ in range(ne)]
    for j, col in enumerate(faces):
        for e, v in col.items():
            d2[e][j] = v
    return d1, d2


def _eliminate_unit_pivots(columns):
    """Sparse unit-pivot elimination of an integer relation matrix.

    ``columns`` is a list of dicts row -> nonzero int; they are consumed.
    Sweep the live columns in index order: a column holding a +-1 pivots
    at the unit whose row is held by the fewest live columns (Markowitz
    1957), ties to the least row; its row is cleared from every other
    column by column operations, and that row and column are dropped.
    Sweeps repeat until one pivots nothing, so no unit is left.  Each
    pivot is an invariant factor 1 and adds one to the rank.  Returns
    (pivots, remainder), where the remainder is the dense matrix of the
    nonzero rows and columns left, in increasing index order; its Smith
    normal form supplies the other invariant factors and the rest of the
    rank (Dumas, Saunders and Villard 2001).
    """
    cols = [col or None for col in columns]     # None once dropped
    where = {}                  # row -> live columns holding it
    for j, col in enumerate(cols):
        for i in col or ():
            where.setdefault(i, set()).add(j)
    pivots = 0
    swept = True
    while swept:
        swept = False
        for j, col in enumerate(cols):
            if col is None:
                continue
            r = None
            for i, v in col.items():
                if v == 1 or v == -1:
                    held = len(where[i])
                    if r is None or held < least or held == least and i < r:
                        r, least = i, held
            if r is None:
                continue        # the next sweep comes back if it gains one
            cols[j] = None
            for i in col:
                where[i].discard(j)
            u = col.pop(r)
            for k in where.pop(r):
                other = cols[k]
                f = other.pop(r) * u  # u is its own inverse
                for i, v in col.items():
                    fv = f * v
                    w = other.get(i)
                    if w is None:
                        other[i] = -fv
                        where[i].add(k)
                    elif w != fv:
                        other[i] = w - fv
                    else:
                        del other[i]
                        where[i].discard(k)
                if not other:
                    cols[k] = None
            pivots += 1
            swept = True
    live = [col for col in cols if col]
    rows = sorted(i for i, held in where.items() if held)
    return pivots, [[col.get(i, 0) for col in live] for i in rows]


def first_homology(tri):
    """H_1 of a closed connected triangulation, as a ``HomologyProfile``.
    ``tri`` holds it, so each table's H_1 is computed once."""
    if tri._h1 is None:
        tri._h1 = _first_homology(tri)
    return tri._h1


def _first_homology(tri):
    """The H_1 ``first_homology`` returns, worked out: over the integers by
    sparse unit-pivot elimination ahead of a dense Smith normal form of
    what is left, with the Z/2 rank recomputed independently over GF(2)
    and cross-checked.

    The relations are the face columns of d2 less those of the T - 1 faces
    of ``dual_tree``.  Since d2 d3 = 0, and a face between two distinct
    tetrahedra meets the boundary of each with coefficient +-1, peeling
    the tree's leaves writes each tree face's column as an integer
    combination of the other columns: the column span, and so H_1, is
    unchanged.  A vertex spanning tree comes from ``_linked`` at parity 0."""
    sk = tri.skeleton
    if sk.boundary_facets:
        raise TriangulationError("first_homology requires a closed triangulation")
    if not tri.is_connected:
        raise TriangulationError("first_homology requires a connected triangulation")
    require_valid_cells(tri)
    ne = sk.edge_count
    tree = set(tri.dual_tree)
    relations = _face_columns(sk, [s for s in sk.face_first if s not in tree])

    # With two vertex classes or more, kill a spanning tree of the vertex
    # graph: contracting it leaves a one-vertex complex, so H_1 is the
    # cokernel of d2 extended by unit columns for the tree edges.  The GF(2)
    # check reads the rank of d1 mod 2, zero with one vertex class.
    rank1 = 0
    if sk.vertex_count > 1:
        nv = sk.vertex_count
        # every parity is 0, so no relation conflicts, and an edge is a
        # tree edge when _linked links two roots, the least one below nv
        primal, zeros, rows1 = list(range(nv)), [0] * nv, [0] * nv
        for e, (tail, head) in enumerate(_edge_ends(sk)):
            if _linked(primal, zeros, tail, head, ((0, 0, 0),), (), nv) < nv:
                relations.append({e: 1})
            if tail != head:
                rows1[tail] |= 1 << e
                rows1[head] |= 1 << e
        rank1 = gf2_rank(rows1)
    pivots, rest = _eliminate_unit_pivots(relations)
    diag, rest_rank = smith_normal_form(rest)
    factors = tuple(d for d in diag[:rest_rank] if d > 1)
    betti = ne - pivots - rest_rank

    # independent GF(2) computation of dim H^1(M; Z/2): d2 mod 2 from the
    # skeleton's rows of every face, not from the elimination
    z2 = ne - rank1 - len(sk.face_echelon)
    expected = betti + sum(1 for d in factors if d % 2 == 0)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("first_homology: %d of %d face relations dropped on the "
                   "dual tree, %d unit pivots, %dx%d remainder; GF(2) rank "
                   "%d, integer prediction %d", len(tree), sk.face_count,
                   pivots, len(rest), len(rest[0]) if rest else 0, z2,
                   expected)
    if z2 != expected:
        raise AssertionError(
            f"GF(2) rank {z2} disagrees with invariant factors {factors}")
    return HomologyProfile(factors, betti, z2)


def seifert_homology(slopes):
    """Homology profile predicted by the abelianised fundamental group of a
    Seifert fibration over the sphere: generators x_i and h with relations
    a_i x_i + b_i h = 0 and sum x_i = 0."""
    n = len(slopes)
    rows = []
    for i, (a, b) in enumerate(slopes):
        row = [0] * (n + 1)
        row[i] = a
        row[n] = b
        rows.append(row)
    rows.append([1] * n + [0])
    diag, rank = smith_normal_form(rows)
    factors = tuple(d for d in diag[:rank] if d > 1)
    betti = (n + 1) - rank
    z2 = betti + sum(1 for d in factors if d % 2 == 0)
    return HomologyProfile(factors, betti, z2)
