"""Exact integer and GF(2) linear algebra plus first homology.

Matrices are lists of lists of Python ints (arbitrary precision), small
enough here that a dense Smith normal form is the right tool.  The GF(2)
side packs rows into int bitsets and is computed independently of the
integer route so the two can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .triangulation import (EDGE_VERTICES, FACET_VERTICES,
                            TriangulationError, _UnionFind)


# ----- Smith normal form ----------------------------------------------------


def smith_normal_form(matrix, rows=None, cols=None, want_row_transform=False):
    """Diagonalise an integer matrix by unimodular row/column operations.

    Returns (diag, rank) or (diag, rank, U) where diag is the list of
    diagonal entries d_1 | d_2 | ... (nonnegative, divisibility chain) and
    U is the accumulated row transform with U @ A @ V = D.
    """
    if rows is None:
        rows = len(matrix)
        cols = len(matrix[0]) if matrix else 0
    a = [list(r) for r in matrix]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] \
        if want_row_transform else None

    def row_op(i, j, q):  # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for k in range(cols):
            ai[k] -= q * aj[k]
        if u is not None:
            ui, uj = u[i], u[j]
            for k in range(rows):
                ui[k] -= q * uj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

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
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
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
    diag = []
    rank = 0
    for i in range(limit):
        v = abs(a[i][i])
        if u is not None and a[i][i] < 0:
            for k in range(rows):
                u[i][k] = -u[i][k]
        diag.append(v)
        if v:
            rank += 1
    if want_row_transform:
        return diag, rank, u
    return diag, rank


# ----- GF(2) -----------------------------------------------------------------


def gf2_rank(rows):
    """Rank over GF(2) of rows given as int bitsets."""
    basis = []
    rank = 0
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def gf2_kernel_basis(rows, n_cols):
    """Deterministic basis of the right kernel of a GF(2) matrix.

    Rows are int bitsets with bit j = column j.  Elimination pivots on
    columns in increasing order; one basis vector per free column.
    """
    work = [r for r in rows if r]
    pivot_of_col = {}
    used = set()
    for col in range(n_cols):
        pivot_row = None
        for i, r in enumerate(work):
            if i not in used and (r >> col) & 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        for i in range(len(work)):
            if i != pivot_row and (work[i] >> col) & 1:
                work[i] ^= work[pivot_row]
        pivot_of_col[col] = pivot_row
        used.add(pivot_row)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_of_col:
            continue
        vec = 1 << fc
        for pc, rowi in pivot_of_col.items():
            if (work[rowi] >> fc) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


# ----- homology --------------------------------------------------------------


@dataclass(frozen=True)
class HomologyProfile:
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
    for fc in sk.face_classes:
        if fc.self_glued:
            raise TriangulationError(
                "homology is not defined for self-identified facets")
    for ec in sk.edge_classes:
        if not ec.valid:
            raise TriangulationError(
                "homology requires all edges valid (no reversed self-gluing)")


def boundary_matrices(tri):
    """Integer boundary maps d1 (vertices x edges) and d2 (edges x faces)
    of the quotient CW structure, with the edge/face class orientations of
    the skeleton."""
    require_valid_cells(tri)
    sk = tri.skeleton
    nv, ne, nf = sk.vertex_count, sk.edge_count, sk.face_count
    d1 = [[0] * ne for _ in range(nv)]
    for ec in sk.edge_classes:
        t, ei = ec.slots[0]
        a, b = EDGE_VERTICES[ei]
        if ec.signs[0] < 0:
            a, b = b, a
        d1[sk.vertex_lookup[(t, b)][0]][ec.index] += 1
        d1[sk.vertex_lookup[(t, a)][0]][ec.index] -= 1
    d2 = [[0] * nf for _ in range(ne)]
    for fc in sk.face_classes:
        t, f = fc.slots[0]
        w = FACET_VERTICES[f]
        for coeff, (x, y) in ((1, (w[1], w[2])), (-1, (w[0], w[2])), (1, (w[0], w[1]))):
            idx, sign = tri.skeleton.edge_class_of(t, x, y)
            d2[idx][fc.index] += coeff * sign
    return d1, d2


def first_homology(tri):
    """H_1 over the integers via Smith normal form, with the Z/2 rank
    recomputed independently over GF(2) and cross-checked."""
    if not tri.is_closed:
        raise TriangulationError("first_homology requires a closed triangulation")
    if not tri.is_connected:
        raise TriangulationError("first_homology requires a connected triangulation")
    d1, d2 = boundary_matrices(tri)
    sk = tri.skeleton
    ne = sk.edge_count

    # Kill a spanning tree of the vertex graph: contracting it leaves a
    # one-vertex complex, so H_1 is the cokernel of d2 extended by unit
    # columns for the tree edges.
    tree = _UnionFind(sk.vertex_count)
    extra = []
    for ec in sk.edge_classes:
        t, ei = ec.slots[0]
        a, b = EDGE_VERTICES[ei]
        va = sk.vertex_lookup[(t, a)][0]
        vb = sk.vertex_lookup[(t, b)][0]
        if tree.find(va)[0] != tree.find(vb)[0]:
            tree.union(va, vb, 0)
            col = [0] * ne
            col[ec.index] = 1
            extra.append(col)

    cols = len(d2[0]) if d2 else 0
    mat = [row[:] + [extra[k][i] for k in range(len(extra))]
           for i, row in enumerate(d2)] if ne else []
    diag, rank = smith_normal_form(mat, ne, cols + len(extra))
    factors = tuple(d for d in diag[:rank] if d > 1)
    betti = ne - rank

    # independent GF(2) computation of dim H^1(M; Z/2)
    rows1 = []
    for r in d1:
        bits = 0
        for j, v in enumerate(r):
            if v % 2:
                bits |= 1 << j
        rows1.append(bits)
    rows2t = []
    for j in range(cols):
        bits = 0
        for i in range(ne):
            if d2[i][j] % 2:
                bits |= 1 << i
        rows2t.append(bits)
    z2 = ne - gf2_rank(rows1) - gf2_rank(rows2t)
    expected = betti + sum(1 for d in factors if d % 2 == 0)
    if z2 != expected:
        raise AssertionError(
            f"GF(2) rank {z2} disagrees with invariant factors {factors}")
    return HomologyProfile(factors, betti, z2)


def h1_coordinates(tri):
    """For a bounded complex with one vertex and free H_1 of rank one,
    return the integer H_1 class of every edge class.

    Used as the independent meridian-weight oracle for layered solid tori:
    the weight of an edge is the absolute value of its class in
    H_1(solid torus) = Z.
    """
    sk = tri.skeleton
    if sk.vertex_count != 1:
        raise TriangulationError("h1 coordinates require a one-vertex complex")
    _, d2 = boundary_matrices(tri)
    ne = sk.edge_count
    diag, rank, u = smith_normal_form(d2, ne, sk.face_count,
                                      want_row_transform=True)
    free = [i for i in range(ne) if i >= rank]
    torsion = [i for i in range(rank) if diag[i] > 1]
    if len(free) != 1 or torsion:
        raise TriangulationError("H_1 is not infinite cyclic")
    row = u[free[0]]
    return [row[e] for e in range(ne)]


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
    diag, rank = smith_normal_form(rows, n + 1, n + 1)
    factors = tuple(d for d in diag[:rank] if d > 1)
    betti = (n + 1) - rank
    z2 = betti + sum(1 for d in factors if d % 2 == 0)
    return HomologyProfile(factors, betti, z2)
