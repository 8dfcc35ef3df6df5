"""Smith normal form, GF(2) kernels and first homology."""

import heapq
import json
import logging
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from trinorm import homology
from trinorm.homology import (smith_normal_form, gf2_rank, first_homology,
                              seifert_homology, boundary_matrices,
                              require_valid_cells, HomologyProfile,
                              _boundary_columns, _eliminate_unit_pivots)
from trinorm import triangulation
from trinorm.triangulation import (EDGE_INDEX, EDGE_VERTICES, FACET_EDGES,
                                   FACET_VERTICES, TriangulationError,
                                   _gf2_reduce, serialize)
from trinorm import build, cli, cocycle, verifysuite
from trinorm.analyze import MoveSpec, pachner_with_cocycle
from trinorm.cocycle import Cocycle, cocycle_basis, is_cocycle

from test_analyze import _edge_class_transport, ref_apply_move
from test_skeleton import _ReferenceUnionFind, gluing_tables, reference_glued


def test_smith_normal_form_small():
    diag, rank = smith_normal_form([[2, 4], [6, 8]])
    assert rank == 2
    assert diag[0] == 2 and diag[1] == 4 and diag[1] % diag[0] == 0

    diag, rank = smith_normal_form([[1, 0], [0, 0]])
    assert (diag[0], rank) == (1, 1)


def test_gf2_kernel():
    rows = [0b011, 0b110]
    basis = gf2_kernel_basis(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert bin(row & vec).count("1") % 2 == 0
    assert gf2_rank(rows) == 2


def test_lens_homology():
    for (p, q, w, order) in ((1, 2, 2, 4), (1, 2, 1, 5), (1, 2, 3, 1),
                             (1, 3, 3, 5), (1, 3, 1, 7)):
        tri, _, _ = build.lens_space(p, q, fold_weight=w)
        h = first_homology(tri)
        assert h.betti == 0 and h.order == order


def test_twisted_loop_homology():
    h = first_homology(build.layered_loop(4, twisted=True))
    assert h.invariant_factors == (2, 2) and h.z2_rank == 2
    h = first_homology(build.layered_loop(5, twisted=True))
    assert h.invariant_factors == (4,) and h.z2_rank == 1


def test_homology_requires_closed():
    tri, _ = build.lst(1, 2)
    with pytest.raises(TriangulationError):
        first_homology(tri)


def test_seifert_presentation_oracle():
    # quaternionic: |H1| = 4 regardless of k
    for k in (4, 6, 8):
        h = seifert_homology(((1, -1), (2, 1), (2, 1), (k, 1)))
        assert h.order == 4 and h.betti == 0
    h = seifert_homology(((1, 1), (3, 1), (3, 1), (3, 1)))
    assert h.order == 54 and h.z2_rank == 1


def test_meridian_oracle_matches_replay():
    # every torus of the fraction tree to depth 8, layered by lst_tree
    tori = 0
    for _, tri, meta in build.lst_tree(8):
        assert build.meridian_weight_oracle(tri) == meta.edge_weights
        tori += 1
    assert tori == 255
    for (p, q) in ((1, 2), (1, 5), (3, 4), (4, 7), (5, 8), (13, 34)):
        tri, meta = build.lst(p, q)
        assert build.meridian_weight_oracle(tri) == meta.edge_weights
    # layering on the sum edge twice reaches the degenerate triples
    # {1, 1, 2} and then {0, 1, 1}, whose fresh edge has weight 0
    tri, meta = build.lst(1, 2)
    for gone in (3, 2):
        tri, meta = build.layer_on_edge(tri, build.boundary_edge(meta, gone),
                                        meta)
        assert build.meridian_weight_oracle(tri) == meta.edge_weights
    assert meta.boundary_triple == (0, 1, 1)


def test_homology_invariant_under_relabelling():
    from trinorm.perm import ALL_PERMS
    from trinorm.triangulation import Triangulation
    import random
    rng = random.Random(3)
    tri, _, _ = build.lens_space(2, 5)
    h0 = first_homology(tri)
    n = tri.tet_count
    order = list(range(n))
    rng.shuffle(order)
    perms = [rng.choice(ALL_PERMS) for _ in range(n)]
    rows = [[None] * 4 for _ in range(n)]
    for t in range(n):
        for f in range(4):
            g = tri.gluing(t, f)
            if g is None:
                rows[order[t]][perms[t][f]] = None
            else:
                u, pi = g
                rows[order[t]][perms[t][f]] = (
                    order[u], perms[u] * pi * perms[t].inverse())
    h1 = first_homology(Triangulation(rows))
    assert (h0.invariant_factors, h0.betti, h0.z2_rank) == \
        (h1.invariant_factors, h1.betti, h1.z2_rank)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_smith_normal_form_properties(m, n, data):
    mat = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
    diag, rank = smith_normal_form([row[:] for row in mat])
    # divisibility chain over the nonzero entries
    nonzero = [d for d in diag if d]
    assert len(nonzero) == rank
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # rank agrees with exact rational elimination
    work = [[Fraction(x) for x in row] for row in mat]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(m):
            if i != r and work[i][col]:
                f = work[i][col] / work[r][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    assert rank == r
    # unimodular transforms preserve |det| for square matrices
    if m == n:
        det = _det(mat)
        prod = 1
        for d in diag:
            prod *= d
        assert abs(det) == prod


def _det(mat):
    n = len(mat)
    work = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        for i in range(col + 1, n):
            f = work[i][col] / work[col][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return int(det)


# ----- the two GF(2) solvers the one reduction replaced ------------------------
# Kept word for word as the oracle.


def _reference_gf2_rank(rows):
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


def _reference_gf2_kernel_basis(rows, n_cols):
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


def _assert_gf2_matches_reference(rows, n_cols):
    assert gf2_rank(rows) == _reference_gf2_rank(rows)
    basis = gf2_kernel_basis(rows, n_cols)
    assert basis == _reference_gf2_kernel_basis(rows, n_cols)
    return basis


@st.composite
def bit_matrices(draw):
    """(n_cols, rows): random rows with zero rows and repeated rows mixed
    in; the row list may be empty."""
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)),
                         max_size=10))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
        rows = draw(st.permutations(rows))
    return n, rows


@settings(max_examples=400, deadline=None)
@given(bit_matrices())
@example((0, []))
@example((4, []))
@example((4, [0, 0]))
@example((5, [0b10110, 0, 0b10110, 0b00011, 0b10101, 0b00011]))
def test_gf2_reduction_matches_reference_on_bit_matrices(case):
    n_cols, rows = case
    _assert_gf2_matches_reference(rows, n_cols)


def test_gf2_reduction_is_reduced_row_echelon_form():
    reduced = _gf2_reduce([0b0110, 0b0011, 0b1100, 0b0101])
    assert reduced == {0: 0b1001, 1: 0b1010, 2: 0b1100}
    for p, row in reduced.items():
        assert row & -row == 1 << p
        assert all(not (row >> q) & 1 for q in reduced if q != p)


def test_gf2_reduction_matches_reference_on_face_rows():
    n = 0
    for _, tri, meta in build.lst_tree(8):
        for w in (meta.p, meta.q, meta.p + meta.q):
            folded, _ = build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)
            basis = _assert_gf2_matches_reference(
                face_relation_rows(folded), folded.skeleton.edge_count)
            assert len(basis) == first_homology(folded).z2_rank
            n += 1
    tags = set()
    for tag, _, tri in verifysuite._family_grid():
        _assert_gf2_matches_reference(face_relation_rows(tri),
                                      tri.skeleton.edge_count)
        tags.add(tag)
    assert n == 3 * 255 and tags == {"M", "MPRIME", "P", "Q"}


# ----- the face-row builder and kernel reader the skeleton's echelon replaced --
# Kept word for word as the oracle: ``face_relation_rows`` built the mod-2
# face rows afresh at each call, and ``gf2_kernel_basis`` reduced them again.


def gf2_kernel_basis(rows, n_cols):
    """Deterministic basis of the right kernel of a GF(2) matrix.

    Rows are int bitsets with bit j = column j.  One basis vector per free
    column, in increasing column order: the column's own bit plus the
    pivot bit of every reduced row that holds the column.
    """
    reduced = _gf2_reduce(rows)
    basis = []
    for fc in range(n_cols):
        if fc in reduced:
            continue
        vec = 1 << fc
        for pc, row in reduced.items():
            if (row >> fc) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def face_relation_rows(tri):
    """One GF(2) row per face class, d2 mod 2: bit e set iff edge class e
    appears an odd number of times among the face's three edges."""
    edge_class = tri.skeleton.edge_class
    rows = []
    for s in tri.skeleton.face_first:
        t, f = divmod(s, 4)
        w = 6 * t
        a, b, c = FACET_EDGES[f]
        rows.append((1 << edge_class[w + a]) ^ (1 << edge_class[w + b])
                    ^ (1 << edge_class[w + c]))
    return rows


def _bits_of(vec, n):
    return tuple((vec >> e) & 1 for e in range(n))


def _assert_face_echelon_matches_reference(tri, vectors=()):
    """The skeleton's face rows and echelon against the builder above and
    the two reference solvers; its cocycle basis against both kernel
    readers when the triangulation is closed with one vertex; and
    ``is_cocycle`` on every single-edge vector and on ``vectors`` against
    membership in the reference kernel.  Returns the reference kernel."""
    sk = tri.skeleton
    ne = sk.edge_count
    rows = face_relation_rows(tri)
    assert sk.face_rows == rows
    echelon = sk.face_echelon
    assert echelon == _gf2_reduce(rows)
    # a reduced row echelon form of the right rank inside the row space:
    # there is only one
    rank = _reference_gf2_rank(rows)
    assert len(echelon) == rank
    assert _reference_gf2_rank(rows + list(echelon.values())) == rank
    for p, row in echelon.items():
        assert row & -row == 1 << p
        assert all(not (row >> q) & 1 for q in echelon if q != p)
    kernel = _reference_gf2_kernel_basis(rows, ne)
    if tri.is_closed and sk.vertex_count == 1:
        assert gf2_kernel_basis(rows, ne) == kernel
        assert cocycle_basis(tri) == [Cocycle(_bits_of(vec, ne))
                                      for vec in kernel]
    for vec in [1 << e for e in range(ne)] + list(vectors):
        in_kernel = _reference_gf2_rank(kernel + [vec]) == len(kernel)
        assert is_cocycle(tri, _bits_of(vec, ne)) == in_kernel
    return kernel


def test_face_echelon_matches_reference_on_lens_and_family_grids():
    bases = 0
    for _, _, tri in chain(verifysuite._lens_grid(6),
                           verifysuite._family_grid()):
        kernel = _assert_face_echelon_matches_reference(tri)
        # every sum of basis vectors is a cocycle too
        sums = [0]
        for vec in kernel:
            sums += [v ^ vec for v in sums]
        ne = tri.skeleton.edge_count
        assert all(is_cocycle(tri, _bits_of(v, ne)) for v in sums)
        bases += len(kernel)
    # dim H^1(M; Z/2) summed: 63 on the 189 folds to depth 6 (one for each
    # even lens space), 95 on the 61 members of the M, M', P and Q grids
    assert bases == 63 + 95


@settings(max_examples=300, deadline=None)
@given(st.one_of(gluing_tables(), gluing_tables(kinds=("pair",))),
       st.integers(0, (1 << 24) - 1))
def test_face_echelon_matches_reference_on_random_tables(tri, vec):
    vec &= (1 << tri.skeleton.edge_count) - 1
    _assert_face_echelon_matches_reference(tri, (vec,))


def test_analyze_reduces_the_face_rows_once(tmp_path, monkeypatch, capsys):
    # one analyze of a one-vertex input: one reduction of the face rows,
    # shared by the cross-check and the cocycle basis, and none of d1 mod
    # 2, which is zero
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return _gf2_reduce(rows)
    monkeypatch.setattr(triangulation, "_gf2_reduce", counted)
    monkeypatch.setattr(homology, "_gf2_reduce", counted)
    tri = build.layered_loop(6, twisted=True)
    assert tri.skeleton.vertex_count == 1
    path = tmp_path / "loop.tri"
    path.write_text(serialize(tri))
    assert cli.main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["classes"]
    assert calls == [2 * tri.tet_count]


# ----- the list propagation the bitset transport replaced ---------------------
# Kept as the oracle, with the imports it made inside the function moved
# to this module; it makes its move by the reference tables and maps the
# edge classes by the reference surgery's transport, so it never reads
# the edge-slot map of ``analyze._retriangulate``.


def _reference_pachner_with_cocycle(tri, phi, move: MoveSpec):
    """Apply a move and transport the colouring to the result.

    Surviving edge classes keep their bits; the value on a newly created
    edge is forced by any face relation containing it.
    """
    new_tri, new_index, base, surgery = ref_apply_move(tri, move)
    mapping = _edge_class_transport(tri, new_tri, new_index, base, surgery)
    ne = new_tri.skeleton.edge_count
    bits = [None] * ne
    for old, new in mapping.items():
        val = phi[old]
        if bits[new] is not None and bits[new] != val:
            raise AssertionError("cocycle transport conflict")
        bits[new] = val
    rows = face_relation_rows(new_tri)
    changed = True
    while changed and any(b is None for b in bits):
        changed = False
        for row in rows:
            unknown = [e for e in range(ne) if (row >> e) & 1 and bits[e] is None]
            if len(unknown) == 1:
                s = 0
                for e in range(ne):
                    if (row >> e) & 1 and e != unknown[0]:
                        s ^= bits[e]
                bits[unknown[0]] = s
                changed = True
    if any(b is None for b in bits):
        raise AssertionError("cocycle transport left undetermined edges")
    new_phi = Cocycle(tuple(bits))
    if not is_cocycle(new_tri, new_phi.bits):
        raise AssertionError("transported colouring is not a cocycle")
    return new_tri, new_phi


TRANSPORT_STARTS = [
    (tri, phi)
    for tri in (build.layered_loop(6, twisted=True),
                build.layered_loop(8, twisted=True),
                build.lens_space(1, 6)[0], build.lens_space(1, 8)[0],
                build.seifert_family("M", 1, 1, 1)[0],
                build.seifert_family("MPRIME", 1, 1, 1)[0],
                build.seifert_family("P", 1)[0])
    for phi in cocycle.all_nonzero_classes(tri)]


def _star_sites(tri, degree):
    """Edge classes of the given degree on that many distinct
    tetrahedra."""
    return [e for e, slots in enumerate(tri.skeleton.edge_slots())
            if len(slots) == degree and len({x // 6 for x in slots}) == degree]


def _transport_chain(tri, phi, steps):
    """Follow (kind, choice) steps, comparing each transported colouring
    with the reference: kind "44" or "32" makes that move on an edge with
    distinct tetrahedra around it when there is one, and a 2-3 move
    otherwise.  Returns the number of moves made of each kind."""
    made = {"23": 0, "32": 0, "44": 0}
    for kind, choice in steps:
        sites = _star_sites(tri, 4 if kind == "44" else 3)
        if kind != "23" and sites:
            move = MoveSpec(kind, edge=sites[choice % len(sites)],
                            axis=choice // len(sites) % 2)
        else:
            faces = verifysuite._interior_faces(tri)
            move = MoveSpec("23", face=faces[choice % len(faces)])
        got = pachner_with_cocycle(tri, phi, move)
        assert got == _reference_pachner_with_cocycle(tri, phi, move)
        tri, phi = got
        made[move.kind] += 1
    return made


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TRANSPORT_STARTS),
       st.lists(st.tuples(st.sampled_from(("23", "32", "44")),
                          st.integers(0, 10 ** 6)),
                min_size=1, max_size=5))
def test_transport_matches_list_propagation_on_move_chains(start, steps):
    _transport_chain(*start, steps)


def test_transport_matches_list_propagation_on_seeded_chains():
    rng = random.Random(5)
    made = {"23": 0, "32": 0, "44": 0}
    for i in range(120):
        tri, phi = TRANSPORT_STARTS[i % len(TRANSPORT_STARTS)]
        steps = [(rng.choice(("23", "32", "44")), rng.randrange(10 ** 6))
                 for _ in range(6)]
        for kind, n in _transport_chain(tri, phi, steps).items():
            made[kind] += n
    assert made["23"] >= 150 and made["32"] >= 100 and made["44"] >= 100


# ----- the dense route the sparse elimination replaced ------------------------
# Kept word for word as the oracle, with the dense boundary maps it read.


def _reference_boundary_matrices(tri):
    """Integer boundary maps d1 (vertices x edges) and d2 (edges x faces)
    of the quotient CW structure, with the edge/face class orientations of
    the skeleton."""
    require_valid_cells(tri)
    sk = tri.skeleton
    nv, ne, nf = sk.vertex_count, sk.edge_count, sk.face_count
    d1 = [[0] * ne for _ in range(nv)]
    for c, x in enumerate(sk.edge_first):
        t, ei = divmod(x, 6)
        a, b = EDGE_VERTICES[ei]
        if sk.edge_sign[x] < 0:
            a, b = b, a
        d1[sk.vertex_class[4 * t + b]][c] += 1
        d1[sk.vertex_class[4 * t + a]][c] -= 1
    d2 = [[0] * nf for _ in range(ne)]
    for c, x in enumerate(sk.face_first):
        t, f = divmod(x, 4)
        w = FACET_VERTICES[f]
        for coeff, (x, y) in ((1, (w[1], w[2])), (-1, (w[0], w[2])), (1, (w[0], w[1]))):
            s = 6 * t + EDGE_INDEX[x, y]
            d2[sk.edge_class[s]][c] += coeff * sk.edge_sign[s]
    return d1, d2


def _reference_first_homology(tri):
    """H_1 over the integers via Smith normal form, with the Z/2 rank
    recomputed independently over GF(2) and cross-checked."""
    if not tri.is_closed:
        raise TriangulationError("first_homology requires a closed triangulation")
    if not tri.is_connected:
        raise TriangulationError("first_homology requires a connected triangulation")
    d1, d2 = _reference_boundary_matrices(tri)
    sk = tri.skeleton
    ne = sk.edge_count

    # Kill a spanning tree of the vertex graph: contracting it leaves a
    # one-vertex complex, so H_1 is the cokernel of d2 extended by unit
    # columns for the tree edges.
    tree = _ReferenceUnionFind(sk.vertex_count)
    extra = []
    for c, x in enumerate(sk.edge_first):
        t, ei = divmod(x, 6)
        a, b = EDGE_VERTICES[ei]
        va = sk.vertex_class[4 * t + a]
        vb = sk.vertex_class[4 * t + b]
        if tree.find(va)[0] != tree.find(vb)[0]:
            tree.union(va, vb, 0)
            col = [0] * ne
            col[c] = 1
            extra.append(col)

    cols = len(d2[0]) if d2 else 0
    mat = [row[:] + [extra[k][i] for k in range(len(extra))]
           for i, row in enumerate(d2)] if ne else []
    diag, rank = smith_normal_form(mat)
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
    z2 = ne - _reference_gf2_rank(rows1) - _reference_gf2_rank(rows2t)
    expected = betti + sum(1 for d in factors if d % 2 == 0)
    if z2 != expected:
        raise AssertionError(
            f"GF(2) rank {z2} disagrees with invariant factors {factors}")
    return HomologyProfile(factors, betti, z2)


def _dense_profile(tri, faces):
    """(invariant factors, betti) from the dense Smith normal form of the
    reference d2's columns for the face classes ``faces``, with a unit
    column for each edge of a spanning tree of the vertex graph."""
    sk = tri.skeleton
    d1, d2 = _reference_boundary_matrices(tri)
    tree = _ReferenceUnionFind(sk.vertex_count)
    units = []
    for e in range(sk.edge_count):
        ends = [v for v, row in enumerate(d1) if row[e]]
        if len(ends) == 2 and tree.find(ends[0])[0] != tree.find(ends[1])[0]:
            tree.union(*ends, 0)
            units.append(e)
    mat = [[row[c] for c in faces] + [int(e == u) for u in units]
           for e, row in enumerate(d2)]
    diag, rank = smith_normal_form(mat)
    return tuple(d for d in diag[:rank] if d > 1), sk.edge_count - rank


def _dual_tree_faces(tri):
    """The face classes of ``tri.dual_tree``, after checking that it is a
    spanning tree of the dual graph: T - 1 faces, each the lower slot of a
    gluing between two distinct tetrahedra, joining every tetrahedron."""
    sk = tri.skeleton
    tree = tri.dual_tree
    assert len(tree) == tri.tet_count - 1
    parts = _ReferenceUnionFind(tri.tet_count)
    for x in tree:
        t, f = divmod(x, 4)
        u, perm = tri.gluing(t, f)
        assert u != t and x < 4 * u + perm[f]
        assert parts.find(t)[0] != parts.find(u)[0]
        parts.union(t, u, 0)
    tree = set(tree)
    return [c for c, x in enumerate(sk.face_first) if x in tree]


def _assert_matches_reference(tri):
    """The sparse route against the dense one, and the relations it keeps
    against the full d2: dropping the dual tree's faces leaves the
    cokernel as it is."""
    assert boundary_matrices(tri) == _reference_boundary_matrices(tri)
    got, want = first_homology(tri), _reference_first_homology(tri)
    assert (got.invariant_factors, got.betti, got.z2_rank) == \
        (want.invariant_factors, want.betti, want.z2_rank)
    dropped = _dual_tree_faces(tri)
    kept = [c for c in range(tri.skeleton.face_count) if c not in dropped]
    assert _dense_profile(tri, kept) == \
        _dense_profile(tri, range(tri.skeleton.face_count)) == \
        (got.invariant_factors, got.betti)
    return got


def test_sparse_route_matches_reference_on_fraction_tree_folds():
    n = 0
    for _, tri, meta in build.lst_tree(8):
        for w in (meta.p, meta.q, meta.p + meta.q):
            folded, _ = build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)
            _assert_matches_reference(folded)
            n += 1
    assert n == 3 * 255


def test_sparse_route_matches_reference_on_family_grids():
    tags = set()
    for tag, _, tri in verifysuite._family_grid():
        _assert_matches_reference(tri)
        tags.add(tag)
    assert tags == {"M", "MPRIME", "P", "Q"}


def test_sparse_route_matches_reference_on_layered_loops():
    groups = set()
    for n in range(3, 11):
        for twisted in (False, True):
            groups.add(str(_assert_matches_reference(
                build.layered_loop(n, twisted))))
    # the twisted loops give Z/4 and Z/2 + Z/2, the untwisted ones Z/n
    assert {"Z/4", "Z/2 + Z/2", "Z/3", "Z/10"} <= groups


def test_sparse_route_matches_reference_on_long_lens_paths():
    rng = random.Random(7)
    sizes = []
    for depth in (20, 40, 60, 90, 120, 150):
        p, q = 1, 2
        for _ in range(depth - 1):
            p, q = (p, p + q) if rng.random() < 0.5 else (q, p + q)
        tri, _, record = build.lens_space(p, q)
        h = _assert_matches_reference(tri)
        assert h.order == record.lens_a and h.betti == 0
        sizes.append(tri.tet_count)
    assert max(sizes) >= 150


def _homology_cells_ok(tri):
    if not (tri.is_closed and tri.is_connected):
        return False
    try:
        require_valid_cells(tri)
    except TriangulationError:
        return False
    return True


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(gluing_tables())
def test_sparse_route_matches_reference_on_random_tables(tri):
    assume(_homology_cells_ok(tri))
    _assert_matches_reference(tri)


def _self_glued_across_two_facets(tri):
    return any(g is not None and g[0] == t and g[1][f] != f
               for t, row in enumerate(tri.gluings)
               for f, g in enumerate(row))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(gluing_tables(kinds=("pair",)))
def test_dual_tree_drop_matches_reference_on_closed_tables(tri):
    # closed tables of one to six tetrahedra: several vertex classes,
    # non-orientable gluings and tetrahedra glued to themselves across two
    # facets all occur (the seeded test below counts them)
    assume(_homology_cells_ok(tri))
    _assert_matches_reference(tri)


def test_seeded_closed_tables_match_reference():
    # random perfect pairings of the facets of one to six tetrahedra, so
    # larger closed tables occur than the filtered strategy above reaches
    from trinorm.perm import ALL_PERMS
    rng = random.Random(11)
    kept = {}
    for _ in range(3000):
        n = rng.randint(1, 6)
        slots = [(t, f) for t in range(n) for f in range(4)]
        rng.shuffle(slots)
        tri = reference_glued((), [
            (t, f, u, rng.choice([p for p in ALL_PERMS if p[f] == g]))
            for (t, f), (u, g) in zip(slots[::2], slots[1::2])], n)
        if _homology_cells_ok(tri):
            _assert_matches_reference(tri)
            kept[n] = kept.get(n, 0) + 1
            for kind, has in (
                    ("vertices", tri.skeleton.vertex_count > 1),
                    ("non-orientable", not tri.is_orientable),
                    ("self-glued", _self_glued_across_two_facets(tri))):
                kept[kind] = kept.get(kind, 0) + has
    sizes = [kept[n] for n in range(1, 7)]
    assert all(sizes) and sum(sizes) > 500
    assert all(kept[kind] >= 20 for kind in (
        "vertices", "non-orientable", "self-glued"))


@st.composite
def relation_matrices(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.sampled_from((-1, 0, 1)), st.integers(-9, 9))
    return m, n, [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(relation_matrices())
def test_elimination_and_remainder_match_dense_snf(case):
    m, n, mat = case
    columns = [{i: mat[i][j] for i in range(m) if mat[i][j]}
               for j in range(n)]
    pivots, rest = _eliminate_unit_pivots(columns)
    width = len(rest[0]) if rest else 0
    # elimination runs until no unit is left, and keeps only what matters
    assert all(v not in (1, -1) for row in rest for v in row)
    assert all(any(row) for row in rest)
    assert all(any(row[j] for row in rest) for j in range(width))
    diag_r, rank_r = smith_normal_form(rest)
    diag, rank = smith_normal_form([row[:] for row in mat])
    assert pivots + rank_r == rank
    assert tuple(d for d in diag_r[:rank_r] if d > 1) == \
        tuple(d for d in diag[:rank] if d > 1)


def test_elimination_sweeps_at_the_unit_of_fewest_holders():
    # column 0's row 1 is held by no other column, so it beats row 0:
    # nothing is cleared from column 1, which is left as the remainder (2)
    assert _eliminate_unit_pivots([{0: 1, 1: 1}, {0: 2}]) == (1, [[2]])
    # rows 0 and 1 are each held by both columns: the tie goes to row 0,
    # whichever comes first in the column, and clearing it leaves 5 - 3 at
    # row 1 (row 1 would leave 3 - 5)
    assert _eliminate_unit_pivots([{1: 1, 0: 1}, {0: 3, 1: 5}]) == \
        (1, [[2]])
    # column 0 has no unit when the first sweep passes it; clearing row 0
    # of column 1's pivot leaves it 3 - 2 at row 1, for the next sweep
    assert _eliminate_unit_pivots([{0: 2, 1: 3}, {0: 1, 1: 1}]) == (2, [])


class _CountedColumn(dict):
    writes = 0

    def __setitem__(self, key, value):
        _CountedColumn.writes += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("n", [200, 400])
def test_elimination_fills_in_linearly_on_twisted_loops(n):
    # no timing: the entries written into the face columns stay linear in
    # the tetrahedron count, where a quadratic rule writes about 1.5 n^2
    columns = _boundary_columns(build.layered_loop(n, True))[1]
    _CountedColumn.writes = 0
    _eliminate_unit_pivots([_CountedColumn(col) for col in columns])
    assert _CountedColumn.writes <= 8 * n


def _remainder_entries(monkeypatch, tri):
    """(first_homology(tri), the entries of the dense remainders it
    passed to the Smith normal form)."""
    entries = []
    dense = homology.smith_normal_form

    def counted(matrix):
        entries.append(len(matrix) * (len(matrix[0]) if matrix else 0))
        return dense(matrix)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    return first_homology(tri), sum(entries)


def test_long_lens_space_leaves_a_tiny_remainder(monkeypatch):
    h, entries = _remainder_entries(monkeypatch, build.lens_space(1, 400)[0])
    assert h.invariant_factors == (402,) and h.betti == 0
    assert entries <= 2


def test_long_twisted_loop_leaves_a_tiny_remainder(monkeypatch):
    # with every face relation kept the remainder was 2 x 801
    h, entries = _remainder_entries(monkeypatch, build.layered_loop(800, True))
    assert h.invariant_factors == (2, 2) and h.betti == 0
    assert entries <= 4


def test_the_eliminator_gets_the_relations_off_the_dual_tree(monkeypatch):
    # F - T + 1 face columns, each that of a face class off the dual tree,
    # in face order, then V - 1 unit columns for the primal spanning tree
    seen = []
    real = homology._eliminate_unit_pivots

    def spied(columns):
        seen.append([dict(col) for col in columns])
        return real(columns)

    monkeypatch.setattr(homology, "_eliminate_unit_pivots", spied)
    grid = [build.layered_loop(n, twisted) for n in (3, 7, 10)
            for twisted in (False, True)]
    grid += [tri for _, _, tri in verifysuite._family_grid(quick=True)]
    grid.append(build.lens_space(3, 11)[0])
    vertex_counts = set()
    for tri in grid:
        sk = tri.skeleton
        seen.clear()
        # the computation itself: a family member holds the H_1 its
        # constructor checked
        homology._first_homology(tri)
        (columns,) = seen
        dropped = set(_dual_tree_faces(tri))
        faces = [col for c, col in enumerate(_boundary_columns(tri)[1])
                 if c not in dropped]
        assert len(faces) == sk.face_count - tri.tet_count + 1
        assert columns[:len(faces)] == faces
        units = columns[len(faces):]
        assert len(units) == sk.vertex_count - 1
        assert all(len(col) == 1 and 1 in col.values() for col in units)
        vertex_counts.add(sk.vertex_count)
    assert vertex_counts == {1, 2}


def test_first_homology_logs_its_cross_check(caplog):
    tri, _, _ = build.lens_space(1, 8)
    with caplog.at_level(logging.DEBUG, logger="trinorm.homology"):
        first_homology(tri)
    records = [r for r in caplog.records if r.name == "trinorm.homology"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    assert f"{tri.tet_count - 1} of {2 * tri.tet_count} face relations " \
        "dropped on the dual tree" in records[0].getMessage()
    assert "unit pivots" in records[0].getMessage()
    assert "1x1 remainder" in records[0].getMessage()
    assert "GF(2) rank 1, integer prediction 1" in records[0].getMessage()


def test_trinorm_logger_is_silent_by_default():
    handlers = logging.getLogger("trinorm").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


# ----- the elimination's shortest-column rule before the sweep ---------------
# Kept word for word as an oracle: another pivot order leaves another
# remainder, but the same rank and the same invariant factors.


def _reference_eliminate_unit_pivots(columns):
    cols = {j: col for j, col in enumerate(columns) if col}
    where = {}                  # row -> live columns holding it
    for j, col in cols.items():
        for i in col:
            where.setdefault(i, set()).add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        size, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != size:
            continue            # stale: the column was dropped or changed
        r = min((i for i, v in col.items() if v == 1 or v == -1), default=None)
        if r is None:
            continue            # pushed again if an update gives it a unit
        del cols[j]
        for i in col:
            where[i].discard(j)
        u = col.pop(r)
        for k in where.pop(r):
            other = cols[k]
            f = other.pop(r) * u  # u is its own inverse
            for i, v in col.items():
                w = other.get(i, 0) - f * v
                if w:
                    other[i] = w
                    where[i].add(k)
                else:
                    del other[i]
                    where[i].discard(k)
            if other:
                heapq.heappush(heap, (len(other), k))
            else:
                del cols[k]
        pivots += 1
    live = sorted(cols)
    rows = sorted(i for i, held in where.items() if held)
    return pivots, [[cols[j].get(i, 0) for j in live] for i in rows]


def _rank_and_factors(pivots, rest):
    diag, rank = smith_normal_form(rest)
    return pivots + rank, tuple(d for d in diag[:rank] if d > 1)


def _same_elimination(columns):
    # the sweep against the shortest-column rule and against the dense SNF
    # of the whole matrix
    got = _rank_and_factors(*_eliminate_unit_pivots([dict(c) for c in columns]))
    assert got == _rank_and_factors(
        *_reference_eliminate_unit_pivots([dict(c) for c in columns]))
    rows = sorted(set(chain.from_iterable(columns)))
    dense = [[c.get(i, 0) for c in columns] for i in rows]
    assert got == _rank_and_factors(0, dense)


@settings(max_examples=300, deadline=None)
@given(relation_matrices())
def test_elimination_matches_reference_rank_and_factors(case):
    m, n, mat = case
    _same_elimination([{i: mat[i][j] for i in range(m) if mat[i][j]}
                       for j in range(n)])


def test_boundary_columns_match_reference_on_fold_and_family_grids():
    # the per-facet term table against the per-term edge slot loop,
    # and the face columns through both eliminations
    folds = [folded for _, _, folded in verifysuite._lens_grid(10)]
    family = [tri for _, _, tri in verifysuite._family_grid()]
    for tri in folds + family:
        assert boundary_matrices(tri) == _reference_boundary_matrices(tri)
        _same_elimination(_boundary_columns(tri)[1])
    assert len(folds) == 3069

