"""The one-pass, table-driven skeleton against the two-sided loop it
replaced, kept here word for word as the reference, on the one-union-a-call
union-find it used, also kept here word for word; the skeletons resumed
from a parent's slot forest against the full pass and the reference;
``_linked``, the one parity union-find, against a graph search; and
``reference_glued``, the tests' own assembler, which builds the tables the
other test modules read without going through ``Triangulation.glued``."""

import functools
import pickle
import weakref

from hypothesis import given, settings, strategies as st

from trinorm import build, verifysuite
from trinorm.perm import ALL_PERMS, Perm4
from trinorm.triangulation import (EDGE_INDEX, EDGE_VERTICES, FACET_EDGES,
                                   FACET_VERTICES, Triangulation, _join,
                                   _linked)


# ----- the reference: every facet visited from both sides --------------------


class _ReferenceUnionFind:
    """Union-find with a Z/2 weight on each node, used to track whether a
    slot's orientation agrees with its class representative."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.parity = [0] * n
        self.conflict = set()

    def find(self, x):
        parent = self.parent
        root = parent[x]
        if parent[root] == root:
            # x is a root or a child of one; a root's parity is 0
            return root, self.parity[x]
        path = [x]
        while parent[root] != root:
            path.append(root)
            root = parent[root]
        # path compression, rewriting each node's parity relative to root
        parity = self.parity
        acc = 0
        for node in reversed(path):
            acc ^= parity[node]
            parent[node] = root
            parity[node] = acc
        return root, acc

    def flatten(self):
        """Point every node straight at its root; returns the parent and
        parity lists, each parity now relative to the node's root."""
        parent = self.parent
        for x in range(len(parent)):
            if parent[parent[x]] != parent[x]:
                self.find(x)
        return parent, self.parity

    def union(self, x, y, rel):
        parent, parity = self.parent, self.parity
        # find() inlined for the common case of a node at most one step
        # below its root
        rx = parent[x]
        if parent[rx] == rx:
            px = parity[x]
        else:
            rx, px = self.find(x)
        ry = parent[y]
        if parent[ry] == ry:
            py = parity[y]
        else:
            ry, py = self.find(y)
        if rx == ry:
            if (px ^ py) != rel:
                self.conflict.add(rx)
            return
        parent[ry] = rx
        parity[ry] = px ^ rel ^ py
        if ry in self.conflict:
            self.conflict.discard(ry)
            self.conflict.add(rx)


def _face_sign(perm, facet):
    """Orientation sign of the triangle map induced by a facet gluing: the
    parity of the permutation taking the ascending vertex triple of the
    source facet to the ascending triple of the target facet."""
    src = FACET_VERTICES[facet]
    img = [perm[v] for v in src]
    s = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if img[i] > img[j]:
                s = -s
    return s


def _reference_skeleton(self):
    n = self.tet_count
    vert_uf = _ReferenceUnionFind(4 * n)
    edge_uf = _ReferenceUnionFind(6 * n)
    face_uf = _ReferenceUnionFind(4 * n)

    for t in range(n):
        for f in range(4):
            g = self._gluings[t][f]
            if g is None:
                continue
            u, perm = g
            face_uf.union(4 * t + f, 4 * u + perm[f],
                          0 if _face_sign(perm, f) > 0 else 1)
            for v in FACET_VERTICES[f]:
                vert_uf.union(4 * t + v, 4 * u + perm[v], 0)
            for ei in FACET_EDGES[f]:
                a, b = EDGE_VERTICES[ei]
                ia, ib = perm[a], perm[b]
                flip = 1 if ia > ib else 0
                edge_uf.union(6 * t + ei, 6 * u + EDGE_INDEX[(ia, ib)], flip)

    def collect(uf, total, decode):
        roots = {}
        classes = []
        lookup = {}
        for slot in range(total):
            root, parity = uf.find(slot)
            if root not in roots:
                roots[root] = len(classes)
                classes.append([])
            idx = roots[root]
            classes[idx].append((decode(slot), parity))
            lookup[decode(slot)] = (idx, 1 if parity == 0 else -1)
        return roots, classes, lookup

    vroots, vclasses, vlookup = collect(vert_uf, 4 * n, lambda s: (s // 4, s % 4))
    eroots, eclasses, elookup = collect(edge_uf, 6 * n, lambda s: (s // 6, s % 6))
    froots, fclasses, flookup = collect(face_uf, 4 * n, lambda s: (s // 4, s % 4))

    bad_edges = {eroots[r] for r in edge_uf.conflict}

    boundary_faces = set()
    self_glued = set()
    for t in range(n):
        for f in range(4):
            g = self._gluings[t][f]
            idx = flookup[(t, f)][0]
            if g is None:
                boundary_faces.add(idx)
            elif g[0] == t and g[1][f] == f:
                self_glued.add(idx)

    edge_classes = []
    for i, members in enumerate(eclasses):
        slots = tuple(m[0] for m in members)
        signs = tuple(1 if m[1] == 0 else -1 for m in members)
        on_boundary = False
        for (t, ei), _ in members:
            a, b = EDGE_VERTICES[ei]
            for f in range(4):
                if f != a and f != b and self._gluings[t][f] is None:
                    on_boundary = True
        edge_classes.append((i, slots, signs, on_boundary,
                             i not in bad_edges))

    face_classes = []
    for i, members in enumerate(fclasses):
        slots = tuple(m[0] for m in members)
        signs = tuple(1 if m[1] == 0 else -1 for m in members)
        face_classes.append((i, slots, signs,
                             i in boundary_faces, i in self_glued))

    vertex_classes = tuple(tuple(m[0] for m in members) for members in vclasses)
    return (vertex_classes, tuple(edge_classes), tuple(face_classes),
            vlookup, elookup, flookup)


def _reference_numbering(ref):
    """The classes of a finished reference union-find: flatten, number
    each root's class at its first slot, and a sign per slot from its
    parity to its root."""
    parent, parity = ref.flatten()
    of_root = dict.fromkeys(parent)
    for c, root in enumerate(of_root):
        of_root[root] = c
    return ([of_root[r] for r in parent],
            [parent.index(r) for r in of_root],
            [1 - 2 * p for p in parity],
            frozenset(of_root[r] for r in ref.conflict))


def _reference_edge_numbering(tri):
    """The edge classes as the skeleton numbered them with a parity
    union-find run after its gluing pass: one reference union per gluing,
    read from its lower facet slot, the lower side's root kept, then
    numbered by ``_reference_numbering``."""
    n = tri.tet_count
    ref = _ReferenceUnionFind(6 * n)
    for t in range(n):
        for f in range(4):
            g = tri.gluing(t, f)
            if g is None or 4 * g[0] + g[1][f] < 4 * t + f:
                continue
            u, perm = g
            for ei in FACET_EDGES[f]:
                a, b = EDGE_VERTICES[ei]
                ref.union(6 * t + ei, 6 * u + EDGE_INDEX[(perm[a], perm[b])],
                          1 if perm[a] > perm[b] else 0)
    return _reference_numbering(ref)


def _assert_matches_reference(tri):
    (vertex_classes, edge_classes, face_classes,
     vlookup, elookup, _) = _reference_skeleton(tri)
    sk = tri.skeleton
    # each edge slot's class, first slot and sign (the kept root's
    # direction), and the invalid classes, as a reference union-find
    # leaves them
    assert (sk.edge_class, sk.edge_first, sk.edge_sign,
            sk.invalid_edges) == _reference_edge_numbering(tri)
    # each slot's (class, sign) in the flat lists; a vertex slot's sign is
    # always +1, as every vertex gluing relates its slots with parity 0
    assert {divmod(x, 4): (c, 1)
            for x, c in enumerate(sk.vertex_class)} == vlookup
    assert {divmod(x, 6): (c, s) for x, (c, s)
            in enumerate(zip(sk.edge_class, sk.edge_sign))} == elookup
    # each vertex class's first slot, read off the slot lists, where the
    # classes must be numbered at their first slots
    vertex_first = {}
    for x, c in enumerate(sk.vertex_class):
        vertex_first.setdefault(c, x)
    assert list(vertex_first) == list(range(len(vertex_first)))
    # the eager counts, first slots, degrees and flags; a class is
    # (index, slots, signs, boundary, valid or self-glued)
    edge_slots = [slots for _, slots, *_ in edge_classes]
    face_slots = [slots for _, slots, *_ in face_classes]
    for first, count, classes, width in (
            (list(vertex_first.values()), sk.vertex_count, vertex_classes, 4),
            (sk.edge_first, sk.edge_count, edge_slots, 6),
            (sk.face_first, sk.face_count, face_slots, 4)):
        assert count == len(classes)
        assert first == [width * t + i for (t, i), *_ in classes]
    assert sk.edge_degrees == [len(slots) for slots in edge_slots]
    assert sk.invalid_edges == {
        i for i, _, _, _, valid in edge_classes if not valid}
    assert sk.boundary_edges == {
        i for i, _, _, on_boundary, _ in edge_classes if on_boundary}
    assert sk.boundary_facets == sorted(
        4 * t + f for _, slots, _, boundary, _ in face_classes if boundary
        for t, f in slots)
    assert sk.self_glued_facets == sorted(
        4 * t + f for _, slots, _, _, glued in face_classes if glued
        for t, f in slots)
    # each edge class's slots, grouped from the lists
    assert sk.edge_slots() == [[6 * t + ei for t, ei in slots]
                               for slots in edge_slots]


# ----- the grids ----------------------------------------------------------------


def test_fraction_tree_and_folds_match_reference():
    n = 0
    for _, tri, meta in build.lst_tree(10):
        _assert_matches_reference(tri)
        for w in (meta.p, meta.q, meta.p + meta.q):
            folded, _ = build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)
            _assert_matches_reference(folded)
            n += 1
    assert n == 3 * 1023


def test_deep_inputs_match_reference():
    # long chains of unions: paths the finds must halve and compress
    for tri in (build.lens_space(1, 400)[0], build.layered_loop(200, True),
                build.seifert_family("M", 20, 20, 20)[0]):
        _assert_matches_reference(tri)


def test_seifert_family_grids_match_reference():
    tags = set()
    for tag, _, tri in verifysuite._family_grid():
        _assert_matches_reference(tri)
        tags.add(tag)
    assert tags == {"M", "MPRIME", "P", "Q"}


# ----- the reference assembler ----------------------------------------------------


def reference_glued(rows, joins, new_tets=0):
    """The tests' own assembler, which ``Triangulation.glued`` is held to
    and which builds the tables other oracles read: the table ``rows``
    copied into lists, ``new_tets`` free tetrahedra appended, each join
    written by ``_join``, the one join rule, and the whole table then
    checked by ``Triangulation(rows)``."""
    rows = [list(row) for row in rows]
    rows += ([None] * 4 for _ in range(new_tets))
    for join in joins:
        for t, f, entry in _join(rows, *join):
            rows[t][f] = entry
    return Triangulation(rows)


# ----- random valid gluing tables ------------------------------------------------


def _reflections(f):
    """The permutations that glue facet ``f`` to itself: they fix its
    opposite vertex and swap two of the other three."""
    return [p for p in ALL_PERMS
            if p[f] == f and p.index != 0 and (p * p).index == 0]


@st.composite
def gluing_tables(draw, kinds=("pair", "pair", "pair", "boundary", "self")):
    """A random involutive facet pairing on one to six tetrahedra: facets
    are left on the boundary, glued to themselves by a reflection, or
    paired with another facet by any permutation carrying one to the
    other, so orientable and non-orientable tables both occur.  Each facet
    takes a kind drawn from ``kinds``; with only "pair" the table is
    closed."""
    n = draw(st.integers(1, 6))
    slots = draw(st.permutations([(t, f) for t in range(n) for f in range(4)]))
    joins = []
    i = 0
    while i < len(slots):
        t, f = slots[i]
        kind = draw(st.sampled_from(kinds))
        if kind == "pair" and i + 1 < len(slots):
            u, g = slots[i + 1]
            perm = draw(st.sampled_from([p for p in ALL_PERMS if p[f] == g]))
            joins.append((t, f, u, perm))
            i += 2
            continue
        if kind == "self":
            joins.append((t, f, t, draw(st.sampled_from(_reflections(f)))))
        i += 1
    return reference_glued((), joins, n)


@settings(max_examples=300, deadline=None)
@given(gluing_tables())
def test_random_gluing_tables_match_reference(tri):
    _assert_matches_reference(tri)


@st.composite
def glued_onto_tables(draw):
    """(parent, joins, new_tets): a table of ``gluing_tables``, and either
    joins among its free facets and those of one new tetrahedron, or one
    join of two of its free facets or of one free facet to itself.  When
    the parent has a free facet after its last glued lower slot, half the
    single joins glue the first such facet to itself by a reflection, on
    the parent with its skeleton built, so that the resumed pass meets
    an edge that the join makes invalid."""
    # drawn before the table: drawn after it, the choice came out False in
    # about two thirds of the examples, not half
    build_first = draw(st.booleans())
    tri = draw(gluing_tables())
    if build_first:
        # build the parent's skeleton first, or leave the child to
        tri.skeleton
    new_tets = draw(st.integers(0, 1))
    n = tri.tet_count + new_tets
    free = [(t, f) for t in range(n) for f in range(4)
            if t >= tri.tet_count or tri.gluing(t, f) is None]
    free = draw(st.permutations(free))
    joins = []
    if new_tets:
        pairs = draw(st.integers(0, len(free) // 2))
        for i in range(pairs):
            (t, f), (u, g) = free[2 * i], free[2 * i + 1]
            perm = draw(st.sampled_from([p for p in ALL_PERMS if p[f] == g]))
            joins.append((t, f, u, perm))
    elif free:
        last = _last_glued_lower_slot(tri)
        late = [(t, f) for t, f in free if 4 * t + f > last]
        if late and draw(st.booleans()):
            # read on from the parent's forest, a reflection makes the
            # edge it reverses invalid, unless it already was
            tri.skeleton
            t, f = late[0]
            perm = draw(st.sampled_from(_reflections(f)))
            return tri, ((t, f, t, perm),), 0
        t, f = free[0]
        if len(free) > 1 and draw(st.booleans()):
            u, g = free[1]
            perm = draw(st.sampled_from([p for p in ALL_PERMS if p[f] == g]))
        else:
            u = t
            perm = draw(st.sampled_from(_reflections(f)))
        joins.append((t, f, u, perm))
    return tri, tuple(joins), new_tets


SKELETON_FIELDS = ("vertex_class", "edge_class", "edge_sign", "edge_first",
                   "invalid_edges", "face_first", "boundary_facets",
                   "self_glued_facets", "vertex_count", "edge_count",
                   "face_count")


def _assert_matches_full_pass(tri):
    full = Triangulation(tri.gluings).skeleton
    sk = tri.skeleton
    for name in SKELETON_FIELDS:
        assert getattr(sk, name) == getattr(full, name), name


@settings(max_examples=400, deadline=None)
@given(glued_onto_tables())
def test_glued_tables_match_the_full_pass(case):
    parent, joins, new_tets = case
    child = parent.glued(joins, new_tets)
    _assert_matches_full_pass(child)
    _assert_matches_reference(child)


def _last_glued_lower_slot(tri):
    """The last lower facet slot of a gluing in ``tri``, or -1, read off the
    table."""
    return max((4 * t + f for t, row in enumerate(tri.gluings)
                for f, g in enumerate(row)
                if g is not None and 4 * g[0] + g[1][f] >= 4 * t + f),
               default=-1)


@st.composite
def glued_chains(draw):
    """(tri, steps): a table of ``gluing_tables`` with its skeleton built,
    and one to five ``glued`` steps (joins, new_tets) to make on it in
    turn.  A step adds up to two free tetrahedra and makes up to three
    joins, of two free facets or of one free facet to itself.  Half the
    steps draw each join's first facet from the free facets of the table
    before the step after its last glued lower slot, and its second from
    the free facets after that slot, so the step can read on from the
    table's skeleton; the others draw both from every free facet."""
    # drawn before the table: drawn after the variable-length draws, the
    # choice came out True in about a third of the steps, not half
    reads_on = [draw(st.booleans()) for _ in range(draw(st.integers(1, 5)))]
    tri = draw(gluing_tables())
    tri.skeleton
    # the tables the steps make, planned on a copy that builds no skeleton
    plan = Triangulation(tri.gluings)
    steps = []
    for read_on in reads_on:
        n = plan.tet_count
        new_tets = draw(st.integers(0, 2))
        free = [4 * t + f for t in range(n + new_tets) for f in range(4)
                if t >= n or plan.gluing(t, f) is None]
        if read_on:
            last = _last_glued_lower_slot(plan)
            firsts = [x for x in free if last < x < 4 * n]
            seconds = [x for x in free if x > last]
        else:
            firsts = seconds = free
        joins, used = [], set()
        for _ in range(draw(st.integers(0, 3))):
            x = draw(st.sampled_from([None] + firsts))
            if x is None or x in used:
                break
            used.add(x)
            y = draw(st.sampled_from([x] + [z for z in seconds
                                            if z not in used]))
            used.add(y)
            t, f, u, g = x >> 2, x & 3, y >> 2, y & 3
            perms = (_reflections(f) if y == x
                     else [p for p in ALL_PERMS if p[f] == g])
            joins.append((t, f, u, draw(st.sampled_from(perms))))
        steps.append((tuple(joins), new_tets))
        plan = plan.glued(joins, new_tets)
    return tri, steps


@settings(max_examples=200, deadline=None)
@given(glued_chains())
def test_chains_of_glued_steps_match_the_full_pass(case):
    # a step may read on from a forest that earlier steps resumed, with
    # their halved paths, merges and flipped kept bits
    tri, steps = case
    for joins, new_tets in steps:
        tri = tri.glued(joins, new_tets)
        _assert_matches_full_pass(tri)
        _assert_matches_reference(tri)


def test_glued_chains_reach_three_resumed_steps_in_a_row():
    # and layers that merge two old classes or make an invalid edge, which
    # read on from the parent's forest like any other
    longest, seen = 0, set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(glued_chains())
    def scan(case):
        nonlocal longest
        tri, steps = case
        run = 0
        for joins, new_tets in steps:
            parent, tri = tri, tri.glued(joins, new_tets)
            if "skeleton" not in tri.__dict__:
                run = 0
                tri.skeleton
                continue
            run += 1
            longest = max(longest, run)
            if new_tets:
                seen.update(_resumed_cases(parent.skeleton, tri.skeleton,
                                           parent.tet_count))

    scan()
    assert longest >= 3
    assert seen == {"merge of two old classes resumed",
                    "invalid edge resumed"}


def _old_classes(sk, n_old):
    """The vertex and edge classes among the first ``n_old`` tetrahedra's
    slots."""
    return (len(set(sk.vertex_class[:4 * n_old])),
            len(set(sk.edge_class[:6 * n_old])))


def _resumed_cases(old, sk, n_old):
    """What a pass resumed from ``old``, the skeleton of the first
    ``n_old`` tetrahedra, did to give ``sk``: merge two old classes, make
    an invalid edge."""
    cases = set()
    if _old_classes(sk, n_old) != (old.vertex_count, old.edge_count):
        cases.add("merge of two old classes resumed")
    if len(sk.invalid_edges) > len(old.invalid_edges):
        cases.add("invalid edge resumed")
    return cases


def test_glued_tables_reach_every_resumed_case_and_the_full_pass():
    # the strategy above must reach a resumed layer and fold, a resumed
    # step that merges two old classes or makes an invalid edge, and a join
    # before the parent's last glued lower slot, which the full pass serves
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(glued_onto_tables())
    def scan(case):
        parent, joins, new_tets = case
        child = parent.glued(joins, new_tets)
        if "skeleton" not in parent.__dict__:
            return
        kind = "layer" if new_tets else "fold"
        if "skeleton" not in child.__dict__:
            last = parent.skeleton._last
            if any(min(4 * t + f, 4 * u + perm[f]) <= last
                   for t, f, u, perm in joins):
                seen.add("join before the last glued lower slot")
            return
        seen.add((kind, "resumed"))
        seen.update(_resumed_cases(parent.skeleton, child.skeleton,
                                   parent.tet_count))

    scan()
    assert seen == {("layer", "resumed"), ("fold", "resumed"),
                    "merge of two old classes resumed",
                    "invalid edge resumed",
                    "join before the last glued lower slot"}


def test_random_tables_reach_every_kind_of_gluing():
    # the strategy above must produce what the oracle is meant to cover
    seen = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(gluing_tables())
    def scan(tri):
        sk = tri.skeleton
        if sk.boundary_facets:
            seen.add("boundary")
        if sk.self_glued_facets:
            seen.add("self_glued")
        if not tri.is_orientable:
            seen.add("non_orientable")
        if not tri.is_valid:
            seen.add("invalid_edge")

    scan()
    assert seen == {"boundary", "self_glued", "non_orientable", "invalid_edge"}


# ----- skeletons resumed from the parent's ------------------------------------


def _full_passes(monkeypatch):
    """A list that records each table the full pass runs on: a skeleton
    that ``glued`` resumed is cached before it is asked for, so only the
    full pass reaches the property."""
    runs = []
    full = Triangulation.__dict__["skeleton"].func

    def counted(self):
        runs.append(self.gluings)
        return full(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(Triangulation, "skeleton")
    monkeypatch.setattr(Triangulation, "skeleton", prop)
    return runs


def _chain(tri, meta, layers):
    """The table and meta after ``layers`` chained ``layer_on_edge`` calls
    from ``tri``, each on the edge of weight q; only the last table is
    held."""
    for _ in range(layers):
        tri, meta = build.layer_on_edge(
            tri, build.boundary_edge(meta, meta.q), meta)
    return tri, meta


def test_tree_nodes_and_folds_are_amended_exactly(monkeypatch):
    runs = _full_passes(monkeypatch)
    n = 0
    for _, tri, meta in build.lst_tree(10):
        _assert_matches_full_pass(tri)
        for w in (meta.p, meta.q, meta.p + meta.q):
            folded, _ = build.fold_along_edge(
                tri, build.boundary_edge(meta, w), meta)
            _assert_matches_full_pass(folded)
            n += 1
    assert n == 3 * 1023
    # the full pass ran only for the references
    assert len(runs) == 1023 + n


def test_tree_walk_runs_no_full_pass(monkeypatch):
    runs = _full_passes(monkeypatch)
    nodes = 0
    for _, tri, _ in build.lst_tree(8):
        tri.skeleton
        nodes += 1
    assert (nodes, runs) == (2 ** 8 - 1, [])


def test_a_layer_and_a_fold_on_a_built_parent_are_amended_as_glued():
    parent, meta = _chain(*build._SEED, 3)
    assert "skeleton" in parent.__dict__
    layered, _ = build.layer_on_edge(
        parent, build.boundary_edge(meta, meta.p), meta)
    folded, _ = build.fold_along_edge(
        parent, build.boundary_edge(meta, meta.p + meta.q), meta)
    for child in (layered, folded):
        assert "skeleton" in child.__dict__
        _assert_matches_full_pass(child)


def test_a_chain_lets_go_of_the_tables_before_its_tip():
    middle, meta = _chain(*build._SEED, 100)
    tip, _ = _chain(middle, meta, 100)
    middle = weakref.ref(middle)
    assert middle() is None
    assert tip.tet_count == 201


def test_the_tip_of_a_long_chain_pickles():
    tip, _ = _chain(*build._SEED, 2000)
    loaded = pickle.loads(pickle.dumps(tip))
    assert loaded == tip
    for name in SKELETON_FIELDS:
        assert getattr(loaded.skeleton, name) == getattr(tip.skeleton, name)


def _free_tet():
    return reference_glued((), (), 1)


def test_a_join_before_the_last_glued_lower_slot_gets_the_full_pass(
        monkeypatch):
    # facet 2 of tet 0 is glued to its facet 3, and facet 0 is joined next
    parent = reference_glued((), ((0, 2, 0, Perm4((0, 1, 3, 2))),), 1)
    assert parent.skeleton._last == 2
    runs = _full_passes(monkeypatch)
    child = parent.glued(((0, 0, 1, Perm4((3, 0, 1, 2))),), 1)
    _assert_matches_full_pass(child)
    assert len(runs) == 2


def test_a_layer_that_merges_two_vertex_classes_is_resumed(monkeypatch):
    # new vertex 0 is glued to old vertex 1 across facet 0, and to old
    # vertex 0 across facet 1
    parent = _free_tet()
    parent.skeleton
    joins = ((0, 0, 1, Perm4((3, 0, 1, 2))), (0, 1, 1, Perm4((0, 2, 1, 3))))
    runs = _full_passes(monkeypatch)
    child = parent.glued(joins, 1)
    assert "skeleton" in child.__dict__
    assert runs == []
    assert _old_classes(child.skeleton, 1)[0] < parent.skeleton.vertex_count
    _assert_matches_full_pass(child)
    _assert_matches_reference(child)


def test_a_layer_that_makes_an_invalid_edge_is_resumed(monkeypatch):
    # the new tetrahedron's edge (0, 1) is glued to old edge (2, 3) both
    # ways round, across facets 3 and 2
    parent = _free_tet()
    parent.skeleton
    joins = ((0, 0, 1, Perm4((3, 2, 0, 1))), (0, 1, 1, Perm4((3, 2, 1, 0))))
    runs = _full_passes(monkeypatch)
    child = parent.glued(joins, 1)
    assert "skeleton" in child.__dict__
    assert runs == []
    assert not child.is_valid
    _assert_matches_full_pass(child)
    _assert_matches_reference(child)


def test_a_fold_that_makes_an_invalid_edge_is_amended(monkeypatch):
    # resumed, as any fold on the free facets of a built parent
    # facets 0 and 1 share the edge (2, 3), glued to itself reversed
    parent = _free_tet()
    parent.skeleton
    runs = _full_passes(monkeypatch)
    child = parent.glued(((0, 0, 0, Perm4((1, 0, 3, 2))),))
    assert not child.is_valid
    assert runs == []
    _assert_matches_full_pass(child)


def test_a_long_chain_of_layers_runs_no_full_pass(monkeypatch):
    runs = _full_passes(monkeypatch)
    tip, _ = _chain(*build._SEED, 5000)
    sk = tip.skeleton
    assert (sk.edge_count, runs) == (5003, [])
    _assert_matches_full_pass(tip)


# ----- the parity union-find -------------------------------------------------------


def _root(parent, parity, x):
    """The root of x in a forest that ``_linked`` left, and x's parity to
    it: a root's own parity slot holds its kept bit, which is not read."""
    p = 0
    while parent[x] != x:
        p ^= parity[x]
        x = parent[x]
    return x, p


def _relation_cases(size):
    """(n, relations): up to ``size`` parity relations among n slots."""
    return st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1),
                                       st.integers(0, 1)), max_size=size)))


@settings(max_examples=200, deadline=None)
@given(_relation_cases(20))
def test_linked_matches_graph_search(case):
    n, relations = case
    parent, parity, conflicts = list(range(n)), [0] * n, []
    low = _linked(parent, parity, 0, 0, relations, conflicts, n)
    # graph search: a parity label per node, and which components hold an
    # odd cycle
    adjacent = [[] for _ in range(n)]
    for x, y, rel in relations:
        adjacent[x].append((y, rel))
        adjacent[y].append((x, rel))
    label, component, odd = {}, {}, set()
    for start in range(n):
        if start in label:
            continue
        label[start], component[start] = 0, start
        stack = [start]
        while stack:
            x = stack.pop()
            for y, rel in adjacent[x]:
                if y not in label:
                    label[y], component[y] = label[x] ^ rel, start
                    stack.append(y)
                elif label[y] != label[x] ^ rel:
                    odd.add(start)
    found = [_root(parent, parity, x) for x in range(n)]
    for x in range(n):
        root, p = found[x]
        assert component[root] == component[x]
        # every root is the least slot of its class
        assert root == min(y for y in range(n)
                           if component[y] == component[x])
        if component[x] not in odd:
            # with an odd cycle the parities are not determined
            assert p == label[x] ^ label[root]
    # a conflict recorded at detection may since have been linked under
    # another root: a final find puts it in its class
    assert {component[_root(parent, parity, r)[0]] for r in conflicts} \
        == odd
    roots = {r for r, _ in found}
    assert len(roots) == len(set(component.values()))
    # a root's parity slot holds its kept bit: the parity to it of the
    # root that a union keeping x's root, the reference's, leaves
    ref = _ReferenceUnionFind(n)
    for x, y, rel in relations:
        ref.union(x, y, rel)
    for x in range(n):
        if component[x] not in odd:
            assert parity[found[x][0]] == found[ref.find(x)[0]][1]
    # low is the least root linked or given another kept bit: y's root at
    # each relation that joins two classes, the lesser root being kept
    # whichever side it is on; every slot below it is as it was
    classes, least = list(range(n)), n
    for x, y, _ in relations:
        a, b = classes[x], classes[y]
        if a != b:
            least = min(least, b)
            classes = [min(a, b) if c in (a, b) else c for c in classes]
    assert low == least
    assert parent[:low] == list(range(low)) and parity[:low] == [0] * low


@settings(max_examples=200, deadline=None)
@given(_relation_cases(30), st.integers(0, 30), st.integers(-12, 12),
       st.integers(-12, 12))
def test_linked_in_two_calls_leaves_the_one_call_forest(case, split, x0, y0):
    # relations split over two calls, the second read at slot offsets,
    # leave every parent, parity, conflict and low where one call leaves
    # them
    n, relations = case
    one = list(range(n)), [0] * n, []
    one_low = _linked(*one[:2], 0, 0, relations, one[2], n)
    two = list(range(n)), [0] * n, []
    head, tail = relations[:split], relations[split:]
    two_low = _linked(*two[:2], 0, 0, head, two[2], n)
    two_low = _linked(*two[:2], x0, y0,
                      [(x - x0, y - y0, rel) for x, y, rel in tail],
                      two[2], two_low)
    assert (two, two_low) == (one, one_low)
