"""Face-gluing data structure, file format and canonical forms."""

import copy
import functools
import logging
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from trinorm.perm import Perm4, ALL_PERMS
from trinorm.triangulation import (GluingError, Triangulation,
                                   TriangulationError, ParseError, parse,
                                   serialize)
from trinorm import analyze, build, verifysuite
from test_skeleton import gluing_tables


def test_perm_composition_and_inverse():
    for a in ALL_PERMS:
        assert (a * a.inverse()).images == (0, 1, 2, 3)
        assert a.inverse().inverse() == a
    a = Perm4((1, 2, 3, 0))
    b = Perm4((0, 1, 3, 2))
    assert (a * b).images == tuple(a[b[i]] for i in range(4))
    assert Perm4((1, 0, 2, 3)).sign() == -1
    assert Perm4((1, 2, 0, 3)).sign() == 1


def test_perm_tables_match_direct_computation():
    assert len(ALL_PERMS) == 24
    assert [p.index for p in ALL_PERMS] == list(range(24))
    assert [p.images for p in ALL_PERMS] == sorted(p.images for p in ALL_PERMS)
    assert ALL_PERMS[0].images == (0, 1, 2, 3)
    assert sum(p.images == (0, 1, 2, 3) for p in ALL_PERMS) == 1
    for a in ALL_PERMS:
        for b in ALL_PERMS:
            assert (a * b).images == tuple(a.images[b.images[i]]
                                           for i in range(4))
        inverse = [0] * 4
        for i, image in enumerate(a.images):
            inverse[image] = i
        assert a.inverse().images == tuple(inverse)
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if a.images[i] > a.images[j])
        assert a.sign() == (-1) ** inversions


def test_perms_are_interned():
    for p in ALL_PERMS:
        assert Perm4(p.images) is p
        assert Perm4(list(p.images)) is p
        assert Perm4.from_compact(p.compact()) is p
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        assert pickle.loads(pickle.dumps(p)) is p
    with pytest.raises(AttributeError):
        ALL_PERMS[3].index = 0
    for bad in ((0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 4), (1, 2, 3, 4),
                ("0", 1, 2, 3), ([0], 1, 2, 3)):
        with pytest.raises(ValueError):
            Perm4(bad)


_I, _S = Perm4((0, 1, 2, 3)), Perm4((1, 0, 2, 3))


def _raised(action):
    """(type, message, slot) of the error ``action`` raises; slot is None
    for an error without one."""
    with pytest.raises(ValueError) as err:
        action()
    return type(err.value), str(err.value), getattr(err.value, "slot", None)


def test_from_map_errors_are_pinned():
    cases = [({0: 0, 1: 1, 2: 2}, "incomplete vertex map {0: 0, 1: 1, 2: 2}"),
             ({0: 0, 1: 1, 2: 2, 4: 3},
              "incomplete vertex map {0: 0, 1: 1, 2: 2, 4: 3}"),
             ({0: 1, 1: 1, 2: 2, 3: 3},
              "not a permutation of 0..3: (1, 1, 2, 3)"),
             ({0: 1, 1: 2, 2: 3, 3: 4},
              "not a permutation of 0..3: (1, 2, 3, 4)")]
    for mapping, message in cases:
        assert _raised(lambda: Perm4.from_map(mapping)) == \
            (ValueError, message, None)


def test_join_errors_are_pinned():
    def glue(*joins):
        return lambda: Triangulation(()).glued(joins, 2)

    already = "facet already glued: tet 0 facet {} -> tet 1"
    cases = [
        # the facet itself, then the facet it would land on, already taken
        (glue((0, 3, 1, _I), (0, 3, 1, _S)), already.format(3)),
        (glue((0, 3, 1, _I), (0, 2, 1, Perm4((0, 1, 3, 2)))),
         already.format(2)),
        # a facet paired with itself by a three-cycle
        (glue((0, 3, 0, Perm4((1, 2, 0, 3)))),
         "self-gluing must be an involution"),
    ]
    for action, message in cases:
        assert _raised(action) == (TriangulationError, message, None)
    # a reflection pairs a facet with itself; both sides are one entry
    tri = Triangulation(()).glued(((0, 3, 0, _S),), 1)
    assert tri.gluings == ((None, None, None, (0, _S)),)


def test_triangulation_errors_are_pinned():
    free = [None] * 4
    cases = [
        ([free, [None] * 3], TriangulationError,
         "tetrahedron 1 needs 4 facet entries", None),
        ([[None, None, (5, _I), None]], TriangulationError,
         "dangling tetrahedron index 5 at tet 0 facet 2", None),
        ([[None, (0, _I), None, None]], GluingError,
         "facet 1 of tet 0 glued to itself pointwise", (0, 1)),
        # the far side free, glued elsewhere, or by the wrong permutation
        ([[(1, _I), None, None, None], free], GluingError,
         "non-involutive gluing at tet 0 facet 0", (0, 0)),
        ([[(1, _I), None, None, None], [(0, _I), (0, _I), None, None]],
         GluingError, "non-involutive gluing at tet 1 facet 1", (1, 1)),
        ([[(1, _S), None, None, None], [(0, _I), None, None, None]],
         GluingError, "non-involutive gluing at tet 0 facet 0", (0, 0)),
        # slots are checked in order: tet 0's last facet before tet 1
        ([[None, None, None, (1, _I)], [(9, _I), None, None, None]],
         GluingError, "non-involutive gluing at tet 0 facet 3", (0, 3)),
    ]
    for rows, kind, message, slot in cases:
        assert _raised(lambda: Triangulation(rows)) == (kind, message, slot)


def test_single_tet_unglued_is_valid():
    tri = Triangulation([[None] * 4])
    assert tri.tet_count == 1
    assert not tri.is_closed
    sk = tri.skeleton
    assert (sk.vertex_count, sk.edge_count, sk.face_count) == (4, 6, 4)


def test_one_tet_lst_skeleton():
    tri, meta = build.lst(1, 2)
    sk = tri.skeleton
    assert (sk.vertex_count, sk.edge_count, sk.face_count) == (1, 3, 3)
    assert sorted(sk.edge_degrees) == [1, 2, 3]


def test_degree_sum_is_six_tet_count():
    for tri in (build.lst(2, 5)[0], build.lens_space(1, 6)[0],
                build.layered_loop(5, twisted=True)):
        assert sum(tri.skeleton.edge_degrees) == 6 * tri.tet_count


def test_parse_round_trip():
    tri, _ = build.lst(3, 4)
    text = serialize(tri)
    again = parse(text)
    assert again == tri
    assert serialize(again) == text


def test_parse_comments_and_whitespace():
    text = "% header\n tri 1 \n% mid\ntet 0:  -  - - -\n"
    assert parse(text).tet_count == 1


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("tri 1\ntet 0: 0:1223 - - -")
    assert err.value.line == 2 and "permutation" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse("tri 1\ntet 0: 3:1230 - - -")
    assert err.value.line == 2 and "dangling" in str(err.value)

    # gluing listed on one side only
    with pytest.raises(ParseError) as err:
        parse("tri 2\ntet 0: 1:0123 - - -\ntet 1: - - - -")
    assert "non-involutive" in str(err.value)
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse("tri 1\ntet 0: 0:0123 - - -")
    assert "itself" in str(err.value)


def test_missing_and_duplicate_entries():
    with pytest.raises(ParseError):
        parse("tri 2\ntet 0: - - - -")
    with pytest.raises(ParseError):
        parse("tri 1\ntet 0: - - - -\ntet 0: - - - -")


def _reference_from_compact(text):
    """``Perm4.from_compact`` as it built each permutation digit by digit."""
    if len(text) != 4 or not text.isdigit():
        raise ValueError(f"malformed permutation {text!r}")
    return Perm4(tuple(int(c) for c in text))


def _reference_parse(text):
    """``parse`` as it read the keywords by prefix and numbers by ``int``
    and built each gluing's permutation from its digits: the oracle of
    the code-table parse on text inside the grammar."""
    tet_count = None
    entries = {}
    entry_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line.startswith("tri"):
            if tet_count is not None:
                raise ParseError("duplicate 'tri' header", lineno)
            try:
                tet_count = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError("malformed 'tri' header", lineno) from None
            if tet_count < 0:
                raise ParseError("negative tetrahedron count", lineno)
            continue
        if not line.startswith("tet"):
            raise ParseError(f"unrecognised line {line!r}", lineno)
        if tet_count is None:
            raise ParseError("'tet' line before 'tri' header", lineno)
        head, _, rest = line.partition(":")
        try:
            index = int(head.split()[1])
        except (IndexError, ValueError):
            raise ParseError("malformed 'tet' line", lineno) from None
        if not 0 <= index < tet_count:
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
            target, _, permtext = tok.partition(":")
            try:
                t = int(target)
            except ValueError:
                raise ParseError(f"malformed gluing {tok!r}", lineno) from None
            if not 0 <= t < tet_count:
                raise ParseError(f"dangling tetrahedron index {t}", lineno)
            try:
                perm = _reference_from_compact(permtext)
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


def _parsed(parser, text):
    """What ``parser`` makes of text: the triangulation, or the text and
    line of its ParseError."""
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.line


@functools.cache
def _serialised_inputs():
    """The .tri text of every fold of the depth-7 lens grid, the family
    grid and the layered loops of 3 to 12 tetrahedra of both kinds."""
    tris = [folded for _, _, folded in verifysuite._lens_grid(7)]
    tris += [tri for _, _, tri in verifysuite._family_grid()]
    tris += [build.layered_loop(n, twisted) for n in range(3, 13)
             for twisted in (False, True)]
    return tuple(serialize(tri) for tri in tris)


def test_code_table_parse_matches_reference():
    for text in _serialised_inputs():
        tri = parse(text)
        assert tri == _reference_parse(text)
        assert serialize(tri) == text


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ValueError as exc:
        return str(exc)


def test_from_compact_matches_reference():
    codes = [p.compact() for p in ALL_PERMS]
    codes += ["0012", "1234", "0000", "3210 ", "012", "01234", "", "abcd"]
    for code in codes:
        assert _outcome(Perm4.from_compact, code) == \
            _outcome(_reference_from_compact, code)
    for p in ALL_PERMS:
        assert p.compact() == "%d%d%d%d" % p.images
    # digits outside ASCII: int() read the second as the identity
    for code in ("01²3", "٠١٢٣"):
        assert _outcome(Perm4.from_compact, code) == \
            f"malformed permutation {code!r}"
    assert _reference_from_compact("٠١٢٣") is ALL_PERMS[0]


# gluing codes inside the grammar: every permutation, two strings of four
# digits that are none, and codes of three and five digits
_CODES = st.one_of(st.sampled_from([p.compact() for p in ALL_PERMS]),
                   st.sampled_from(["0012", "1234"]),
                   st.text("0123456789", min_size=3, max_size=3),
                   st.text("0123456789", min_size=5, max_size=5))


@st.composite
def _mutated_texts(draw):
    """A serialised input with gluing codes and targets replaced and lines
    removed, repeated or added, all inside the grammar."""
    lines = draw(st.sampled_from(_serialised_inputs()[::7])).splitlines()
    n = len(lines) - 1
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        action = draw(st.sampled_from(("code", "code", "target", "drop",
                                       "repeat", "add")))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif action == "add":
            extra = draw(st.sampled_from(
                [f"tri {n}", f"tet {n}: - - - -", "% a comment", "",
                 f"tet {draw(st.integers(0, n))}: 0:0123 - - -"]))
            lines.insert(draw(st.integers(0, len(lines))), extra)
        elif line.startswith("tet"):
            head, _, rest = line.partition(": ")
            tokens = rest.split()
            j = draw(st.integers(0, 3))
            if tokens[j] != "-":
                target, _, code = tokens[j].partition(":")
                if action == "code":
                    code = draw(_CODES)
                else:
                    target = str(draw(st.integers(0, n + 1)))
                tokens[j] = f"{target}:{code}"
                lines[i] = f"{head}: {' '.join(tokens)}"
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_mutated_texts())
def test_code_table_parse_matches_reference_on_mutations(text):
    assert _parsed(parse, text) == _parsed(_reference_parse, text)


def test_parse_takes_only_the_documented_tokens():
    # each was read by the prefix keywords and int() of the earlier parse
    cases = [
        ("tria 1\ntet 0: - - - -", "line 1: unrecognised line 'tria 1'"),
        ("tri 1\ntetx 0: - - - -",
         "line 2: unrecognised line 'tetx 0: - - - -'"),
        ("tri 2\ntet 0: - - - -\ntet 0_1: - - - -",
         "line 3: malformed 'tet' line"),
        ("tri 2\ntet 0: +1:0123 - - -\ntet 1: 0:0123 - - -",
         "line 2: malformed gluing '+1:0123'"),
        ("tri 1\ntet 0: 0:01²3 - - -",
         "line 2: malformed permutation '01²3'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message
    assert [_parsed(_reference_parse, text)
            for text, _ in cases[:4]] == [
        Triangulation([[None] * 4]), Triangulation([[None] * 4]),
        Triangulation([[None] * 4] * 2),
        Triangulation([[(1, _I), None, None, None],
                       [(0, _I), None, None, None]])]
    assert _parsed(_reference_parse, cases[4][0]) == (
        "line 2: invalid literal for int() with base 10: '²'", 2)
    # a sign is no digit: negative numbers are malformed, not out of range
    assert _parsed(parse, "tri -3") == ("line 1: malformed 'tri' header", 1)
    assert _parsed(parse, "tri 1\ntet -1: - - - -") == \
        ("line 2: malformed 'tet' line", 2)
    assert _parsed(parse, "tri 1\ntet 0: -1:0123 - - -") == \
        ("line 2: malformed gluing '-1:0123'", 2)
    # the count and the index are the only words after their keywords;
    # an intended difference: the earlier parse read only the second word
    # and ignored the rest
    extra_words = [
        ("tri 1 junk\ntet 0: - - - -", ("line 1: malformed 'tri' header", 1)),
        ("tri 1\ntet 0 x: - - - -", ("line 2: malformed 'tet' line", 2)),
    ]
    for text, outcome in extra_words:
        assert _parsed(parse, text) == outcome
        assert _parsed(_reference_parse, text) == Triangulation([[None] * 4])


def test_orientability():
    assert build.lst(1, 2)[0].is_orientable
    assert build.lens_space(2, 3)[0].is_orientable
    assert build.layered_loop(4, twisted=True).is_orientable
    # flip one permutation's parity inside a known orientable gluing
    tri = build.layered_loop(4, twisted=False)
    rows = [[None if g is None else [g[0], g[1]] for g in row]
            for row in tri.gluings]
    t, f = 0, 0
    u, perm = rows[t][f]
    swapped = Perm4((perm[1], perm[0], perm[2], perm[3]))
    if swapped[f] == perm[f]:
        swapped = Perm4((perm[0], perm[1], perm[3], perm[2]))
    rows[t][f] = (u, swapped)
    rows[u][swapped[f]] = (t, swapped.inverse())
    if rows[u][perm[f]] == [t, perm.inverse()]:
        rows[u][perm[f]] = None
    broken = None
    try:
        broken = Triangulation(rows)
    except TriangulationError:
        pass
    if broken is not None and broken.is_valid:
        assert broken.is_orientable in (True, False)


def _relabel(tri, order, perms):
    """Apply a tetrahedron reordering and per-tetrahedron vertex perms."""
    n = tri.tet_count
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
    return Triangulation(rows)


def _canonical(tri):
    """The triangulation whose gluing table is tri's canonical table."""
    return Triangulation(
        tuple(tuple(None if g is None else (g[0], Perm4(g[1])) for g in row)
              for row in tri.canonical_table))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form_is_relabelling_invariant(data):
    p, q = data.draw(st.sampled_from([(1, 2), (1, 3), (2, 3), (3, 4), (2, 5)]))
    tri, _, _ = build.lens_space(p, q)
    n = tri.tet_count
    order = data.draw(st.permutations(range(n)))
    perms = [data.draw(st.sampled_from(ALL_PERMS)) for _ in range(n)]
    other = _relabel(tri, list(order), perms)
    assert other.isomorphic(tri)
    assert _canonical(other) == _canonical(tri)


def test_canonical_idempotent():
    tri = build.layered_loop(5, twisted=True)
    c = _canonical(tri)
    assert _canonical(c) == c


def test_isomorphic_reversed_order():
    tri, _ = build.lst(2, 3)
    n = tri.tet_count
    rev = _relabel(tri, list(reversed(range(n))),
                   [Perm4((0, 1, 2, 3))] * n)
    assert tri.isomorphic(rev)


def test_empty_triangulation_canonical_form():
    empty = Triangulation([])
    assert empty.canonical_table == ()
    assert empty.isomorphic(Triangulation([]))
    assert _canonical(empty) == empty
    assert not empty.isomorphic(build.lst(1, 2)[0])


def test_non_isomorphic_pairs():
    t1, _ = build.lst(1, 3)   # 2 tetrahedra
    t2, _ = build.lst(2, 3)   # 3 tetrahedra
    assert not t1.isomorphic(t2)
    # one-tetrahedron folds giving distinct lens spaces
    a, _, _ = build.lens_space(1, 2, fold_weight=2)
    b, _, _ = build.lens_space(1, 2, fold_weight=1)
    assert not a.isomorphic(b)


def test_edge_link_walk():
    tri = build.layered_loop(4, twisted=True)
    for e, degree in enumerate(tri.skeleton.edge_degrees):
        wedges = tri.edge_link(e)
        assert len(wedges) == degree


def test_edge_link_walk_needs_an_interior_edge():
    tri, meta = build.lst(5, 13)
    sk = tri.skeleton
    # the free facets carry exactly the torus's three boundary edges
    assert sk.boundary_edges == set(meta.boundary_edges)
    for e, degree in enumerate(sk.edge_degrees):
        if e in sk.boundary_edges:
            with pytest.raises(TriangulationError,
                               match="requires an interior edge"):
                tri.edge_link(e)
        else:
            assert len(tri.edge_link(e)) == degree


def test_degenerate_self_gluing_permitted_but_not_in_homology():
    # a facet glued to itself by a two-cycle fixing an edge is accepted as
    # gluing data; the quotient cell structure is refused by homology
    from trinorm.homology import first_homology
    rows = [[None] * 4]
    rows[0][3] = (0, Perm4((1, 0, 2, 3)))
    tri = Triangulation(rows)
    assert tri.skeleton.face_count
    closedish = tri  # bounded: homology must refuse for closedness first
    with pytest.raises(TriangulationError):
        first_homology(closedish)


# ----- the full relabelling the pruned search replaced ------------------------
# Kept word for word as the oracle: every start relabelled in full on Perm4
# objects, the least table key winning.


def _reference_relabelled_table(self, start, start_perm):
    """Gluing table after the canonical BFS relabelling that assigns the
    given start tetrahedron label 0 with the given vertex relabelling."""
    n = self.tet_count
    label = [None] * n          # old tet -> new tet
    relab = [None] * n          # old tet -> Perm4 old labels -> new labels
    label[start] = 0
    relab[start] = start_perm
    order = [start]
    next_label = 1
    i = 0
    while i < len(order):
        t = order[i]
        rho = relab[t]
        rho_inv = rho.inverse()
        for new_f in range(4):
            old_f = rho_inv[new_f]
            g = self._gluings[t][old_f]
            if g is None:
                continue
            u, perm = g
            if label[u] is None:
                label[u] = next_label
                next_label += 1
                relab[u] = rho * perm.inverse()
                order.append(u)
        i += 1
    if len(order) != n:
        raise TriangulationError("canonical form requires a connected triangulation")
    table = []
    for t in order:
        rho = relab[t]
        rho_inv = rho.inverse()
        row = []
        for new_f in range(4):
            g = self._gluings[t][rho_inv[new_f]]
            if g is None:
                row.append(None)
            else:
                u, perm = g
                row.append((label[u], (relab[u] * perm * rho_inv).images))
        table.append(tuple(row))
    return tuple(table)


def _reference_table_key(table):
    return tuple(tuple((-1, (0, 1, 2, 3)) if g is None else g for g in row)
                 for row in table)


def _reference_canonical_table(self):
    best = None
    for start in range(self.tet_count):
        for perm in ALL_PERMS:
            table = _reference_relabelled_table(self, start, perm)
            key = _reference_table_key(table)
            if best is None or key < best[0]:
                best = (key, table)
    return () if best is None else best[1]


def _reference_search_counts(tri):
    """What the pruned search should log, replayed on the reference's full
    tables: starts abandoned (a larger entry before any smaller one),
    entries compared (up to the first difference, all of them on a tie)
    and the first start, in (tet, perm index) order, of the least table."""
    best = winner = None
    abandoned = compared = 0
    for start in range(tri.tet_count):
        for perm in ALL_PERMS:
            key = [g for row in _reference_table_key(
                _reference_relabelled_table(tri, start, perm)) for g in row]
            if best is None:
                best, winner = key, (start, perm.index)
                continue
            diff = next((i for i, (a, b) in enumerate(zip(key, best))
                         if a != b), None)
            compared += len(key) if diff is None else diff + 1
            if diff is not None and key[diff] > best[diff]:
                abandoned += 1
            elif diff is not None:
                best, winner = key, (start, perm.index)
    return abandoned, compared, winner


def _move23_chain(tri, rng, steps):
    """The triangulations along a seeded chain of 2-3 moves."""
    out = [tri]
    for _ in range(steps):
        faces = verifysuite._interior_faces(tri)
        tri = analyze.move23(tri, rng.choice(faces))[0]
        out.append(tri)
    return out


def _oracle_inputs():
    for _, tri, meta in build.lst_tree(7):
        yield tri
        for w in (meta.p, meta.q, meta.p + meta.q):
            yield build.fold_along_edge(tri, build.boundary_edge(meta, w),
                                        meta)[0]
    for _, _, tri in verifysuite._family_grid():
        yield tri
    for n in range(3, 11):
        yield build.layered_loop(n, twisted=False)
        yield build.layered_loop(n, twisted=True)
    rng = random.Random(9)
    for start in (build.lens_space(1, 6)[0], build.lens_space(2, 7)[0],
                  build.layered_loop(5, twisted=True),
                  build.seifert_family("M", 1, 1, 1)[0],
                  build.seifert_family("P", 1)[0]):
        yield from _move23_chain(start, rng, 4)


def _random_relabelling(tri, rng):
    n = tri.tet_count
    return _relabel(tri, rng.sample(range(n), n),
                    [rng.choice(ALL_PERMS) for _ in range(n)])


def test_pruned_canonical_table_matches_reference():
    rng = random.Random(3)
    count = 0
    for tri in _oracle_inputs():
        want = _reference_canonical_table(tri)
        assert tri.canonical_table == want
        # the reference is a relabelling invariant, so a shuffled copy has
        # the same least table
        assert _random_relabelling(tri, rng).canonical_table == want
        count += 1
    assert count == 127 * 4 + 2 * 27 + 3 + 4 + 16 + 5 * 5


@settings(max_examples=100, deadline=None)
@given(gluing_tables().filter(lambda tri: tri.is_connected),
       st.randoms(use_true_random=False))
def test_pruned_canonical_table_matches_reference_on_random_tables(tri, rng):
    # boundary, self-glued and non-orientable gluings all occur here
    want = _reference_canonical_table(tri)
    assert tri.canonical_table == want
    assert _random_relabelling(tri, rng).canonical_table == want


@settings(max_examples=25, deadline=None)
@given(gluing_tables().filter(lambda tri: not tri.is_connected))
def test_random_disconnected_tables_are_refused_as_before(tri):
    with pytest.raises(TriangulationError) as ref:
        _reference_canonical_table(tri)
    with pytest.raises(TriangulationError) as err:
        tri.canonical_table
    assert str(err.value) == str(ref.value)


def test_disconnected_input_is_refused_as_before():
    one = build.layered_loop(3, twisted=True)
    rows = [list(row) for row in one.gluings]
    rows += [[None if g is None else (g[0] + 3, g[1]) for g in row]
             for row in one.gluings]
    for tri in (Triangulation(rows), Triangulation([[None] * 4] * 2)):
        with pytest.raises(TriangulationError) as err:
            tri.canonical_table
        assert str(err.value) == \
            "canonical form requires a connected triangulation"
        with pytest.raises(TriangulationError) as ref:
            _reference_canonical_table(tri)
        assert str(ref.value) == str(err.value)


_SEARCH_LINE = re.compile(
    r"canonical_table: (\d+) starts tried, (\d+) abandoned, (\d+) entries "
    r"compared; winner start (\d+) perm (\d+)$")


def test_canonical_table_logs_its_search(caplog):
    # loops have automorphisms, so several starts tie for the least table
    # and the earliest must win; the boundary cases order None first
    cases = [build.layered_loop(6, twisted=True),
             build.layered_loop(5, twisted=False),
             build.lst(3, 5)[0], build.seifert_family("M", 1, 2, 1)[0],
             Triangulation([[None] * 4])]
    for tri in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="trinorm.triangulation"):
            tri.canonical_table
        records = [r for r in caplog.records
                   if r.name == "trinorm.triangulation"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        tried, abandoned, compared, start, perm = map(
            int, _SEARCH_LINE.match(records[0].getMessage()).groups())
        assert tried == 24 * tri.tet_count
        assert (abandoned, compared, (start, perm)) == \
            _reference_search_counts(tri)
