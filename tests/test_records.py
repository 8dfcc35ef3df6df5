"""The result records: immutable NamedTuples with the equality, hash,
repr and pickling of the frozen records they replaced, and a package
import that loads neither dataclasses nor fractions."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from trinorm import build
from trinorm.analyze import BoundReport, MoveSpec, PromotionObstruction
from trinorm.build import AnnulusFilling, FoldRecord, LGraphNode, SeifertParams
from trinorm.cocycle import Cocycle, ParityCensus
from trinorm.homology import HomologyProfile
from trinorm.surface import (CanonicalSurface, NormalCoordinate,
                             special_solutions, vertex_link)

SRC = str(Path(__file__).resolve().parent.parent / "src")

_TORUS = build.lst(3, 7)[1]
_HOMOLOGY = HomologyProfile((2, 4), 1, 2)
_COCYCLE = Cocycle((0, 1, 1, 0))
_COORD = NormalCoordinate(((1,) + (0,) * 9, (0,) * 4 + (1,) + (0,) * 5))
_CENSUS = ParityCensus(2, 2, {4: 2}, 8, 4, 0, 0, (1, 2, 0, 0))
_SURFACE = CanonicalSurface(_COORD, _COCYCLE, -1)

# name: (record, one of its fields, another value for that field)
RECORDS = {
    "Book": (_TORUS.book, "faces", ((0, 0), (0, 1))),
    "LayeredSolidTorus": (_TORUS, "univalent_edge", 0),
    "FoldRecord": (FoldRecord(3, 13, 5), "lens_b", 2),
    "LGraphNode": (LGraphNode(3, 7, 3, 2, 3), "depth", 4),
    "SeifertParams": (SeifertParams("Q", (4,), ((2, 1), (2, 1)), _HOMOLOGY),
                      "family", "P"),
    "AnnulusFilling": (AnnulusFilling("lst", w_h=5, w_d=1, w_v=6), "w_d", 2),
    "HomologyProfile": (_HOMOLOGY, "betti", 0),
    "Cocycle": (_COCYCLE, "bits", (1, 1, 1, 0)),
    "ParityCensus": (_CENSUS, "tri_tets", 1),
    "NormalCoordinate": (_COORD, "formal", True),
    "CanonicalSurface": (_SURFACE, "chi", 0),
    "BoundReport": (BoundReport(_CENSUS, _SURFACE, -1, 3, 0, 6, 6, 2, 2, True),
                    "k_phi", 1),
    "MoveSpec": (MoveSpec("44", edge=3, axis=1), "axis", 0),
}

# the hashes of the frozen dataclasses on the same values; every field is
# an int or a tuple of them, so they are the same in every process
PINNED_HASHES = {
    "FoldRecord": 4943173889764258518,
    "LGraphNode": 8839564520615745939,
    "HomologyProfile": -529206513942587132,
    "Cocycle": 7741902333678127457,
    "NormalCoordinate": -2121957404189743244,
    "CanonicalSurface": 2709848116196363452,
}

# a str, or None on Python 3.11, hashes differently in each process: the
# frozen dataclass hashed the tuple of its fields
FIELD_TUPLE_HASHES = {
    "SeifertParams": ("Q", (4,), ((2, 1), (2, 1)), _HOMOLOGY),
    "AnnulusFilling": ("lst", 5, 1, 6),
    "MoveSpec": ("44", None, 3, 1),
}

# a dict field makes these unhashable, as it made the dataclasses
UNHASHABLE = {"Book", "LayeredSolidTorus", "ParityCensus", "BoundReport"}

PINNED_REPRS = {
    "HomologyProfile":
        "HomologyProfile(invariant_factors=(2, 4), betti=1, z2_rank=2)",
    "FoldRecord": "FoldRecord(fold_edge_weight=3, lens_a=13, lens_b=5)",
    "LGraphNode": "LGraphNode(p=3, q=7, depth=3, e_bar=2, o_bar=3)",
    "MoveSpec": "MoveSpec(kind='44', face=None, edge=3, axis=1)",
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality(name):
    rec, field, other = RECORDS[name]
    twin = type(rec)(*(getattr(rec, f) for f in rec._fields))
    assert twin is not rec and twin == rec and not twin != rec
    changed = rec._replace(**{field: other})
    assert type(changed) is type(rec)
    assert changed != rec and not changed == rec


@pytest.mark.parametrize("name", RECORDS)
def test_record_hash(name):
    rec = RECORDS[name][0]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    elif name in PINNED_HASHES:
        assert hash(rec) == PINNED_HASHES[name]
    else:
        assert hash(rec) == hash(FIELD_TUPLE_HASHES[name])


@pytest.mark.parametrize("name", PINNED_REPRS)
def test_record_repr(name):
    assert repr(RECORDS[name][0]) == PINNED_REPRS[name]


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    rec, field, other = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(rec, field, other)
    assert getattr(rec, field) != other


@pytest.mark.parametrize("name", RECORDS)
def test_record_pickles(name):
    rec = RECORDS[name][0]
    twin = pickle.loads(pickle.dumps(rec))
    assert type(twin) is type(rec) and twin == rec


def test_torus_equality_ignores_the_book():
    torus = build.lst(2, 5)[1]
    elsewhere = torus._replace(book=None)
    assert elsewhere == torus and not elsewhere != torus
    assert torus != torus._replace(base_edge=None)
    # the instance dict that caches boundary_triple takes no attribute
    for attr in ("boundary_triple", "extra"):
        with pytest.raises(AttributeError):
            setattr(torus, attr, (1, 2, 3))
    assert torus.boundary_triple == (2, 5, 7)


def test_torus_pickles_with_its_book_and_cached_triple():
    torus = build.lst(3, 7)[1]
    assert torus.boundary_triple == (3, 7, 10)
    twin = pickle.loads(pickle.dumps(torus))
    assert twin == torus and twin.book == torus.book
    assert vars(twin) == {"boundary_triple": (3, 7, 10)}
    assert (twin.p, twin.q) == (3, 7)


def test_promotion_obstruction_pickles_and_copies():
    torus = build.lst(2, 5)[1]
    exc = PromotionObstruction(torus, "no 4-4 flip removes it")
    assert exc.args == (torus, "no 4-4 flip removes it")
    for twin in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert type(twin) is PromotionObstruction
        assert twin.torus == torus and twin.torus.book == torus.book
        assert twin.reason == "no 4-4 flip removes it"
        assert str(twin) == str(exc) == \
            "supportive torus at (0, 1, 2): no 4-4 flip removes it"


def test_formal_chi_is_an_int_when_integral():
    tri = build.lens_space(2, 5)[0]
    fchi = special_solutions(tri)[2]
    chi = fchi(vertex_link(tri))
    assert type(chi) is int and chi == 2
    rows = [(0,) * 10] * tri.tet_count
    rows[0] = (1,) + (0,) * 9
    chi = fchi(NormalCoordinate(tuple(rows)))
    assert type(chi) is Fraction and chi == Fraction(1, 6)


# ----- cold start -------------------------------------------------------------

_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "before = set(sys.modules); import {}; "
          "print(' '.join(sorted(set(sys.modules) - before)))")


def _loaded_by(module):
    """The modules that importing ``module`` loads in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(module), SRC],
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_package_import_loads_no_dataclasses_or_fractions():
    loaded = _loaded_by("trinorm")
    assert {"trinorm.build", "trinorm.surface", "trinorm.analyze"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}


def test_cli_import_leaves_the_verify_grid_unloaded():
    loaded = _loaded_by("trinorm.cli")
    assert "trinorm.cli" in loaded
    assert "trinorm.verifysuite" not in loaded
