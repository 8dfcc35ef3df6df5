"""Permutations of {0,1,2,3} used as face-gluing maps.

The 24 permutations are interned: constructing a ``Perm4`` returns one of
24 shared instances, each carrying its ``index`` in lexicographic order of
images (the identity is index 0).  Products, inverses, signs and the
four-digit codes of the .tri format are read from tables built once at
import.
"""

from __future__ import annotations

from itertools import permutations


class Perm4:
    """A bijection of {0,1,2,3}, stored as the tuple of images of 0,1,2,3."""

    __slots__ = ("images", "index")

    def __new__(cls, images):
        images = tuple(images)
        try:
            return _BY_IMAGES[images]
        except (KeyError, TypeError):
            raise ValueError(f"not a permutation of 0..3: {images!r}") from None

    def __setattr__(self, name, value):
        raise AttributeError("Perm4 is immutable")

    def __reduce__(self):
        return (Perm4, (self.images,))

    def __getitem__(self, i):
        return self.images[i]

    def __mul__(self, other):
        # (self * other)(x)  ==  self(other(x))
        return PRODUCT[self.index][other.index]

    def inverse(self):
        return INVERSE[self.index]

    def sign(self):
        """+1 for even permutations, -1 for odd."""
        return SIGN[self.index]

    def __eq__(self, other):
        # interned: equal permutations are the same object
        return self is other

    def __hash__(self):
        # by value, not identity, so hashes of gluing tables do not depend
        # on where the instances live
        return hash(self.images)

    def __repr__(self):
        return "Perm4(%d%d%d%d)" % self.images

    def compact(self):
        """Four-digit string of images, as used in the .tri file format."""
        return CODES[self.index]

    @classmethod
    def from_compact(cls, text):
        perm = BY_CODE.get(text)
        if perm is not None:
            return perm
        if len(text) != 4 or not (text.isascii() and text.isdigit()):
            raise ValueError(f"malformed permutation {text!r}")
        # four digits that are no code in BY_CODE: this raises
        return cls(tuple(map(int, text)))

    @classmethod
    def from_map(cls, mapping):
        """Build from a dict {source: image} covering all of 0..3."""
        if sorted(mapping) != [0, 1, 2, 3]:
            raise ValueError(f"incomplete vertex map {mapping!r}")
        return cls(tuple(mapping[i] for i in range(4)))


def _intern(index, images):
    perm = object.__new__(Perm4)
    object.__setattr__(perm, "images", images)
    object.__setattr__(perm, "index", index)
    return perm


def _inversions(images):
    return sum(1 for i in range(4) for j in range(i + 1, 4)
               if images[i] > images[j])


# ALL_PERMS[i] has index i; PRODUCT[i][j] is ALL_PERMS[i] * ALL_PERMS[j],
# INVERSE[i] and SIGN[i] the inverse and sign of ALL_PERMS[i]
ALL_PERMS = tuple(_intern(i, images)
                  for i, images in enumerate(permutations(range(4))))
_BY_IMAGES = {p.images: p for p in ALL_PERMS}     # keys in index order
PRODUCT = tuple(tuple(_BY_IMAGES[a[b0], a[b1], a[b2], a[b3]]
                      for b0, b1, b2, b3 in _BY_IMAGES)
                for a in _BY_IMAGES)
INVERSE = tuple(_BY_IMAGES[a.index(0), a.index(1), a.index(2), a.index(3)]
                for a in _BY_IMAGES)
SIGN = tuple(-1 if _inversions(a) % 2 else 1 for a in _BY_IMAGES)
# CODES[i] is the four-digit .tri code of ALL_PERMS[i]; BY_CODE maps
# each code back to its permutation
CODES = tuple("%d%d%d%d" % a for a in _BY_IMAGES)
BY_CODE = dict(zip(CODES, ALL_PERMS))
