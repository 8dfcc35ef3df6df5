"""Twisted layered loops: the rank-two story.

The twisted loop of even length k triangulates a generalised quaternionic
space with H^1 of rank two.  All tetrahedra are of quad type for every
nonzero class, one of the three quadrilateral surfaces is a Klein bottle,
and raising even edge weights produces octagons at a rate that witnesses
tautness.
"""

from itertools import combinations

from trinorm import build, cocycle, surface, first_homology

for k in (4, 6, 10):
    tri = build.layered_loop(k, twisted=True)
    print(f"=== twisted loop, {k} tetrahedra ===")
    print("H1:", first_homology(tri))
    for phi in cocycle.all_nonzero_classes(tri):
        canon = surface.canonical_surface(tri, phi)
        chi, orientable, connected = surface.surface_classify(tri, canon.coord)
        label = "Klein bottle" if (chi, orientable, connected) == (0, False, True) \
            else f"chi = {chi}"
        print(f"  class {phi}: all-quad surface, {label}")
    kinds = sorted({kind for _, _, kind in surface.twisted_square_scan(tri)})
    print("  twisted squares:", kinds)
    total = sum(-surface.canonical_surface(tri, phi).chi
                for phi in cocycle.all_nonzero_classes(tri))
    print(f"  tetrahedra = 2 + sum of norms = 2 + {total}")

print("\n=== octagons from weight-two modifications (k = 4) ===")
tri = build.layered_loop(4, twisted=True)
for phi in cocycle.all_nonzero_classes(tri):
    base = surface.canonical_surface(tri, phi)
    evens = phi.even_edges()
    for r in range(len(evens) + 1):
        for b in combinations(evens, r):
            coord, octs, chi = surface.b_modification(tri, base, b)
            assert chi == base.chi - 2 * octs + 2 * len(b)
            assert octs >= len(b)
    print(f"class {phi}: octagon count >= |b| over all {2 ** len(evens)} "
          f"subsets of {len(evens)} even edges")
