"""Exact combinatorial toolkit for layered 3-manifold triangulations,
GF(2) edge colourings, canonical normal surfaces and complexity bounds.

The package is organised around one data structure, the face-gluing
triangulation, and a handful of modules:

  triangulation   gluing tables, skeleta and their mod-2 face rows,
                  orientability, canonical forms
  homology        Smith normal form, GF(2) rank, first homology
  build           layered solid tori (LayeredSolidTorus), lens folds, loops,
                  Seifert families
  cocycle         edge colourings, tetrahedron types, parity censuses
  surface         normal coordinates, canonical surfaces, octagons
  analyze         solid torus recognition, bound reports, Pachner moves
  cli             command line front end (``trinorm ...``)
  verifysuite     the acceptance grid behind ``trinorm verify``
"""

import logging

from .perm import Perm4
from .triangulation import (Triangulation, TriangulationError, ParseError,
                            Skeleton, parse, serialize)
from .homology import (HomologyProfile, first_homology, seifert_homology,
                       smith_normal_form)
from .build import (lst, layer_on_edge, fold_along_edge, lens_space,
                    lgraph, enumerate_minimal_lens_families, layered_loop,
                    augmented_solid_torus, AnnulusFilling, seifert_family,
                    LayeredSolidTorus, FoldRecord, LGraphNode, SeifertParams,
                    meridian_weight_oracle)
from .cocycle import (Cocycle, TetType, ParityCensus, cocycle_basis,
                      all_nonzero_classes, classify_tetrahedra, parity_census)
from .surface import (NormalCoordinate, CanonicalSurface, canonical_surface,
                      euler_char, chi_formula, b_modification,
                      special_solutions, twisted_square_scan,
                      surface_classify, vertex_link)
from .analyze import (BoundReport, MoveSpec, find_maximal_lsts,
                      lst_intersection_matrix, low_degree_lint,
                      fundamental_report, pachner, pachner_with_cocycle,
                      promote, supportive_tori, almost_supportive_tori,
                      compression_pattern_scan, complexity_certificate)

__version__ = "0.1.0"

# Library modules log on the ``trinorm.*`` loggers (the oracles at DEBUG);
# nothing is printed unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
