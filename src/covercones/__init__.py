"""Exact polyhedral cones of graphs and clutters.

Blowup-algebra geometry of square-free monomial ideals over exact rational
arithmetic: Rees and Simis cones with irreducible facet representations,
integral Hilbert bases, and decision procedures for normality, the
Gorenstein property, graph perfection, total dual integrality, balancedness
and the max-flow min-cut property, each cross-checked at small scale by an
independent brute-force oracle in the test suite.
"""

from .blowup import (MonomialGenerator, ReesConeModel, SimisConeModel,
                     clique_lift_set, ehrhart_equality, gorenstein_check,
                     is_rees_normal, rees_cone, rees_hilbert_basis,
                     rees_lift_set, simis_cone, simis_hilbert_basis,
                     symbolic_generators_perfect)
from .checks import (balanced_check, clique_halfspaces, cm_height_two_normal,
                     dual_balanced_normal, mfmc_check, perfect_matrix_check,
                     perfect_via_odd_holes, perfect_via_rees_cone, tdi_check)
from .clutters import (Clutter, Graph, IncidenceMatrix, all_cliques, blocker,
                       clique_equalization, complement, cover_ideal,
                       dual_ideal, edge_clutter, incidence_matrix,
                       is_chordal, is_unmixed, maximal_cliques,
                       minimal_vertex_covers, vertex_clique_matrix)
from .cones import (Halfspace, HilbertBasis, HRepPolyhedron, IntegerCone,
                    SemigroupMembership,
                    extreme_rays_of_halfspaces, facets_of_generators,
                    hilbert_basis, is_integral, lattice_points_dilation,
                    make_halfspace, polyhedron, semigroup_member, vertices)
from .errors import (CapExceededError, InfeasibleError, InputError,
                     NoGradingError, NotPointedError)
from .report import CheckReport
from . import lp  # no src/ caller; covbench/tracer.py looks up covercones.lp

__version__ = "0.1.0"
