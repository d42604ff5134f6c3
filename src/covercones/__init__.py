"""Exact polyhedral cones of graphs and clutters.

Blowup-algebra geometry of square-free monomial ideals over exact rational
arithmetic: Rees and Simis cones with irreducible facet representations,
integral Hilbert bases, and decision procedures for normality, the
Gorenstein property, graph perfection, total dual integrality, balancedness
and the max-flow min-cut property, each with an independent brute-force
oracle partner at small scale.
"""

from .blowup import (MonomialGenerator, ReesConeModel, SimisConeModel,
                     clique_lift_set, ehrhart_equality, gorenstein_check,
                     is_rees_normal, rees_cone, rees_hilbert_basis,
                     rees_lift_set, simis_cone, simis_hilbert_basis,
                     symbolic_generators_perfect)
from .checks import (balanced_check, balanced_oracle, clique_halfspaces,
                     cm_height_two_normal, dual_balanced_normal, mfmc_check,
                     perfect_matrix_check, perfect_via_odd_holes,
                     perfect_via_rees_cone, tdi_check, tdi_oracle)
from .clutters import (Clutter, Graph, IncidenceMatrix, all_cliques, blocker,
                       clique_equalization, complement, contraction,
                       cover_ideal, cover_ideal_of_complement, deletion,
                       dual_ideal, edge_clutter, incidence_matrix,
                       is_chordal, is_unmixed, maximal_cliques,
                       maximal_independent_sets, minimal_vertex_covers,
                       vertex_clique_matrix)
from .cones import (Halfspace, HilbertBasis, HRepPolyhedron, IntegerCone,
                    SemigroupMembership,
                    extreme_rays_of_halfspaces, facets_of_generators,
                    hilbert_basis, is_integral, lattice_points_dilation,
                    make_halfspace, polyhedron, semigroup_member, vertices)
from .errors import (CapExceededError, DegenerateMinorError, InfeasibleError,
                     InputError, NoGradingError, NotPointedError)
from .report import CheckReport

__version__ = "0.1.0"
