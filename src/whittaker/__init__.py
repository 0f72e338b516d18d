"""Exact computational toolkit for matrix groups over finite local rings.

Builds GL_n and SL_n over Z/p^l and F_q[t]/(t^l), and verifies
multiplicity-one / Whittaker-model statements, regular-representation
counting and dimension formulas, and GL -> SL branching rules by
independent brute-force character computation, all in exact arithmetic.
"""

__version__ = "0.1.0"

from .localring import RingDesc, RingKind, get_ring, parse_ring, ring_make
from .cyclotomic import CycloNum, IntegralityError, NonRationalError
from .groups import (CapExceeded, GroupSpec, GroupTable, congruence_subgroup,
                     enumerate_group, iter_group_chunks, unipotent_subgroup)
from .regular import TypeMatrix, a_regular, iota, type_of
from .whittaker_verify import (NonDegenChar, induced_dim, induced_norm, phi_x_exponents,
                               predicted_dim_sum, predicted_regular_count)
from .chartab import (CharTable, ClassData, character_table, class_data,
                      classify_regular, conjugacy_classes, decompose_induced,
                      restriction_norm, special_regular_scan)
