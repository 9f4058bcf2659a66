"""Exact-arithmetic combinatorics of Borel orbit degenerations and
Bruhat-Chevalley order on involutions of the symmetric group.

Everything is computed over exact fields (integers, rationals, rational
functions, small prime fields); no floating point anywhere.  The value
types are immutable and the operations are pure functions, so the API is
safe to share across threads.
"""

from .involutions import (
    Arc,
    Involution,
    Permutation,
    enumerate_involutions,
    format_involution,
    identity_involution,
    involution,
    involution_from_one_line,
    involution_to_json,
    length,
    longest_involution,
    parse_involution,
    to_permutation,
)
from .rankorder import (
    RankMatrix,
    bruhat_rank_matrix,
    exact_rank,
    leq_star,
    melnikov_rank_matrix,
    star_rank_matrix,
)
from .moves import (
    Move,
    a_candidates,
    apply_move,
    b_candidates,
    c_candidates,
    minimal_support,
    n_minus,
    n_plus,
    n_prime,
    n_zero,
    near,
    near_moves,
    near_prime,
    phi_leq,
    phi_lt,
)
from .poset import LSets, Poset, build_poset, hasse_dot, hasse_json, is_graded, l_sets
from .ratfunc import EPS, EPS_INV, RFun
from .orbits import (
    Degeneration,
    act,
    degeneration,
    degeneration_closed_form,
    orbit_dimension,
    orbit_point,
    random_borel,
    rank_profile,
)
from .closure import (
    ZSpec,
    complement_permutation,
    essential_reduction_check,
    essential_set,
    is_chain,
    maximal_support,
    quadric_cells,
    rothe_diagram,
    z_contains,
    z_spec,
)
from .suites import SuiteReport, emit_hasse, run_suite, suite_names

__version__ = "0.1.0"
