"""provar: pro-V topology computations on subgroups of free groups.

Stallings automata, closures for the pseudovarieties Ab(p)*Ab(d) and
their join U over all primes, membership of finite groups in U, the
minimum generator C_p x| C_d with its free objects, and constructive
separation in the free metabelian and Baumslag-Solitar settings.
"""

from .apd import (
    ApdStatus,
    FreeObject,
    GpdElement,
    GpdGroup,
    closure,
    closure_by_folding,
    decompose,
    gpd_iso,
    status,
)
from .bs import BsElement, bs_eval, bs_is_trivial, bs_separating_prime
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    NoWitnessError,
    NotDiagonalizableError,
    NotFiniteIndexError,
)
from .fplinalg import ApdPresentation, action_to_presentation, diagonalize, simultaneous_diagonalize
from .metabelian import (
    Flow,
    SeparationWitness,
    first_quadrant_shift,
    flow_of,
    metab_equal,
    separating_witness,
)
from .numtheory import PrSearchResult, find_pr_prime, is_prime, mult_order, q_sets
from .permgroup import PermGroup
from .stallings import Automaton
from .uvar import (
    ClosureApprox,
    DensityReport,
    UMembershipReport,
    cl_u_approx,
    cl_u_finite_index,
    is_in_u,
    is_u_closed,
    not_fg_certificate,
    u_density_check,
    u_residual,
)
from .words import Word, fox, height_counts, parse, word

__version__ = "0.1.0"
