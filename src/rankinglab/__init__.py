"""Laboratory for rank-greedy online bipartite matching.

The offline party of a bipartite graph carries a preference ranking; the
online party arrives in order and each arrival grabs its best-ranked free
neighbor.  This package computes that matching, characterizes it
declaratively, probes how it reacts to vertex deletions, derives its exact
output distribution over a uniformly random ranking, and checks the
resulting guarantees on enumerated and randomized instances.

The import block below is the one list of public names: ``__all__`` is
derived from the names it binds.
"""

from types import ModuleType as _Module

from .engine import BipartiteInstance, Permutation, Vertex, rank_match
from .fileformat import (
    InstanceFormatError,
    fingerprint,
    parse_instance,
    serialize_instance,
)
from .generators import gamma_min_ratio, gen_perfect, gen_random
from .graph import perfect_matching_of
from .probability import (
    CapExceeded,
    ChainLink,
    ExactReport,
    LIMIT_RATIO,
    McEstimate,
    RatioVerdict,
    check_theorem4,
    check_theorem6,
    competitive_bound,
    competitive_bound_exact,
    exact_expected_size,
    exact_size_distribution,
    lemma3_chain,
    mc_expected_size,
)
from .rng import SplitMix64, stream
from .structure import (
    DichotomyViolation,
    GuardViolation,
    RankMoveVerdict,
    RemovalDiff,
    check_rank_move,
    check_removal_stability,
    check_zig_zag_symmetry,
    removal_diff_offline,
    removal_diff_online,
)
from .suites import (
    SUITES,
    CaseFailure,
    SuiteResult,
    suite_lemma3,
    suite_lemma5,
    suite_lemma6,
    suite_lemma7,
    suite_lemma8,
    suite_lemma9,
    suite_rank_move,
    suite_ranking_matching,
    suite_theorem4,
    suite_theorem6,
)

#: every public, non-module name the imports above bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
)
