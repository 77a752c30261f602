"""Exact counting and uniform sampling of the DAGs of a Markov equivalence class.

The class is given as a CPDAG; its undirected components are connected
chordal graphs whose acyclic moral orientations (AMOs) are counted with a
clique-tree based algorithm in polynomial time and sampled uniformly after a
precomputation pass.
"""

from .chordal import CliqueTree, LbfsOrdering, clique_tree, is_chordal, is_peo, lbfs, minimal_separators
from .counting import (
    ChainElementNotProperSubsetError,
    ChainNotNestedError,
    CountStats,
    FpChain,
    MemoTable,
    SetTooLargeError,
    count_amos,
    count_cpdag,
    count_with_stats,
    fp_chains,
    phi_chain,
    phi_naive,
)
from .generators import GenerationError, gen_interval, gen_peo, gen_subtree, gen_thicken
from .graphs import (
    Dag,
    NotChordalError,
    ParseError,
    PartialGraph,
    Uccg,
    induced_subgraph,
    orient_by_ordering,
    parse_graph,
    undirected_components,
)
from .oracle import (
    TooLargeError,
    count_root_picking,
    enumerate_amos,
    topological_orderings_of_amo,
    v_structures,
)
from .sampling import (
    ModelMismatchError,
    SampleResult,
    SamplerModel,
    draw_clique,
    draw_perm,
    precount,
    precount_cpdag,
    sample_amo,
    sample_cpdag,
)
from .subproblems import NotCliqueError, components_after_clique

__version__ = "0.1.0"

__all__ = [
    "ChainElementNotProperSubsetError",
    "ChainNotNestedError",
    "CliqueTree",
    "CountStats",
    "Dag",
    "FpChain",
    "GenerationError",
    "LbfsOrdering",
    "MemoTable",
    "ModelMismatchError",
    "NotChordalError",
    "NotCliqueError",
    "ParseError",
    "PartialGraph",
    "SampleResult",
    "SamplerModel",
    "SetTooLargeError",
    "TooLargeError",
    "Uccg",
    "clique_tree",
    "components_after_clique",
    "count_amos",
    "count_cpdag",
    "count_root_picking",
    "count_with_stats",
    "draw_clique",
    "draw_perm",
    "enumerate_amos",
    "fp_chains",
    "gen_interval",
    "gen_peo",
    "gen_subtree",
    "gen_thicken",
    "induced_subgraph",
    "is_chordal",
    "is_peo",
    "lbfs",
    "minimal_separators",
    "orient_by_ordering",
    "parse_graph",
    "phi_chain",
    "phi_naive",
    "precount",
    "precount_cpdag",
    "sample_amo",
    "sample_cpdag",
    "topological_orderings_of_amo",
    "undirected_components",
    "v_structures",
]
