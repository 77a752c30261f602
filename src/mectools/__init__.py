"""Exact counting and uniform sampling of the DAGs of a Markov equivalence class.

The class is given as a CPDAG; its undirected components are connected
chordal graphs whose acyclic moral orientations (AMOs) are counted with a
clique-tree based algorithm in polynomial time and sampled uniformly after a
precomputation pass.
"""

from .chordal import CliqueTree, NotChordalError, clique_tree, is_chordal, lbfs
from .counting import (
    ChainElementNotProperSubsetError,
    ChainNotNestedError,
    CountStats,
    count_amos,
    count_cpdag,
    count_with_stats,
    fp_chains,
    phi_chain,
)
from .generators import GenerationError, gen_interval, gen_peo, gen_subtree, gen_thicken
from .graphs import (
    Dag,
    NotCpdagError,
    ParseError,
    PartialGraph,
    Uccg,
    orient_by_ordering,
    parse_graph,
    undirected_components,
)
from .oracle import (
    TooLargeError,
    count_root_picking,
    enumerate_amos,
    v_structures,
)
from .sampling import (
    ModelMismatchError,
    SamplerModel,
    draw_clique,
    draw_perm,
    precount,
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
    "GenerationError",
    "ModelMismatchError",
    "NotChordalError",
    "NotCpdagError",
    "NotCliqueError",
    "ParseError",
    "PartialGraph",
    "SamplerModel",
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
    "is_chordal",
    "lbfs",
    "orient_by_ordering",
    "parse_graph",
    "phi_chain",
    "precount",
    "sample_amo",
    "sample_cpdag",
    "undirected_components",
    "v_structures",
]
