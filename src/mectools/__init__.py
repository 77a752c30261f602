"""Exact counting and uniform sampling of the DAGs of a Markov equivalence class.

The class is given as a CPDAG; its undirected components are connected
chordal graphs whose acyclic moral orientations (AMOs) are counted with a
clique-tree based algorithm in polynomial time and sampled uniformly after a
precomputation pass.

The names in ``__all__`` are the library's contract: the input types and
their split, the two entry points (count a CPDAG; precount it, then draw),
the errors, the generators and the brute-force oracles.  The steps inside
(clique trees, the components left after a clique, the permutation draw)
are reached through their own modules, with no stability promise, and
trust the input the library builds for them.
"""

from .chordal import NotChordalError, is_chordal
from .counting import count_cpdag
from .generators import GenerationError, gen_interval, gen_peo, gen_subtree, gen_thicken
from .graphs import (
    Dag,
    NotCpdagError,
    ParseError,
    PartialGraph,
    Uccg,
    parse_graph,
    undirected_components,
)
from .oracle import TooLargeError, count_root_picking, enumerate_amos, v_structures
from .sampling import ModelMismatchError, SamplerModel, precount, sample_cpdag

__version__ = "0.1.0"

__all__ = [
    "Dag",
    "GenerationError",
    "ModelMismatchError",
    "NotChordalError",
    "NotCpdagError",
    "ParseError",
    "PartialGraph",
    "SamplerModel",
    "TooLargeError",
    "Uccg",
    "count_cpdag",
    "count_root_picking",
    "enumerate_amos",
    "gen_interval",
    "gen_peo",
    "gen_subtree",
    "gen_thicken",
    "is_chordal",
    "parse_graph",
    "precount",
    "sample_cpdag",
    "undirected_components",
    "v_structures",
]
