"""The library's public surface is its contract and nothing else.

Core claims:
    - ``mectools.__all__`` holds exactly the contract's names
    - ``from mectools import *`` binds exactly those names
    - the package binds no other public name apart from its submodules, so
      none of the internal steps is reachable as ``mectools.<name>``
"""

from types import ModuleType

import mectools

CONTRACT = {
    # the input and its split
    "parse_graph",
    "PartialGraph",
    "Uccg",
    "undirected_components",
    "is_chordal",
    # the two entry points and what they return
    "count_cpdag",
    "precount",
    "SamplerModel",
    "sample_cpdag",
    "Dag",
    # errors
    "ParseError",
    "NotChordalError",
    "NotCpdagError",
    "ModelMismatchError",
    "GenerationError",
    "TooLargeError",
    # generators
    "gen_interval",
    "gen_peo",
    "gen_subtree",
    "gen_thicken",
    # brute-force oracles
    "enumerate_amos",
    "count_root_picking",
    "v_structures",
}

# exported before the contract was fixed; each now lives in its own module
# or in the tests' helpers
REMOVED = {
    "ChainElementNotProperSubsetError",
    "ChainNotNestedError",
    "CliqueTree",
    "CountStats",
    "NotCliqueError",
    "clique_tree",
    "components_after_clique",
    "count_amos",
    "count_with_stats",
    "draw_clique",
    "draw_perm",
    "fp_chains",
    "lbfs",
    "orient_by_ordering",
    "phi_chain",
    "sample_amo",
}


def test_all_is_the_contract():
    assert len(CONTRACT) == 23
    assert len(mectools.__all__) == len(set(mectools.__all__))
    assert set(mectools.__all__) == CONTRACT


def test_star_import_binds_exactly_the_contract():
    namespace: dict = {}
    exec("from mectools import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == CONTRACT


def test_no_other_public_name_is_bound():
    public = {
        name
        for name, value in vars(mectools).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == CONTRACT
    assert not any(hasattr(mectools, name) for name in REMOVED)
