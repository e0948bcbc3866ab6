"""Runtime budgets.

The node budget caps how many stable sets an enumeration or builder may
produce before failing loudly with ExplosionCap. The environment variable
TOKENSLIDE_NODE_BUDGET overrides the default for a whole process.

The search budget counts the steps of the backtracking searches: one per
stack pop of a maximum-stable-set (or clique) search, one per step
forward or back of a colouring search. One call spends at most one
budget per search kind. The triangle scan and the BFS forest that props
runs first spend none of it. The forest that gives the components also
2-colours a bipartite graph, so neither chromatic_number nor is_s_partite
reaches the budget on one, nor clique_number on a graph without a
triangle; girth never does.

Every budget is read from this module at call time, and this module is
the one place to set one: assign tokenslide.config.DEFAULT_SEARCH_BUDGET
(or the node or iso budget) to change it.
"""

import os

from .errors import InputError

DEFAULT_NODE_BUDGET = 2 ** 22

# canonical-form backtracking: search tree nodes before TooLargeForIso
DEFAULT_ISO_BUDGET = 1_000_000

# maximum-stable-set (clique) and colouring backtracking: stack pops or
# steps per search before TooLargeForSearch
DEFAULT_SEARCH_BUDGET = 10_000_000


def node_budget():
    """Effective stable-set budget: env var > default."""
    env = os.environ.get("TOKENSLIDE_NODE_BUDGET")
    if env is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise InputError(
            f"TOKENSLIDE_NODE_BUDGET must be an integer, got {env!r}")
    if value < 1:
        raise InputError("TOKENSLIDE_NODE_BUDGET must be positive")
    return value
