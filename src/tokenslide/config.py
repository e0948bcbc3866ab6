"""Runtime budgets.

The node budget caps how many stable sets an enumeration or builder may
produce before failing loudly with ExplosionCap. The environment variable
TOKENSLIDE_NODE_BUDGET overrides the default for a whole process.

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
