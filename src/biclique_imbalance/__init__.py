"""Minimum-imbalance vertex orderings for complete bipartite graphs and chains of them.

The imbalance of a vertex under a linear ordering is the absolute difference
between its neighbor counts to the left and to the right; the imbalance of a
graph is the minimum over all orderings of the per-vertex sum. This package
provides the closed forms, optimal-ordering constructions, an optimality
verifier, a chain decomposer with interval representations, and an
exhaustive-search oracle for cross-validation on small instances.

Result records are named tuples; Bipartition (alias ChainComponent) is an
immutable slotted class. The package namespace is the union of the modules'
`__all__` lists; each public name is listed once, in its own module.
"""

from . import chained, complete, errors, graph, oracle
from .chained import *
from .complete import *
from .errors import *
from .graph import *
from .oracle import *

__all__ = sorted(
    chained.__all__ + complete.__all__ + errors.__all__ + graph.__all__ + oracle.__all__
)
