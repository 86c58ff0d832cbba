"""Graph edit distance with centrality-guided node contraction.

The package root exports the entry points shown in the README's "Library
use" section. Everything else is imported from its submodule:
``cged.graph``, ``cged.centrality``, ``cged.contraction``, ``cged.costs``,
``cged.ged``, ``cged.dataset`` and ``cged.evaluation``.
"""

from .centrality import CentralityMeasure
from .contraction import t_centrality_node_contraction
from .costs import CostModel
from .ged import astar_ged, beam_ged, t_centrality_ged

__version__ = "0.1.0"

__all__ = [
    "CentralityMeasure",
    "CostModel",
    "astar_ged",
    "beam_ged",
    "t_centrality_ged",
    "t_centrality_node_contraction",
    "__version__",
]
