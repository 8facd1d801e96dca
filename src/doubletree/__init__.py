"""Minimum-weight double-tree shortcutting heuristics for Metric TSP.

Pipeline: build an instance, take its minimum spanning tree, root it at a
degree-1 node, optionally enlarge the admissible-tour space by reattaching
children under a degree cap, then run the subset dynamic program (upsweep)
and reconstruct the optimal admissible tour (downsweep).
"""

from .downsweep import Tour, downsweep, write_tour_plain, write_tour_tsplib
from .errors import (
    ConfigError,
    DoubleTreeError,
    GuardError,
    InternalInvariantError,
    ParseError,
)
from .hk_bound import AscentSummary, held_karp_ascent, held_karp_lower_bound
from .instances import (
    Instance,
    Metric,
    cycle_weight,
    generate_clustered,
    generate_uniform,
    parse_tsplib,
    write_tsplib,
)
from .oracles import (
    brute_force_optimal,
    depth_first_shortcut,
    enumerate_conforming_min,
    is_conforming,
)
from .spanning_tree import (
    RootedTree,
    degree_increase,
    minimum_spanning_tree,
    root_tree,
)
from .upsweep import UpsweepResult, upsweep

__version__ = "0.1.0"

__all__ = [
    "AscentSummary",
    "ConfigError",
    "DoubleTreeError",
    "GuardError",
    "Instance",
    "InternalInvariantError",
    "Metric",
    "ParseError",
    "RootedTree",
    "Tour",
    "UpsweepResult",
    "brute_force_optimal",
    "cycle_weight",
    "degree_increase",
    "depth_first_shortcut",
    "downsweep",
    "enumerate_conforming_min",
    "generate_clustered",
    "generate_uniform",
    "held_karp_ascent",
    "held_karp_lower_bound",
    "is_conforming",
    "minimum_spanning_tree",
    "parse_tsplib",
    "root_tree",
    "upsweep",
    "write_tour_plain",
    "write_tour_tsplib",
    "write_tsplib",
]
