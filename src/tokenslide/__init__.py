"""Token-sliding reconfiguration graphs of independent sets.

Build TS_k(G) and friends, test their structural properties, construct
base graphs realizing given targets, decompose slide graphs over joins,
and map triangulation flip graphs onto the same machinery.
"""

from .canon import canonical_form, canonical_labeling, is_isomorphic, iso_map
from .config import node_budget
from .decompose import (Decomposition, JoinSpec, check_disconnection,
                        decompose_join, join_spec_from_json, product)
from .enumeration import (GRAPHS_MAX_N, TREES_MAX_N, enumerate_connected_graphs,
                          enumerate_graphs, enumerate_trees)
from .errors import (ConditionViolated, CycleTooSmall, DegenerateSegment,
                     ExplosionCap, GeneralPositionViolated, IndexOutOfRange,
                     InputError, KMismatch, LoopEdge, MalformedGraph6,
                     MalformedJoinSpec, NExceedsK, NExceedsWidth,
                     NoStableSetOfSizeK, NotConnected, NotIndependent,
                     NotSplit, NTooLarge, ResourceCap, SubsetViolation,
                     TokenslideError, TooFewPoints, TooLargeForIso,
                     TooLargeForSearch, TooManyPoints, UniverseOverlap,
                     UnknownSearch)
from .geometry import (GeneralPosition, SegmentGraph, check_general_position,
                       convex_hull_size, delaunay, edge_intersection_graph,
                       flip_graph, in_circle, lawson_distance, orient,
                       segments_intersect, triangulations)
from .graph import (Graph, add_isolated, complement, complete,
                    complete_bipartite, complete_minus_edge, cycle,
                    delete_vertices, disjoint_union, induced_subgraph, join,
                    make_graph, path, relabel, star)
from .io import (export_dot, format_label, graph_from_json, graph_to_json,
                 labeled_to_json, parse_graph6, write_graph6)
from .props import (INFINITE, PropertyReport, analyze, chromatic_number,
                    classify_subdivision, clique_number, components,
                    components_eulerian, diameter, girth, has_clique,
                    is_connected, is_eulerian, is_planar, is_s_partite)
from .realize import (NoneUpTo, Realization, extend_with_vG,
                      realize_complete, realize_cycle, realize_disjoint_union,
                      realize_path, realize_split, realize_star,
                      search_realizer, split_realizable)
from .reconf import (LabeledGraph, build_Fk, build_Lk, build_TS, build_TSk,
                     build_TSk_induced)
from .searches import SearchReport, run_search
from .stable import (KSPartition, all_independent_sets, alpha,
                     cliques_of_size, independent_sets_of_size, is_independent,
                     kmax_partition, omega)

__version__ = "0.1.0"
