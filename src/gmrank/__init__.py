"""Google-matrix ranking of directed hyperlink networks.

Computes PageRank, CheiRank and 2DRank by sparse power iteration, joins
per-edition rank orderings against a cross-edition person registry,
aggregates the resulting top lists into global rankings and demographic
distributions, and builds a weighted network of cultures that is re-ranked
with the same machinery.
"""

from .aggregate import (DistributionTable, GlobalEntry, classify_figures,
                        column_normalize, edition_average, gender_distribution,
                        global_ranking, language_representation, locality_ratio,
                        overlap, spatial_distribution, temporal_distribution,
                        theta_score)
from .cultures import (CULTURE_CODES, CultureRanks, build_culture_network,
                       culture_google_matrix, culture_ranks,
                       export_matrix_by_rank)
from .graph import DirectedGraph, EdgeListError, load_edge_list, reverse
from .rank import (ConvergenceError, GoogleParams, RankIndex, RankVector,
                   TwoDRankResult, cheirank, dense_google_matrix,
                   dense_stationary, pagerank, rank_indices, two_d_rank)
from .registry import (EDITION_CODES, WORLD, CountryCultureMap, Person,
                       PersonRegistry, TopList, century_of,
                       default_culture_map, load_culture_map, load_persons,
                       select_top_people)

__version__ = "0.1.0"

__all__ = [
    "CULTURE_CODES", "ConvergenceError", "CountryCultureMap", "CultureRanks",
    "DirectedGraph", "DistributionTable", "EDITION_CODES", "EdgeListError",
    "GlobalEntry", "GoogleParams", "Person", "PersonRegistry", "RankIndex",
    "RankVector", "TopList", "TwoDRankResult", "WORLD",
    "build_culture_network", "century_of", "cheirank", "classify_figures",
    "column_normalize", "culture_google_matrix", "culture_ranks",
    "default_culture_map", "dense_google_matrix", "dense_stationary",
    "edition_average", "export_matrix_by_rank", "gender_distribution",
    "global_ranking", "language_representation", "load_culture_map",
    "load_edge_list", "load_persons", "locality_ratio", "overlap", "pagerank",
    "rank_indices", "reverse", "select_top_people", "spatial_distribution",
    "temporal_distribution", "theta_score", "two_d_rank",
]
