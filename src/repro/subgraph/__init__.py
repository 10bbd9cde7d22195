"""Subgraph extraction and node labeling (the GSM substrate)."""

from repro.subgraph.neighborhood import k_hop_neighborhood, shortest_path_lengths
from repro.subgraph.extraction import (
    ExtractedSubgraph,
    collect_induced_edges,
    extract_enclosing_subgraph,
)
from repro.subgraph.labeling import UNREACHABLE, label_nodes, node_label_features
from repro.subgraph.provider import PinnedLRU, SubgraphProvider, extract_batch

__all__ = [
    "k_hop_neighborhood",
    "shortest_path_lengths",
    "ExtractedSubgraph",
    "collect_induced_edges",
    "extract_enclosing_subgraph",
    "UNREACHABLE",
    "label_nodes",
    "node_label_features",
    "PinnedLRU",
    "SubgraphProvider",
    "extract_batch",
]
