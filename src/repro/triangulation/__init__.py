"""Minimal triangulation construction and verification."""

from .lb_triang import lb_triang, lb_triang_order
from .mcs_m import mcs_m
from .saturate import saturate_separators, saturate_bags
from .minimality import fill_edges, is_triangulation, is_minimal_triangulation
from .elimination import (
    elimination_game,
    min_degree_order,
    min_fill_order,
    triangulate_min_fill,
    triangulate_min_degree,
)

__all__ = [
    "lb_triang",
    "lb_triang_order",
    "mcs_m",
    "saturate_separators",
    "saturate_bags",
    "fill_edges",
    "is_triangulation",
    "is_minimal_triangulation",
    "elimination_game",
    "min_degree_order",
    "min_fill_order",
    "triangulate_min_fill",
    "triangulate_min_degree",
]
