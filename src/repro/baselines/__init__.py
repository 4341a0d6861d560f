"""Baselines and test oracles: brute force, CKK."""

from .brute import minimal_triangulations_bruteforce, minimal_triangulations_via_mis
from .ckk import CKKResult, ckk_enumeration

__all__ = [
    "minimal_triangulations_bruteforce",
    "minimal_triangulations_via_mis",
    "CKKResult",
    "ckk_enumeration",
]
