"""Derived seeds: one stable integer mix shared by the simulation lab and the cost forest."""
from __future__ import annotations


def splitmix64(*parts: int) -> int:
    """Stable 64-bit mix of integers; drives all derived seeding.

    Same constants as the SplitMix64 generator, applied sequentially to
    each part, so (master_seed, rep) -> seed is reproducible in any
    language that implements the same mix.
    """
    mask = (1 << 64) - 1
    state = 0x9E3779B97F4A7C15
    for part in parts:
        state = (state ^ (part & mask)) * 0xBF58476D1CE4E5B9 & mask
        state = (state ^ (state >> 27)) * 0x94D049BB133111EB & mask
        state = state ^ (state >> 31)
    return state
