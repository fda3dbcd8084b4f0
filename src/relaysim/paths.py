"""Relay path enumeration, warmup statistics, and confidence-bound pruning.

Candidate paths between an endpoint and a user use at most two relays:
the direct link, every single-relay detour, and every ordered two-relay
detour, giving 1 + R + R*(R-1) paths for R relays.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import InsufficientHistoryError, ValidationError
from .traces import Topology


@dataclass(frozen=True)
class RelayPath:
    """A hop sequence endpoint -> (relays...) -> user with its enumeration id."""

    path_id: int
    hops: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.hops) < 2:
            raise ValidationError("a path needs at least sender and receiver")
        if len(set(self.hops)) != len(self.hops):
            raise ValidationError(f"path {self.hops} repeats a node")

    @property
    def relays(self) -> tuple[str, ...]:
        return self.hops[1:-1]

    def links(self) -> list[tuple[str, str]]:
        return list(zip(self.hops[:-1], self.hops[1:]))

    def __repr__(self) -> str:
        return f"RelayPath({self.path_id}: {'->'.join(self.hops)})"


@dataclass(frozen=True)
class PathStats:
    """Warmup latency statistics for one path."""

    path_id: int
    m: int
    mean_ms: float
    std_ms: float

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValidationError("sample count cannot be negative")


def path_count(n_relays: int) -> int:
    return 1 + n_relays + n_relays * (n_relays - 1)


def enumerate_paths(endpoint: str, user: str, relays: Sequence[str]) -> list[RelayPath]:
    """All candidate paths in canonical order: direct, 1-relay, ordered 2-relay.

    Path ids are indices into this order, so they are stable for a fixed
    (endpoint, user, relays) triple.
    """
    if endpoint == user:
        raise ValidationError("endpoint and user must differ")
    if len(set(relays)) != len(relays):
        raise ValidationError("duplicate relay names")
    if endpoint in relays or user in relays:
        raise ValidationError("relays must exclude the endpoint and the user")
    paths = [RelayPath(0, (endpoint, user))]
    for r in relays:
        paths.append(RelayPath(len(paths), (endpoint, r, user)))
    for r1 in relays:
        for r2 in relays:
            if r1 != r2:
                paths.append(RelayPath(len(paths), (endpoint, r1, r2, user)))
    return paths


def required_links(
    endpoint: str, user: str, relays: Sequence[str], include_reverse: bool = True
) -> list[tuple[str, str]]:
    """Every directed link any candidate path can use, in first-use order.

    include_reverse adds the user->endpoint link that carries feedback.
    """
    links: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for path in enumerate_paths(endpoint, user, relays):
        for link in path.links():
            if link not in seen:
                seen.add(link)
                links.append(link)
    reverse = (user, endpoint)
    if include_reverse and reverse not in seen:
        links.append(reverse)
    return links


def warmup_stats(
    paths: Sequence[RelayPath],
    topology: Topology,
    warmup_ms: float,
    interval_ms: float,
) -> list[PathStats]:
    """Replay [0, warmup_ms) at packet cadence and collect per-path stats."""
    if warmup_ms <= 0 or interval_ms <= 0:
        raise ValidationError("warmup_ms and interval_ms must be positive")
    ticks = np.arange(0.0, warmup_ms, interval_ms)
    if ticks.size < 2:
        raise InsufficientHistoryError("warmup shorter than two packet intervals")
    stats = []
    for path in paths:
        total = np.zeros(ticks.size)
        for src, dst in path.links():
            total += topology.trace(src, dst).at(ticks)
        stats.append(
            PathStats(
                path_id=path.path_id,
                m=int(ticks.size),
                mean_ms=float(np.mean(total)),
                std_ms=float(np.std(total, ddof=1)),
            )
        )
    return stats


def prune_topk(stats: Sequence[PathStats], confidence: float = 0.95) -> list[int]:
    """Keep every path whose mean CI overlaps the best path's.

    Each path gets the interval mean +/- z*std/sqrt(m) at the two-sided
    confidence level; a path survives when its lower bound does not exceed the
    smallest upper bound. The minimum-mean path always survives, so k >= 1.

    Returns surviving path ids in ascending order.
    """
    if not stats:
        raise ValidationError("no path stats to prune")
    if not (0 < confidence < 1):
        raise ValidationError("confidence must be in (0, 1)")
    for s in stats:
        if s.m < 2:
            raise InsufficientHistoryError(f"path {s.path_id} has m={s.m} < 2 warmup samples")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    lowers = {}
    min_upper = np.inf
    for s in stats:
        half = z * s.std_ms / np.sqrt(s.m)
        lowers[s.path_id] = s.mean_ms - half
        min_upper = min(min_upper, s.mean_ms + half)
    kept = sorted(pid for pid, lo in lowers.items() if lo <= min_upper)
    if not kept:
        raise RuntimeError("pruning must keep at least the best path")
    return kept
