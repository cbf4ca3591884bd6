"""The ε-aware answer cache of the serving layer.

Effective resistance is symmetric and a cached ε-approximate answer remains
valid for every *looser* tolerance: if ``|r'(s, t) - r(s, t)| <= ε₀`` then the
same value answers any query with ``ε >= ε₀``.  :class:`ResistanceCache`
exploits both facts — keys are canonicalised ``(min(s, t), max(s, t))`` pairs
and a lookup hits whenever the stored entry's ε *dominates* (is at most) the
requested one.  Storage is a plain LRU: recently used entries survive, and a
tighter answer for a pair replaces a looser one in place ("refinement") so the
cache monotonically improves under repeated traffic.

The cache stores plain floats; it never touches the walk engine, which is what
lets :class:`~repro.service.server.ResistanceService` answer repeated queries
with zero sampling work.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import check_positive


def canonical_pair(s: int, t: int) -> tuple[int, int]:
    """The undirected pair key: ``r`` is symmetric, so ``(s, t) ≡ (t, s)``.

    Shared by the cache, the service's batch dedup and the planner's
    refinement dedup, so all three always agree on pair identity.
    """
    return (s, t) if s <= t else (t, s)


@dataclass(frozen=True)
class CacheEntry:
    """One cached answer: the value, the ε it is guaranteed at, its producer.

    ``epoch`` records the graph epoch the answer was computed at — purely
    observational (validity across epochs is governed by the serving layer's
    localized invalidation, see :meth:`ResistanceCache.invalidate_nodes`).
    """

    value: float
    epsilon: float
    method: str = ""
    epoch: int = 0


@dataclass
class CacheStats:
    """Counters for one :class:`ResistanceCache`."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    refinements: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Background refinements rejected by :meth:`ResistanceCache.refine` —
    #: the entry was evicted/invalidated meanwhile, the graph epoch moved on,
    #: or the offered answer was no tighter than the stored one.
    dropped_refinements: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> dict[str, object]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "insertions": self.insertions,
            "refinements": self.refinements,
            "dropped_refinements": self.dropped_refinements,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class ResistanceCache:
    """An LRU cache of ε-approximate PER answers with ε-dominance lookups.

    Parameters
    ----------
    max_entries:
        Capacity; the least-recently-used pair is evicted when exceeded.

    Notes
    -----
    * ``get(s, t, epsilon)`` hits iff the pair is cached with
      ``entry.epsilon <= epsilon``.  A cached-but-too-loose entry counts as a
      miss and is left untouched (its recency is not refreshed).
    * ``put`` keeps the *tighter* of the stored and offered answers: offering a
      looser value for an already-cached pair only refreshes recency.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple[int, int], CacheEntry] = OrderedDict()
        self.stats = CacheStats()

    canonical_key = staticmethod(canonical_pair)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self.canonical_key(*pair) in self._entries

    def get(self, s: int, t: int, epsilon: float) -> Optional[CacheEntry]:
        """Return the cached entry iff it answers an ε-query for ``(s, t)``."""
        epsilon = check_positive(epsilon, "epsilon")
        key = self.canonical_key(s, t)
        entry = self._entries.get(key)
        if entry is None or entry.epsilon > epsilon:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(
        self,
        s: int,
        t: int,
        epsilon: float,
        value: float,
        method: str = "",
        *,
        epoch: int = 0,
    ) -> bool:
        """Offer an answer; returns True when it was stored (new or tighter).

        ``epsilon`` may be zero for exact answers (sketch landmark hits,
        deterministic solvers) — such entries dominate every future lookup.
        ``epoch`` tags the entry with the graph epoch that produced it.
        """
        epsilon = check_positive(epsilon, "epsilon", strict=False)
        key = self.canonical_key(s, t)
        existing = self._entries.get(key)
        if existing is not None:
            self._entries.move_to_end(key)
            if existing.epsilon <= epsilon:
                return False
            self._entries[key] = CacheEntry(float(value), epsilon, method, epoch)
            self.stats.refinements += 1
            return True
        self._entries[key] = CacheEntry(float(value), epsilon, method, epoch)
        self.stats.insertions += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return True

    def peek(self, s: int, t: int) -> Optional[CacheEntry]:
        """The stored entry for ``(s, t)`` regardless of ε, or None.

        A planning probe: neither the hit/miss counters nor the entry's LRU
        recency move, so the adaptive planner can ask "what ε do we already
        hold?" on every query without perturbing cache behaviour or stats.
        """
        return self._entries.get(self.canonical_key(s, t))

    def refine(
        self,
        s: int,
        t: int,
        epsilon: float,
        value: float,
        method: str = "",
        *,
        epoch: int,
        current_epoch: int,
    ) -> bool:
        """Land a *background-refined* answer; True iff it was accepted.

        Unlike :meth:`put`, a refinement must never create an entry: the
        anytime path stored the sketch envelope when it answered, and if that
        entry has since been evicted or invalidated, resurrecting the pair
        here would bypass the LRU policy and — worse — re-insert an answer
        for a pair the localized invalidation deliberately dropped.  A
        refinement computed against graph epoch ``epoch`` is likewise
        discarded when the service has moved to a different
        ``current_epoch``: its value describes a graph that no longer exists.
        Rejected offers count as ``dropped_refinements``.
        """
        epsilon = check_positive(epsilon, "epsilon", strict=False)
        key = self.canonical_key(s, t)
        existing = self._entries.get(key)
        if existing is None or epoch != current_epoch or existing.epsilon <= epsilon:
            self.stats.dropped_refinements += 1
            return False
        self._entries[key] = CacheEntry(float(value), epsilon, method, epoch)
        self._entries.move_to_end(key)
        self.stats.refinements += 1
        return True

    def invalidate_nodes(self, nodes) -> int:
        """Drop every entry incident to ``nodes``; returns the number dropped.

        This is the **localized invalidation** behind dynamic graphs: after an
        edge delta, only pairs with an endpoint in the touched neighborhood
        (delta endpoints, optionally expanded by
        :func:`repro.graph.delta.expand_neighborhood`) are evicted — answers
        for pairs far from the change keep serving at their recorded ε, so a
        small delta leaves a warm cache warm.
        """
        node_set = {int(node) for node in nodes}
        if not node_set:
            return 0
        doomed = [
            key for key in self._entries if key[0] in node_set or key[1] in node_set
        ]
        for key in doomed:
            del self._entries[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._entries)}/{self.max_entries}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )


__all__ = ["canonical_pair", "CacheEntry", "CacheStats", "ResistanceCache"]
