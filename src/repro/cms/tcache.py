"""The translation cache.

"Caching the translations in a translation cache allows CMS to re-use
translations ... the initial cost of the translation is amortized over
repeated executions" (paper Section 2.2).  Real CMS reserves a slice of
system DRAM for this; we model a byte-capacity cache with LRU
replacement, keyed by guest entry pc.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.domains import whole
from repro.vliw.engine import TranslatedBlock

#: ``CmsConfig.tcache_bytes``'s domain.
_BYTES = whole(1)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TranslationCache:
    """LRU cache of translated blocks with a byte budget."""

    def __init__(self, capacity_bytes: int = 1 << 20) -> None:
        _BYTES.check("TranslationCache.capacity_bytes", capacity_bytes)
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[int, TranslatedBlock]" = OrderedDict()
        self._used_bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_pc: int) -> bool:
        return entry_pc in self._entries

    def lookup(self, entry_pc: int) -> Optional[TranslatedBlock]:
        """Return the cached translation for *entry_pc*, if present."""
        block = self._entries.get(entry_pc)
        if block is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(entry_pc)
        self.stats.hits += 1
        return block

    def insert(self, block: TranslatedBlock) -> None:
        """Insert a translation, evicting LRU entries to fit."""
        size = block.code_bytes
        if size > self.capacity_bytes:
            # A single oversized translation cannot be cached; it will be
            # retranslated on every visit (pathological but well-defined).
            return
        if block.entry_pc in self._entries:
            old = self._entries.pop(block.entry_pc)
            self._used_bytes -= old.code_bytes
        while self._used_bytes + size > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._used_bytes -= evicted.code_bytes
        self._entries[block.entry_pc] = block
        self._used_bytes += size

    def flush(self) -> None:
        """Drop everything (models a CMS upgrade or chain invalidation)."""
        self._entries.clear()
        self._used_bytes = 0
