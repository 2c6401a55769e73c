"""The L1/L2/LLC write-back hierarchy in front of the memory controller.

The hierarchy is mostly-inclusive and write-allocate.  It resolves each
core reference to a latency plus the set of dirty lines it pushed out
of the LLC (which become write requests at the memory controller), and
implements the persist primitives:

* ``clwb(addr)`` — write a dirty line back toward memory, keeping it
  resident clean; produces a write request if the line was dirty
  anywhere in the hierarchy.
* ``clflush(addr)`` — same, but invalidates.

Persist *completion* (what ``sfence`` waits on) is owned by the memory
controller — the hierarchy only reports when the writeback *leaves* the
LLC for the controller.

Nothing here depends on the controller design, so a simulation does not
own a hierarchy: :func:`repro.cpu.resolve.resolve` walks a trace
through a private one once per (geometry, latencies, IPC), and every
design replays the resulting memory-facing stream.

Hot path: when all three levels share one line size (every shipped
config) the access/fill/victim-cascade sequence runs on the caches'
set dictionaries directly — one line-number computation and no
per-level method calls.  Exotic mixed-line-size configs fall back to
the generic per-cache API; both paths are semantically identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import SimConfig
from repro.mem.cache import EvictedLine, SetAssociativeCache


@dataclass(slots=True)
class AccessResult:
    """Outcome of one core reference through the hierarchy."""

    #: Cycles until the datum is available to the core (hierarchy
    #: traversal only; the controller adds memory time on a miss).
    latency: int
    #: True if the reference missed all levels and needs memory.
    needs_memory: bool
    #: Dirty lines evicted from the LLC by fills along the way; each
    #: becomes an (unordered, non-persist) write at the controller.
    writebacks: List[int] = field(default_factory=list)


class CacheHierarchy:
    """Three-level write-back hierarchy (Table 1 geometry)."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.l1 = SetAssociativeCache(config.l1)
        self.l2 = SetAssociativeCache(config.l2)
        self.llc = SetAssociativeCache(config.llc)
        self._levels = [self.l1, self.l2, self.llc]
        # Cumulative traversal latency down to each level (and through
        # all of them on a full miss) — computed once, not per access.
        lat1 = config.l1.latency
        lat2 = lat1 + config.l2.latency
        lat3 = lat2 + config.llc.latency
        self._cum_latency = (lat1, lat2, lat3)
        # Fused fast path needs one shared line-number space.
        shifts = {c._line_shift for c in self._levels}
        self._uniform_lines = len(shifts) == 1
        self._line_shift = self._levels[0]._line_shift
        #: Per-level hot-state handles: (cache, sets, num_sets, assoc).
        self._hot = [
            (c, c._sets, c._num_sets, c._assoc) for c in self._levels
        ]
        self.flush_hits_dirty = 0
        self.flush_misses = 0

    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool) -> AccessResult:
        """Simulate a load/store at ``address`` (any byte address)."""
        if not self._uniform_lines:
            return self._access_generic(address, is_write)
        line = address >> self._line_shift
        hot = self._hot

        # Fast path: an L1 hit fills nothing and evicts nothing, which
        # is the overwhelming majority of references in the workloads.
        l1, l1_sets, l1_ns, _ = hot[0]
        set1 = l1_sets[line % l1_ns]
        tag1 = line // l1_ns
        state = set1.get(tag1)
        if state is not None:
            l1.hits += 1
            del set1[tag1]
            set1[tag1] = 1 if is_write else state
            return AccessResult(self._cum_latency[0], needs_memory=False)
        l1.misses += 1

        writebacks: List[int] = []
        l2, l2_sets, l2_ns, _ = hot[1]
        set2 = l2_sets[line % l2_ns]
        tag2 = line // l2_ns
        state = set2.get(tag2)
        if state is not None:
            l2.hits += 1
            del set2[tag2]
            set2[tag2] = 1 if is_write else state
            self._fill(line, 1, is_write, writebacks)
            return AccessResult(
                self._cum_latency[1], needs_memory=False, writebacks=writebacks
            )
        l2.misses += 1

        llc, llc_sets, llc_ns, _ = hot[2]
        set3 = llc_sets[line % llc_ns]
        tag3 = line // llc_ns
        state = set3.get(tag3)
        if state is not None:
            llc.hits += 1
            del set3[tag3]
            set3[tag3] = 1 if is_write else state
            self._fill(line, 2, is_write, writebacks)
            return AccessResult(
                self._cum_latency[2], needs_memory=False, writebacks=writebacks
            )
        llc.misses += 1

        # Missed everywhere: fill the whole path from memory.
        self._fill(line, 3, is_write, writebacks)
        return AccessResult(
            self._cum_latency[2], needs_memory=True, writebacks=writebacks
        )

    def _fill(
        self,
        line: int,
        below_depth: int,
        is_write: bool,
        writebacks: List[int],
    ) -> None:
        """Fused fill of every level above ``below_depth``.

        Semantically identical to the generic ``insert`` +
        victim-cascade sequence: levels fill deepest-first, each fill's
        *dirty* victim is pushed down level by level, and a dirty
        victim leaving the LLC lands in ``writebacks``.
        """
        hot = self._hot
        line_shift = self._line_shift
        for depth in range(below_depth - 1, -1, -1):
            cache, sets, num_sets, assoc = hot[depth]
            cache_set = sets[line % num_sets]
            tag = line // num_sets
            fill_state = 1 if (is_write and depth == 0) else 0
            state = cache_set.get(tag)
            if state is not None:
                # Upgrade in place; never downgrade dirty -> clean.
                del cache_set[tag]
                cache_set[tag] = 1 if fill_state else state
                continue
            victim_line = None
            if len(cache_set) >= assoc:
                victim_tag = next(iter(cache_set))
                if cache_set.pop(victim_tag):
                    cache.dirty_evictions += 1
                    victim_line = victim_tag * num_sets + (line % num_sets)
            cache_set[tag] = fill_state
            # Cascade the dirty victim downward (clean victims drop).
            level = depth
            while victim_line is not None:
                level += 1
                if level >= 3:
                    writebacks.append(victim_line << line_shift)
                    break
                vcache, vsets, vns, vassoc = hot[level]
                vset = vsets[victim_line % vns]
                vtag = victim_line // vns
                vstate = vset.get(vtag)
                if vstate is not None:
                    del vset[vtag]
                    vset[vtag] = 1
                    break
                next_victim = None
                if len(vset) >= vassoc:
                    wtag = next(iter(vset))
                    if vset.pop(wtag):
                        vcache.dirty_evictions += 1
                        next_victim = wtag * vns + (victim_line % vns)
                vset[vtag] = 1
                victim_line = next_victim

    # -- generic (mixed line sizes) fallback ---------------------------
    def _access_generic(self, address: int, is_write: bool) -> AccessResult:
        address = self.l1.line_address(address)
        if self.l1.access(address, is_write):
            return AccessResult(self._cum_latency[0], needs_memory=False)
        writebacks: List[int] = []
        if self.l2.access(address, is_write):
            self._fill_upper(address, 1, is_write, writebacks)
            return AccessResult(
                self._cum_latency[1], needs_memory=False, writebacks=writebacks
            )
        if self.llc.access(address, is_write):
            self._fill_upper(address, 2, is_write, writebacks)
            return AccessResult(
                self._cum_latency[2], needs_memory=False, writebacks=writebacks
            )
        self._fill_upper(address, 3, is_write, writebacks)
        return AccessResult(
            self._cum_latency[2], needs_memory=True, writebacks=writebacks
        )

    def _fill_upper(
        self,
        address: int,
        below_depth: int,
        is_write: bool,
        writebacks: List[int],
    ) -> None:
        """Insert the line into every level above ``below_depth``.

        Victims cascade downward; a dirty victim leaving the LLC lands
        in ``writebacks`` as a memory write request.
        """
        for depth in range(below_depth - 1, -1, -1):
            victim = self._levels[depth].insert(
                address, dirty=is_write and depth == 0
            )
            self._push_victim(victim, depth, writebacks)

    def _push_victim(
        self,
        victim: Optional[EvictedLine],
        from_depth: int,
        writebacks: List[int],
    ) -> None:
        while victim is not None and victim.dirty:
            next_depth = from_depth + 1
            if next_depth >= len(self._levels):
                writebacks.append(victim.address)
                return
            victim = self._levels[next_depth].insert(victim.address, dirty=True)
            from_depth = next_depth

    # ------------------------------------------------------------------
    # Persist primitives
    # ------------------------------------------------------------------
    def clwb(self, address: int) -> Optional[int]:
        """Write back ``address`` if dirty; return the line address to
        persist or ``None`` if it was clean/absent everywhere."""
        if not self._uniform_lines:
            return self._clwb_generic(address)
        line = address >> self._line_shift
        dirty = False
        for _cache, sets, num_sets, _assoc in self._hot:
            cache_set = sets[line % num_sets]
            tag = line // num_sets
            state = cache_set.get(tag)
            if state is not None:
                # In-place downgrade keeps LRU position, exactly like
                # SetAssociativeCache.clean_line.
                cache_set[tag] = 0
                if state:
                    dirty = True
        if dirty:
            self.flush_hits_dirty += 1
            return line << self._line_shift
        self.flush_misses += 1
        return None

    def _clwb_generic(self, address: int) -> Optional[int]:
        address = self.l1.line_address(address)
        dirty = False
        for cache in self._levels:
            if cache.clean_line(address):
                dirty = True
        if dirty:
            self.flush_hits_dirty += 1
            return address
        self.flush_misses += 1
        return None

    def clflush(self, address: int) -> Optional[int]:
        """Invalidate ``address`` everywhere; return it if it was dirty."""
        address = self.l1.line_address(address)
        dirty = False
        for cache in self._levels:
            victim = cache.invalidate_line(address)
            if victim is not None and victim.dirty:
                dirty = True
        if dirty:
            self.flush_hits_dirty += 1
            return address
        self.flush_misses += 1
        return None

    def flush_latency(self) -> int:
        """Cycles for a flush to traverse the hierarchy to the controller."""
        return sum(c.config.latency for c in self._levels)

    def dirty_lines(self) -> List[int]:
        """All lines dirty anywhere in the hierarchy (crash-test oracle)."""
        dirty = set()
        for cache in self._levels:
            for line, state in cache.resident_lines():
                if state.value == "dirty":
                    dirty.add(line)
        return sorted(dirty)
