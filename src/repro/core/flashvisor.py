"""Flashvisor: the LWP that virtualizes the flash backbone (Section 4.3).

Flashvisor owns the page-group mapping table (kept in the scratchpad),
translates word-based backbone addresses into physical page groups, checks
permissions through the range lock, and issues the resulting flash
transactions to the FPGA controllers.  Kernels never talk to the flash
firmware directly — they pass a queue message containing the request type,
a pointer to their data section, and the word address; Flashvisor does the
rest and the controllers deposit the data in DDR3L.

The class below exposes two timed operations used by the execution
engines:

* :meth:`map_for_read` — translate + read the data section into DDR3L.
* :meth:`map_for_write` — allocate new page groups, buffer the write in
  DDR3L and queue the flash programs for background flushing.

Both include the hardware-queue message latency and the per-group
translation cost charged to the Flashvisor LWP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NoReturn, Optional, Sequence

from ..sim.engine import Environment
from ..hw.interconnect import MessageQueue
from ..hw.lwp import LWP
from ..hw.memory import DDR3L, Scratchpad
from ..hw.power import STORAGE_ACCESS, EnergyAccountant
from ..flash.backbone import FlashBackbone
from ..flash.ftl import BlockAllocator, OutOfSpaceError, PageGroupMappingTable
from .kernel import Kernel
from .range_lock import READ, WRITE, RangeLock


@dataclass
class MappingRequest:
    """The queue message a kernel sends to Flashvisor (Figure 9)."""

    request_type: str            # "read" | "write"
    kernel_id: int
    data_section_pointer: int    # DDR3L address of the data section
    flash_word_address: int
    num_bytes: int


@dataclass
class FlashvisorStats:
    """Operation counters exposed for tests and reports."""

    read_requests: int = 0
    write_requests: int = 0
    translations: int = 0
    groups_read: int = 0
    groups_allocated: int = 0
    lock_conflicts: int = 0
    lock_wait_time: float = 0.0
    reclaim_requests: int = 0


class Flashvisor:
    """Address translation, protection, and I/O brokering for the backbone."""

    #: Cycles Flashvisor spends to look up / update one page-group entry.
    TRANSLATION_CYCLES_PER_GROUP = 60
    #: Seconds between retries when a range-lock conflict blocks a request.
    LOCK_RETRY_INTERVAL_S = 20e-6

    def __init__(self, env: Environment, lwp: LWP, backbone: FlashBackbone,
                 ddr: DDR3L, scratchpad: Scratchpad,
                 queue: MessageQueue,
                 energy: Optional[EnergyAccountant] = None,
                 word_bytes: int = 4):
        self.env = env
        self.lwp = lwp
        self.backbone = backbone
        self.ddr = ddr
        self.scratchpad = scratchpad
        self.queue = queue
        self.energy = energy
        self.word_bytes = word_bytes
        self.geometry = backbone.geometry
        self.mapping = PageGroupMappingTable(self.geometry)
        self.allocator = BlockAllocator(self.geometry,
                                        backbone.spec.overprovision)
        self.range_lock = RangeLock()
        self.stats = FlashvisorStats()
        self.pending_flush_bytes = 0
        self._next_write_group = 0
        scratchpad.allocate("flashvisor.mapping_table",
                            min(self.mapping.size_bytes(),
                                scratchpad.capacity_bytes // 2))

    # ------------------------------------------------------------------ #
    # Address translation (pure logic, no simulated time)                 #
    # ------------------------------------------------------------------ #
    def translate_read(self, flash_word_address: int,
                       num_bytes: int) -> List[int]:
        """Logical word address + length -> physical page-group numbers.

        Follows Figure 9a: divide the word address by the channel count to
        obtain the logical page group, look it up in the mapping table, and
        derive the package index / page number from the physical group.
        Unmapped logical groups are treated as freshly-initialized data
        (mapped on first use), mirroring how the prototype pre-loads input
        files into the backbone.
        """
        start_group, count = self._group_range(flash_word_address, num_bytes)
        physical_groups = self.mapping.lookup_range(start_group, count)
        unmapped = [index for index, physical in enumerate(physical_groups)
                    if physical is None]
        if unmapped:
            fresh = self._map_fresh([start_group + index
                                     for index in unmapped])
            for index, physical in zip(unmapped, fresh):
                physical_groups[index] = physical
            if len(fresh) < len(unmapped):
                self._out_of_space(unmapped[len(fresh)])
        self.stats.translations += count
        return physical_groups

    def translate_write(self, flash_word_address: int,
                        num_bytes: int) -> List[int]:
        """Allocate fresh physical groups for a write (log-structured)."""
        start_group, count = self._group_range(flash_word_address, num_bytes)
        fits = min(count, self.allocator.free_group_count)
        # The stale copy of each group is retired before its replacement
        # is allocated, so a write that runs out of space has retired one
        # group more than it rebound.
        stale = self.mapping.lookup_range(start_group, min(count, fits + 1))
        self.allocator.invalidate_groups(
            [physical for physical in stale if physical is not None])
        physical_groups = self._map_fresh(
            range(start_group, start_group + fits))
        if fits < count:
            self._out_of_space(fits)
        self.stats.translations += count
        return physical_groups

    def _group_range(self, flash_word_address: int, num_bytes: int):
        """(first logical group, group count) covering a data section."""
        geometry = self.geometry
        return (geometry.word_address_to_group(flash_word_address,
                                                self.word_bytes),
                geometry.bytes_to_page_groups(num_bytes))

    def _map_fresh(self, logical_groups: Sequence[int]) -> List[int]:
        """Bind the leading ``logical_groups`` to fresh physical groups.

        Binds as many as there are free groups, in order, and returns the
        physical groups bound.
        """
        allocator = self.allocator
        physical_groups = allocator.allocate_groups(
            min(len(logical_groups), allocator.free_group_count))
        self.mapping.update_range(logical_groups, physical_groups)
        self.stats.groups_allocated += len(physical_groups)
        return physical_groups

    def _out_of_space(self, translated: int) -> NoReturn:
        """Count the ``translated`` groups done, then raise OutOfSpaceError."""
        self.stats.translations += translated
        self.stats.reclaim_requests += 1
        raise OutOfSpaceError("no free block rows; GC required")

    # ------------------------------------------------------------------ #
    # Timed request handling                                              #
    # ------------------------------------------------------------------ #
    def _translation_time(self, num_bytes: int) -> float:
        groups = max(1, self.geometry.bytes_to_page_groups(num_bytes))
        cycles = groups * self.TRANSLATION_CYCLES_PER_GROUP
        return cycles / self.lwp.spec.frequency_hz

    def _message_overhead(self):
        """Queue message latency from the requesting LWP to Flashvisor."""
        yield self.env.timeout(self.queue.latency_s)

    def _acquire_range_lock(self, start_group: int, end_group: int,
                            mode: str, owner: int):
        """Process generator: block until the range lock is granted."""
        wait_start = self.env.now
        while True:
            conflict = self.range_lock.try_acquire(start_group, end_group,
                                                   mode, owner)
            if conflict is None:
                break
            self.stats.lock_conflicts += 1
            yield self.env.timeout(self.LOCK_RETRY_INTERVAL_S)
        self.stats.lock_wait_time += self.env.now - wait_start

    def map_for_read(self, kernel: Kernel, flash_word_address: int,
                     num_bytes: int):
        """Process generator: map + fetch a data section for reading.

        Returns the number of bytes brought into DDR3L.
        """
        if num_bytes <= 0:
            return 0
        self.stats.read_requests += 1
        yield from self._message_overhead()
        start_group = self.geometry.word_address_to_group(
            flash_word_address, self.word_bytes)
        end_group = start_group + max(
            0, self.geometry.bytes_to_page_groups(num_bytes) - 1)
        yield from self._acquire_range_lock(start_group, end_group, READ,
                                            kernel.kernel_id)
        try:
            # Translation runs on the Flashvisor LWP and touches the
            # scratchpad-resident table.
            yield from self.lwp.busy_for(self._translation_time(num_bytes),
                                         bucket=STORAGE_ACCESS)
            groups = self.translate_read(flash_word_address, num_bytes)
            self.stats.groups_read += len(groups)
            # Stream the data out of the backbone and land it in DDR3L.
            yield from self.backbone.bulk_read(num_bytes)
            yield from self.ddr.write(num_bytes)
        finally:
            self.range_lock.release(start_group, end_group, kernel.kernel_id)
        return num_bytes

    def map_for_write(self, kernel: Kernel, flash_word_address: int,
                      num_bytes: int):
        """Process generator: map a data section for writing.

        The payload is buffered in DDR3L (which "buffers the majority of
        flash writes", Section 2.2); the flash programs themselves are
        queued as pending flush work that Storengine drains in the
        background, so the requesting worker is not stalled on the 2.6 ms
        TLC program latency.
        """
        if num_bytes <= 0:
            return 0
        self.stats.write_requests += 1
        yield from self._message_overhead()
        start_group = self.geometry.word_address_to_group(
            flash_word_address, self.word_bytes)
        end_group = start_group + max(
            0, self.geometry.bytes_to_page_groups(num_bytes) - 1)
        yield from self._acquire_range_lock(start_group, end_group, WRITE,
                                            kernel.kernel_id)
        try:
            yield from self.lwp.busy_for(self._translation_time(num_bytes),
                                         bucket=STORAGE_ACCESS)
            self.translate_write(flash_word_address, num_bytes)
            yield from self.ddr.write(num_bytes)
            self.pending_flush_bytes += num_bytes
        finally:
            self.range_lock.release(start_group, end_group, kernel.kernel_id)
        return num_bytes

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    def mapping_table_bytes(self) -> int:
        """Scratchpad footprint of the full mapping table (paper: ~2 MB)."""
        return self.mapping.size_bytes()

    def mapped_capacity_bytes(self) -> int:
        return len(self.mapping.mapped_groups()) * self.geometry.page_group_bytes
