"""Range translation equals translating one page group at a time.

Flashvisor translates a data section's whole page-group range per call
(``PageGroupMappingTable.lookup_range``/``update_range``,
``BlockAllocator.allocate_groups``/``invalidate_groups``).  The reference
below keeps the per-group loops those calls replaced.  Any sequence of
reads and writes, including ranges that cross block rows, overwrites,
partly-mapped reads and running out of space, must leave both with the
same mapping, allocator state and counters, and a garbage-collection pass
afterwards must migrate the same groups.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from hypothesis import example, given, settings, strategies as st

from repro.core.flashvisor import Flashvisor
from repro.core.storengine import Storengine
from repro.flash.backbone import FlashBackbone
from repro.flash.ftl import OutOfSpaceError
from repro.hw.interconnect import Interconnect
from repro.hw.lwp import LWPCluster
from repro.hw.memory import DDR3L, Scratchpad
from repro.hw.power import EnergyAccountant
from repro.hw.spec import FlashSpec, prototype_spec
from repro.sim import Environment


class PerGroupFlashvisor(Flashvisor):
    """Reference: translation one page group per FTL call."""

    def translate_read(self, flash_word_address, num_bytes):
        start_group = self.geometry.word_address_to_group(
            flash_word_address, self.word_bytes)
        physical_groups = []
        for offset in range(self.geometry.bytes_to_page_groups(num_bytes)):
            logical = start_group + offset
            physical = self.mapping.lookup(logical)
            if physical is None:
                physical = self._allocate_one(logical)
            physical_groups.append(physical)
            self.stats.translations += 1
        return physical_groups

    def translate_write(self, flash_word_address, num_bytes):
        start_group = self.geometry.word_address_to_group(
            flash_word_address, self.word_bytes)
        physical_groups = []
        for offset in range(self.geometry.bytes_to_page_groups(num_bytes)):
            logical = start_group + offset
            stale = self.mapping.lookup(logical)
            if stale is not None:
                self.allocator.invalidate_group(stale)
            physical_groups.append(self._allocate_one(logical))
            self.stats.translations += 1
        return physical_groups

    def _allocate_one(self, logical):
        try:
            physical = self.allocator.allocate_group()
        except OutOfSpaceError:
            self.stats.reclaim_requests += 1
            raise
        self.mapping.update(logical, physical)
        self.stats.groups_allocated += 1
        return physical


#: 8 page groups per block row, 64 groups in all, 20% overprovisioned.
TINY_FLASH = FlashSpec(
    channels=2, packages_per_channel=1, dies_per_package=1,
    planes_per_die=2, page_bytes=4096, pages_per_block=8, blocks_per_die=16,
    page_read_latency_s=10e-6, page_program_latency_s=100e-6,
    block_erase_latency_s=200e-6,
    channel_bus_bandwidth=400 * 1024 * 1024, overprovision=0.2)
SPEC = replace(prototype_spec(), flash=TINY_FLASH)


def build(flashvisor_class):
    env = Environment()
    energy = EnergyAccountant()
    cluster = LWPCluster(env, SPEC.lwp, energy)
    backbone = FlashBackbone(env, SPEC.flash, energy)
    flashvisor = flashvisor_class(
        env, cluster.flashvisor_lwp, backbone,
        DDR3L(env, SPEC.memory, energy), Scratchpad(env, SPEC.memory, energy),
        Interconnect(env, SPEC.interconnect).new_queue("fv"), energy)
    storengine = Storengine(env, cluster.storengine_lwp, flashvisor,
                            backbone, energy)
    storengine.stop()       # GC runs only when the test asks for it
    return env, flashvisor, storengine


def state(flashvisor):
    mapping = flashvisor.mapping
    allocator = flashvisor.allocator
    total = flashvisor.geometry.page_groups_total
    return {
        "forward": {logical: mapping.lookup(logical)
                    for logical in mapping.mapped_groups()},
        "reverse": {physical: mapping.reverse_lookup(physical)
                    for physical in range(total)
                    if mapping.reverse_lookup(physical) is not None},
        "rows": {row_id: (sorted(row.valid_groups), row.next_free_offset,
                          row.erase_count)
                 for row_id, row in allocator.rows.items()},
        "free_rows": list(allocator.free_rows),
        "used_rows": list(allocator.used_rows),
        "free_groups": allocator.free_group_count,
        "groups_written": allocator.groups_written,
        "stats": asdict(flashvisor.stats),
    }


def apply(flashvisor, op):
    kind, word_address, num_bytes = op
    translate = (flashvisor.translate_read if kind == "read"
                 else flashvisor.translate_write)
    try:
        return translate(word_address, num_bytes)
    except OutOfSpaceError:
        return "out of space"


def gc_pass(env, storengine):
    """Reclaim every used row, as Storengine's background loop would."""
    def collect():
        for _ in range(len(storengine.flashvisor.allocator.used_rows)):
            yield from storengine._collect_garbage()

    env.process(collect())
    env.run()
    return asdict(storengine.stats)


GROUP_BYTES = 4 * 4096
WORDS_PER_GROUP = GROUP_BYTES // 4
OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        # Start anywhere inside a group, so unaligned sections count too.
        st.integers(0, 63 * WORDS_PER_GROUP + WORDS_PER_GROUP - 1),
        # Up to 20 groups: sections span up to three block rows.
        st.integers(0, 20 * GROUP_BYTES)),
    max_size=14)


@settings(max_examples=150, deadline=None)
@given(ops=OPS)
# A partly-mapped read across a row boundary, then an overwrite.
@example(ops=[("write", 6 * WORDS_PER_GROUP, 2 * GROUP_BYTES),
              ("read", 4 * WORDS_PER_GROUP, 6 * GROUP_BYTES),
              ("write", 5 * WORDS_PER_GROUP + 7, 4 * GROUP_BYTES - 1)])
# Runs out of space in the middle of an overwrite.
@example(ops=[("write", 0, 20 * GROUP_BYTES)] * 4)
# Runs out of space in the middle of a partly-mapped read.
@example(ops=[("write", 0, 20 * GROUP_BYTES),
              ("write", 20 * WORDS_PER_GROUP, 20 * GROUP_BYTES),
              ("write", 40 * WORDS_PER_GROUP, 20 * GROUP_BYTES),
              ("read", 56 * WORDS_PER_GROUP, 14 * GROUP_BYTES)])
def test_range_translation_matches_per_group(ops):
    env, flashvisor, storengine = build(Flashvisor)
    ref_env, reference, ref_storengine = build(PerGroupFlashvisor)
    for op in ops:
        assert apply(flashvisor, op) == apply(reference, op), op
        assert state(flashvisor) == state(reference), op
    assert gc_pass(env, storengine) == gc_pass(ref_env, ref_storengine)
    assert state(flashvisor) == state(reference)
    assert env.now == ref_env.now
