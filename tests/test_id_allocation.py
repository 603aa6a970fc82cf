"""Tests for the three logical-id allocation strategies (paper §4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ClusterError
from repro.cluster.id_allocation import (
    MODULO_STRIDE,
    CentralAllocator,
    ContingentAllocator,
    ModuloAllocator,
    make_allocator,
)


def adopted(allocator, local_id, block=None):
    allocator.adopt(local_id, block)
    return allocator


class TestCentral:
    def test_only_site_zero_allocates(self):
        root = adopted(CentralAllocator(), 0)
        other = adopted(CentralAllocator(), 3)
        assert root.allocate() == 1
        assert other.allocate() is None
        assert other.server([0, 1, 2]) == 0

    def test_monotone_unique(self):
        root = adopted(CentralAllocator(), 0)
        ids = [root.allocate() for _ in range(100)]
        assert len(set(ids)) == 100
        assert ids == sorted(ids)
        assert 0 not in ids

    def test_note_seen_skips_ahead(self):
        root = adopted(CentralAllocator(), 0)
        root.note_seen(50)
        assert root.allocate() == 51

    def test_grants_nothing(self):
        assert adopted(CentralAllocator(), 0).grant() is None


class TestContingent:
    def test_root_grants_disjoint_blocks(self):
        root = adopted(ContingentAllocator(block_size=8), 0)
        blocks = [root.grant() for _ in range(10)]
        seen = set()
        for low, high in blocks:
            ids = set(range(low, high))
            assert len(ids) == 8
            assert not ids & seen
            seen |= ids

    def test_allocate_from_block(self):
        alloc = adopted(ContingentAllocator(block_size=4), 7, (100, 104))
        ids = [alloc.allocate() for _ in range(4)]
        assert ids == [100, 101, 102, 103]
        assert alloc.allocate() is None
        assert alloc.server([0, 3, 5]) == 0

    def test_joiner_without_block_forwards(self):
        assert adopted(ContingentAllocator(), 3).allocate() is None

    def test_root_allocates_from_own_block_too(self):
        root = adopted(ContingentAllocator(block_size=4), 0)
        own = [root.allocate() for _ in range(4)]
        low, high = root.grant()
        assert not set(own) & set(range(low, high))

    def test_spent_root_carves_itself_a_fresh_block(self):
        root = adopted(ContingentAllocator(block_size=2), 0)
        granted = root.grant()
        ids = [root.allocate() for _ in range(5)]
        assert None not in ids
        assert len(set(ids)) == 5
        assert not set(ids) & set(range(*granted))
        assert 0 not in ids

    def test_empty_block_rejected(self):
        with pytest.raises(ClusterError):
            ContingentAllocator().adopt(3, (5, 5))

    def test_non_root_cannot_grant(self):
        assert adopted(ContingentAllocator(), 3, (4, 8)).grant() is None

    def test_remaining(self):
        alloc = adopted(ContingentAllocator(), 3, (0, 3))
        alloc.allocate()
        assert [alloc.allocate(), alloc.allocate()] == [1, 2]
        assert alloc.allocate() is None


class TestModulo:
    def test_emits_own_residue_class(self):
        alloc = adopted(ModuloAllocator(), 5)
        ids = [alloc.allocate() for _ in range(10)]
        assert all(i % MODULO_STRIDE == 5 for i in ids)
        assert len(set(ids)) == 10

    def test_high_id_sites_cannot_emit(self):
        alloc = adopted(ModuloAllocator(), MODULO_STRIDE + 1)
        assert alloc.allocate() is None

    def test_forwards_to_lowest_alive_server(self):
        alloc = adopted(ModuloAllocator(), MODULO_STRIDE + 1)
        assert alloc.server([3, 9, MODULO_STRIDE]) == 3
        assert alloc.server([MODULO_STRIDE, 2 * MODULO_STRIDE]) == 0
        assert alloc.server([]) == 0

    def test_servers_never_collide(self):
        servers = [adopted(ModuloAllocator(), i) for i in range(8)]
        ids = [srv.allocate() for srv in servers for _ in range(20)]
        assert len(set(ids)) == len(ids)

    def test_note_seen_skips_own_class(self):
        alloc = adopted(ModuloAllocator(), 2)
        alloc.note_seen(2 + 5 * MODULO_STRIDE)
        assert alloc.allocate() == 2 + 6 * MODULO_STRIDE

    def test_note_seen_ignores_other_class(self):
        alloc = adopted(ModuloAllocator(), 2)
        alloc.note_seen(3 + 5 * MODULO_STRIDE)
        assert alloc.allocate() == 2 + MODULO_STRIDE


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("central", CentralAllocator),
        ("contingent", ContingentAllocator),
        ("modulo", ModuloAllocator),
    ])
    def test_make(self, name, cls):
        assert isinstance(make_allocator(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ClusterError):
            make_allocator("quantum")


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                max_size=50))
def test_modulo_uniqueness_property(sequence):
    """Any interleaving of allocations across servers stays collision-free."""
    servers = {i: adopted(ModuloAllocator(), i) for i in range(8)}
    out = [servers[i].allocate() for i in sequence]
    assert len(set(out)) == len(out)
