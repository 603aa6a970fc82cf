"""Tests for the attraction-memory directory: homesite first, the heir
rule (lowest alive id above, wrapping) for orphans.

Covers what each hop of an object's life costs in messages and who
records it, the DIR_UPDATE protocol (epoch fencing, republishing on join
and departure), and the regression the orphan rule was built against:
losing the ownership record when the creating site dies.
"""

from __future__ import annotations

import pytest

from repro.common.errors import MemoryFault
from repro.common.ids import GlobalAddress, ManagerId
from repro.messages import MsgType, SDMessage
from repro.site.simcluster import SimCluster


# ---------------------------------------------------------------------------
# DIR_UPDATE protocol

@pytest.fixture
def trio(fast_config):
    cluster = SimCluster(nsites=3, config=fast_config)
    cluster.sim.run(until=0.2)
    return cluster, cluster.sites[0], cluster.sites[1], cluster.sites[2]


def _dir_shard(cluster, addr, view=None):
    """The directory site of ``addr`` as ``view`` (default: the first
    site) sees the membership; every live member agrees once settled."""
    view = view or cluster.sites[0]
    return cluster.site_by_logical(view.cluster_manager.dir_site_for(addr))


def _sent(cluster):
    """Messages handed to the wire so far, cluster-wide."""
    return sum(site.message_manager.stats.get("sent").count
               for site in cluster.sites)


def _mem_stat(site, name):
    return site.attraction_memory.stats.get(name).count


class TestDirUpdate:
    def test_alloc_seeds_directory_shard(self, trio):
        cluster, a, _b, _c = trio
        addr = a.attraction_memory.alloc_object("v")
        cluster.sim.run(until=0.4)
        shard = _dir_shard(cluster, addr)
        assert shard.attraction_memory.dir_owner(addr) == a.site_id

    def test_migration_updates_directory_shard(self, trio):
        cluster, a, b, _c = trio
        addr = a.attraction_memory.alloc_object("v")
        cluster.sim.run(until=0.4)
        got = []
        b.attraction_memory.live_read(addr, lambda v, e=None: got.append(v))
        cluster.sim.run(until=0.8)
        assert got == ["v"]
        assert addr in b.attraction_memory.objects
        assert addr not in a.attraction_memory.objects
        shard = _dir_shard(cluster, addr)
        assert shard.attraction_memory.dir_owner(addr) == b.site_id

    def test_stale_epoch_update_is_dropped(self, trio):
        cluster, a, b, _c = trio
        addr = a.attraction_memory.alloc_object("v")
        cluster.sim.run(until=0.4)
        shard = _dir_shard(cluster, addr)
        shard.epoch = 3  # as if a rollback recovery happened here
        stale = SDMessage(
            type=MsgType.DIR_UPDATE,
            src_site=b.site_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=shard.site_id, dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={"addr": addr, "owner": b.site_id,
                     "version": 99, "epoch": 2},
        )
        b.message_manager.send(stale)
        cluster.sim.run(until=0.8)
        assert shard.attraction_memory.dir_owner(addr) == a.site_id
        assert shard.attraction_memory.stats.get(
            "stale_dir_updates_dropped").count >= 1

    def test_version_fencing_keeps_newest_owner(self, trio):
        """A reordered DIR_UPDATE from an older hop in the ownership chain
        must not overwrite the newer entry."""
        cluster, a, b, c = trio
        addr = a.attraction_memory.alloc_object("v")
        cluster.sim.run(until=0.4)
        shard = _dir_shard(cluster, addr)
        mem = shard.attraction_memory
        mem._apply_dir_entry(addr, c.site_id, 5, 0)
        mem._apply_dir_entry(addr, b.site_id, 3, 0)  # late, older version
        assert mem.dir_owner(addr) == c.site_id
        mem._apply_dir_entry(addr, b.site_id, 6, 0)
        assert mem.dir_owner(addr) == b.site_id

    def test_departure_rehomes_directory_entries(self, trio):
        """When a homesite dies, the survivors agree on who answers for
        its orphaned addresses — the lowest alive id above it — and the
        owner republishes there, so reads keep resolving."""
        cluster, a, b, c = trio
        addr = a.attraction_memory.alloc_object("v")
        cluster.sim.run(until=0.4)
        # migrate ownership to b via the real message protocol
        got = []
        b.attraction_memory.live_read(addr, lambda v, e=None: got.append(v))
        cluster.sim.run(until=0.8)
        assert got == ["v"]
        assert _dir_shard(cluster, addr, view=c) is a
        a.crash()
        for survivor in (b, c):
            survivor.cluster_manager.mark_dead(a.site_id, left=False)
        cluster.sim.run(until=1.2)
        shard = _dir_shard(cluster, addr, view=b)
        assert shard is _dir_shard(cluster, addr, view=c)
        assert shard is b
        assert shard.attraction_memory.dir_owner(addr) == b.site_id


class TestHomesiteDirectory:
    """The homesite is the directory while it lives: what each hop of an
    object's life costs in messages, and who records it."""

    def test_allocation_sends_no_message(self, trio):
        cluster, a, b, c = trio
        before = _sent(cluster)
        addrs = [a.attraction_memory.alloc_object(i) for i in range(20)]
        addrs += [c.attraction_memory.alloc_object(i) for i in range(20)]
        cluster.sim.run(until=0.4)
        assert _sent(cluster) == before
        for view in (a, b, c):
            for addr in addrs:
                assert _dir_shard(cluster, addr, view).site_id == addr.site
        assert all(a.attraction_memory.dir_owner(x) == a.site_id
                   for x in addrs[:20])
        assert all(c.attraction_memory.dir_owner(x) == c.site_id
                   for x in addrs[20:])

    def test_first_migration_is_two_messages_and_leaves_no_window(self, trio):
        """The homesite records the requester as it ships the object, so
        its directory never names a site that no longer holds it."""
        cluster, a, b, _c = trio
        addr = a.attraction_memory.alloc_object("v")
        before = _sent(cluster)
        got = []
        b.attraction_memory.live_read(addr, lambda v, e=None: got.append(v))
        while addr in a.attraction_memory.objects:
            assert cluster.sim.step()
        # the MEM_READ has been served, the reply is still in flight
        assert not got and addr not in b.attraction_memory.objects
        assert a.attraction_memory.dir_owner(addr) == b.site_id
        cluster.sim.run(until=0.6)
        assert got == ["v"]
        assert _sent(cluster) - before == 2  # MEM_READ + MEM_READ_REPLY
        assert _mem_stat(b, "dir_updates_sent") == 0
        assert a.attraction_memory.dir_owner(addr) == b.site_id

    def test_second_migration_publishes_once_to_the_homesite(self, trio):
        cluster, a, b, c = trio
        addr = a.attraction_memory.alloc_object("v")
        b.attraction_memory.live_read(addr, lambda v, e=None: None)
        cluster.sim.run(until=0.4)
        before = _sent(cluster)
        got = []
        c.attraction_memory.live_read(addr, lambda v, e=None: got.append(v))
        cluster.sim.run(until=0.8)
        assert got == ["v"]
        # MEM_READ -> a, MEM_LOCATION, MEM_READ -> b, MEM_READ_REPLY, then
        # the one DIR_UPDATE and its DIR_ACK
        assert _sent(cluster) - before == 6
        assert _mem_stat(c, "dir_updates_sent") == 1
        assert _mem_stat(a, "dir_updates_applied") == 1
        assert _mem_stat(b, "dir_updates_applied") == 0
        assert a.attraction_memory.dir_owner(addr) == c.site_id

    def test_reply_without_recorded_still_publishes(self, trio):
        """Only the shipper's word lets the new owner skip the DIR_UPDATE:
        a reply from a sender that predates the flag is published."""
        cluster, a, _b, c = trio
        addr = a.attraction_memory.alloc_object("v")
        del a.attraction_memory.objects[addr]  # shipped the old way
        a.message_manager.send(SDMessage(
            type=MsgType.MEM_READ_REPLY,
            src_site=a.site_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=c.site_id, dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={"addr": addr, "value": "v", "owned": True,
                     "version": 0}))
        cluster.sim.run(until=0.4)
        assert addr in c.attraction_memory.objects
        assert _mem_stat(c, "dir_updates_sent") == 1
        assert a.attraction_memory.dir_owner(addr) == c.site_id

    def test_sign_off_makes_the_heir_the_directory(self, fast_config):
        cluster = SimCluster(nsites=4, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c, d = cluster.sites
        addr = a.attraction_memory.alloc_object("v")
        c.attraction_memory.live_read(addr, lambda v, e=None: None)
        cluster.sim.run(until=0.4)
        assert a.sign_off()
        cluster.sim.run(until=0.8)
        assert not a.running
        heir = _dir_shard(cluster, addr, view=d)
        assert heir is b  # lowest alive id above the leaver's
        assert all(_dir_shard(cluster, addr, view) is heir
                   for view in (b, c, d))
        assert heir.attraction_memory.dir_owner(addr) == c.site_id
        got = []
        d.attraction_memory.live_read(
            addr, lambda v, e=None: got.append((v, e)))
        cluster.sim.run(until=1.2)
        assert got == [("v", None)]
        assert heir.attraction_memory.dir_owner(addr) == d.site_id


class TestMembershipChange:
    """A join or departure republishes only what moved."""

    def test_join_republishes_nothing(self, trio):
        cluster, a, b, c = trio
        addrs = [site.attraction_memory.alloc_object(i)
                 for i, site in enumerate([a, b, c] * 17)][:50]
        for reader, addr in zip([b, c, a] * 17, addrs[:12]):
            reader.attraction_memory.live_read(addr, lambda v, e=None: None)
        cluster.sim.run(until=0.4)
        newcomer = cluster.add_site()
        cluster.sim.run(until=1.0)
        assert newcomer.running
        assert all(newcomer.site_id in s.cluster_manager.sites
                   for s in (a, b, c))
        for site in cluster.sites:
            assert _mem_stat(site, "dir_updates_sent") == 0
            assert _mem_stat(site, "dir_entries_handed_off") == 0

    def test_homesite_crash_republishes_exactly_its_objects(self, trio):
        cluster, a, b, c = trio
        from_a = [a.attraction_memory.alloc_object(i) for i in range(6)]
        from_b = [b.attraction_memory.alloc_object(i) for i in range(6)]
        # b attracts four of a's objects, c two of a's and three of b's
        for reader, addr in zip([b, b, b, b, c, c], from_a):
            reader.attraction_memory.live_read(addr, lambda v, e=None: None)
        for addr in from_b[:3]:
            c.attraction_memory.live_read(addr, lambda v, e=None: None)
        cluster.sim.run(until=0.4)
        assert _mem_stat(b, "dir_updates_sent") == 0
        assert _mem_stat(c, "dir_updates_sent") == 0
        published = []

        def spy_on_publishes(site):
            publish = site.attraction_memory._publish_dir

            def spy(addr, attempt=0):
                published.append((site.site_id, addr))
                publish(addr, attempt)
            site.attraction_memory._publish_dir = spy

        spy_on_publishes(b)
        spy_on_publishes(c)
        a.crash()
        for survivor in (b, c):
            survivor.cluster_manager.mark_dead(a.site_id, left=False)
        cluster.sim.run(until=0.8)
        assert sorted(published) == sorted(
            [(b.site_id, addr) for addr in from_a[:4]]
            + [(c.site_id, addr) for addr in from_a[4:]])
        for addr in from_a:
            shard = _dir_shard(cluster, addr, view=b)
            owner = b if addr in from_a[:4] else c
            assert shard.attraction_memory.dir_owner(addr) == owner.site_id


class TestDeadCreatorRegression:
    """The bug the orphan rule guards against: the per-creator ``home_dir``
    lost ownership updates when the creating site died, so a third site
    could never find a migrated object again."""

    def test_read_survives_creator_crash(self, trio):
        cluster, a, b, c = trio
        addr = a.attraction_memory.alloc_object("survivor")
        cluster.sim.run(until=0.4)
        got = []
        b.attraction_memory.live_read(addr, lambda v, e=None: got.append(v))
        cluster.sim.run(until=0.8)
        assert got == ["survivor"]
        # the creator dies abruptly; the survivors learn of it
        a.crash()
        for survivor in (b, c):
            survivor.cluster_manager.mark_dead(a.site_id, left=False)
        cluster.sim.run(until=1.2)
        # a third site must still be able to locate the object
        result = []
        c.attraction_memory.live_read(
            addr, lambda value, error=None: result.append((value, error)))
        cluster.sim.run(until=3.0)
        assert result and result[0][0] == "survivor", (
            f"read after creator crash failed: {result}")
        assert addr in c.attraction_memory.objects
