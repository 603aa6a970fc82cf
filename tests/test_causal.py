"""Tests for the causal DAG, blame attribution, and the bench gate."""

from __future__ import annotations

import pytest

from repro.apps import build_primes_program, first_n_primes
from repro.site.simcluster import SimCluster
from repro.trace.blame import blame_cluster, render_critical_path
from repro.trace.causal import (
    EXEC_TAG,
    MSG_TAG,
    CausalGraph,
    exec_node,
    msg_node,
)
from repro.trace.tracer import Tracer


@pytest.fixture
def traced_cluster(fast_config):
    cluster = SimCluster(nsites=8, config=fast_config.with_(trace=True))
    handle = cluster.submit(build_primes_program(),
                            args=(30, 6, 400.0, 4000.0))
    cluster.run(progress_timeout=120.0)
    assert handle.result == first_n_primes(30)
    return cluster


class TestNodeIds:
    def test_tags_disjoint(self):
        tags = MSG_TAG | EXEC_TAG
        assert msg_node(3, 17) & tags == MSG_TAG
        assert exec_node((5 << 40) | 9) & tags == EXEC_TAG
        assert 42 & tags == 0

    def test_msg_node_unique_per_site_seq(self):
        ids = {msg_node(s, q) for s in range(16) for q in range(100)}
        assert len(ids) == 16 * 100

    def test_exec_node_roundtrip(self):
        packed = (7 << 40) | 123456
        assert exec_node(packed) ^ EXEC_TAG == packed

    def test_msg_and_exec_spaces_never_collide(self):
        assert msg_node(255, (1 << 44) - 1) & EXEC_TAG == 0
        assert exec_node((1 << 62) - 1) & MSG_TAG == 0


class TestCausalGraphUnits:
    """DAG construction from a hand-written event stream."""

    def _tracer(self):
        tr = Tracer()
        # root execution on site 0 -> message to site 1 -> execution there
        f0, f1 = (0 << 40) | 1, (1 << 40) | 1
        tr.emit(0.0, 0, "exec_begin", f0, "root", -1)
        tr.emit(1.0, 0, "exec_end", f0, 100.0)
        tr.emit(1.0, 0, "msg_send", "APPLY_RESULT", 1, 64, 5,
                exec_node(f0))
        tr.emit(1.5, 1, "msg_recv", "APPLY_RESULT", 0, 64, 5)
        tr.emit(2.0, 1, "exec_begin", f1, "child", msg_node(0, 5))
        tr.emit(3.0, 1, "exec_end", f1, 200.0)
        return tr, f0, f1

    def test_nodes_and_edges(self):
        tr, f0, f1 = self._tracer()
        graph = CausalGraph.from_tracer(tr)
        assert len(graph) == 3
        m = graph.nodes[msg_node(0, 5)]
        assert (m.start, m.end, m.dst, m.nbytes) == (1.0, 1.5, 1, 64)
        assert m.cause == exec_node(f0)
        assert [n.node_id for n in graph.nodes.values()
                if n.cause == exec_node(f0)] == [msg_node(0, 5)]
        assert [n.node_id for n in graph.nodes.values()
                if n.cause < 0] == [exec_node(f0)]

    def test_chain_is_root_first(self):
        tr, f0, f1 = self._tracer()
        graph = CausalGraph.from_tracer(tr)
        chain = graph.chain(exec_node(f1))
        assert [n.node_id for n in chain] == [
            exec_node(f0), msg_node(0, 5), exec_node(f1)]

    def test_terminal_is_last_completing(self):
        tr, _f0, f1 = self._tracer()
        assert CausalGraph.from_tracer(tr).terminal().node_id == \
            exec_node(f1)

    def test_critical_path_categories(self):
        tr, _f0, f1 = self._tracer()
        graph = CausalGraph.from_tracer(tr)
        segments = graph.critical_path()
        cats = [seg["category"] for seg in segments]
        # compute(f0), transit, sched-wait (1.5 -> 2.0), compute(f1)
        assert cats == ["compute", "message-latency", "sched-wait",
                        "compute"]
        assert segments[0]["end"] == 1.0
        assert segments[2] == {"category": "sched-wait", "start": 1.5,
                               "end": 2.0, "site": 1, "label": "child"}
        # the path is gap-free from root start to terminal end
        assert segments[0]["start"] == 0.0
        assert max(seg["end"] for seg in segments) == 3.0

    def test_recv_before_send_in_stream_still_pairs(self):
        tr = Tracer()
        tr.emit(1.0, 1, "msg_recv", "HELP_REPLY", 0, 32, 9)
        tr.emit(1.0, 0, "msg_send", "HELP_REPLY", 1, 32, 9, -1)
        node = CausalGraph.from_tracer(tr).nodes[msg_node(0, 9)]
        assert node.end == 1.0

    def test_presignon_traffic_skipped(self):
        tr = Tracer()
        tr.emit(0.0, -1, "msg_send", "SIGN_ON", 0, 48, 3, -1)
        tr.emit(0.0, 2, "msg_send", "SIGN_ON", 0, 48, -1, -1)
        assert len(CausalGraph.from_tracer(tr)) == 0

    def test_empty_graph_guards(self):
        graph = CausalGraph.from_events([])
        assert graph.terminal() is None
        assert graph.critical_path() == []
        assert render_critical_path([]).startswith("critical path: empty")

    def test_cycle_guard(self):
        # corrupt stamps forming a 2-cycle must not hang chain()
        tr = Tracer()
        tr.emit(0.0, 0, "msg_local", "IO_OUTPUT", 1, msg_node(0, 2))
        tr.emit(0.1, 0, "msg_local", "IO_OUTPUT", 2, msg_node(0, 1))
        graph = CausalGraph.from_tracer(tr)
        assert len(graph.chain(msg_node(0, 1))) == 2


class TestBlameIntegration:
    def test_per_site_attribution_sums_to_horizon(self, traced_cluster):
        report = blame_cluster(traced_cluster)
        assert report.nsites == 8
        assert report.horizon > 0
        for site_id, shares in report.per_site.items():
            total = sum(shares.values())
            assert total == pytest.approx(report.horizon, rel=0.01), site_id
            assert all(sec >= -1e-12 for sec in shares.values()), site_id

    def test_gap_fully_decomposed(self, traced_cluster):
        """The speedup gap is explained (>= 90%) by the non-compute
        categories — by construction they decompose it exactly."""
        report = blame_cluster(traced_cluster)
        gap = report.nsites - report.measured_speedup
        explained = sum(report.lost_sites().values())
        assert gap > 0
        assert explained == pytest.approx(gap, rel=0.10)

    def test_render_and_as_dict(self, traced_cluster):
        report = blame_cluster(traced_cluster)
        text = report.render()
        for cat in ("compute", "steal-wait", "idle", "per-site"):
            assert cat in text
        doc = report.as_dict()
        assert set(doc["totals"]) == {
            "compute", "protocol", "steal-wait", "code-fetch",
            "checkpoint-pause", "message-latency", "idle"}
        assert doc["per_program"]  # primes ran
        assert doc["critical_path"]

    def test_blame_requires_tracer(self, fast_config):
        from repro.common.errors import SDVMError
        cluster = SimCluster(nsites=1, config=fast_config)
        with pytest.raises(SDVMError, match="trace"):
            blame_cluster(cluster)


class TestCausalDeterminism:
    def _stamp_stream(self, fast_config):
        cluster = SimCluster(nsites=4,
                             config=fast_config.with_(trace=True, seed=3))
        cluster.submit(build_primes_program(), args=(25, 6, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        return [(e.ts, e.site, e.kind, e.fields)
                for e in cluster.tracer.events
                if e.kind in ("msg_send", "msg_local", "exec_begin")]

    def test_stamps_byte_identical_across_runs(self, fast_config):
        assert self._stamp_stream(fast_config) == \
            self._stamp_stream(fast_config)

    def test_tracing_does_not_change_timing(self, fast_config):
        """The fixed-width wire stamp keeps envelope sizes — and hence the
        simulated byte costs — identical whether tracing is on or off."""
        durations = {}
        for trace in (False, True):
            cluster = SimCluster(nsites=4,
                                 config=fast_config.with_(trace=trace))
            handle = cluster.submit(build_primes_program(),
                                    args=(25, 6, 400.0, 4000.0))
            cluster.run(progress_timeout=120.0)
            durations[trace] = handle.duration
        assert durations[False] == durations[True]

    def test_untraced_sites_never_carry_causal_state(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.submit(build_primes_program(), args=(10, 4, 200.0, 2000.0))
        cluster.run(progress_timeout=120.0)
        for site in cluster.sites:
            assert site.cause_node == -1


class TestMessageStamp:
    """The causal stamp rides the journal, not the wire."""

    def test_wire_size_independent_of_stamp(self, fast_config):
        from repro.messages import SDMessage
        assert not {"cause_id", "origin_site", "cause_node"} & set(
            SDMessage.__slots__)
        sent = {}
        for trace in (False, True):
            cluster = SimCluster(nsites=3,
                                 config=fast_config.with_(trace=trace))
            cluster.submit(build_primes_program(),
                           args=(10, 4, 200.0, 2000.0))
            cluster.run(progress_timeout=120.0)
            stats = cluster.total_stats()
            sent[trace] = (stats.get("sent").total,
                           stats.get("bytes_sent").total)
        assert sent[False][0] > 0
        assert sent[False] == sent[True]

    def test_stamp_roundtrip(self, traced_cluster):
        """Every journaled cause of a send names what its sender was
        handling: an execution on that site, or a message it received."""
        graph = CausalGraph.from_tracer(traced_cluster.tracer)
        caused = 0
        for node in graph.nodes.values():
            if node.kind != "msg" or node.cause < 0:
                continue
            cause = graph.nodes[node.cause]
            if cause.kind == "exec":
                assert cause.site == node.site
            else:
                assert cause.dst == node.site
            caused += 1
        assert caused > 0


class TestAggregateGuards:
    def test_empty_cluster_report(self):
        from repro.trace.aggregate import aggregate_sites
        report = aggregate_sites([])
        assert report.nsites == 0
        assert "nothing to report" in report.render()
        doc = report.as_dict()
        assert doc["nsites"] == 0
        assert doc["counters"] == {}
