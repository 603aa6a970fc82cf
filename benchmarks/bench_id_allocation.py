"""Experiment E7 — logical-id allocation strategies under churn (§4).

"To create a unique logical id for new sites, the cluster manager may
follow different concepts.  A central contact site can be created ...
Another concept is to provide several site id servers, which are given a
contingent of free ids ... Another approach may be to define a fixed number
of site id servers and let them emit any multiple of their own id."

We sign 24 sites onto a cluster through *random* contact points and
measure: time until the whole cluster is formed, sign-on messages consumed,
and how many sign-ons the contact site had to forward (the centralization
cost the paper worries about).
"""

from __future__ import annotations

from repro.bench import render_table
from repro.bench.harness import bench_config
from repro.common.config import ClusterConfig, SiteConfig
from repro.site.simcluster import SimCluster

from bench_util import write_result

N_SITES = 24
STRATEGIES = ("central", "contingent", "modulo")


def run_strategy(strategy: str) -> dict:
    config = bench_config(cluster=ClusterConfig(id_allocation=strategy))
    cluster = SimCluster(nsites=1, config=config)
    cluster.sim.run(until=0.01)
    rng = cluster.sim.rng
    # churn: each joiner contacts a random existing site
    for i in range(1, N_SITES):
        via = rng.randrange(len(cluster.sites))
        cluster.add_site(SiteConfig(name=f"s{i}"),
                         at=cluster.sim.now + i * 2e-4, via_index=via)
    formed_at = None
    deadline = 5.0
    while cluster.sim.now < deadline:
        cluster.sim.run(until=cluster.sim.now + 0.01)
        if all(site.running for site in cluster.sites):
            formed_at = cluster.sim.now
            break
    stats = cluster.total_stats()
    ids = [site.site_id for site in cluster.sites]
    return {
        "formed": formed_at is not None,
        "time": formed_at if formed_at is not None else float("inf"),
        "unique": len(set(ids)) == len(ids) and -1 not in ids,
        "forwarded": stats.get("sign_ons_forwarded").count,
        "messages": stats.get("sent").count,
    }


def test_id_allocation_strategies(benchmark):
    results = {}

    def sweep():
        for strategy in STRATEGIES:
            results[strategy] = run_strategy(strategy)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [[name, "yes" if r["formed"] else "NO",
             f"{r['time'] * 1e3:.1f} ms", r["forwarded"], r["messages"],
             "yes" if r["unique"] else "COLLISION"]
            for name, r in results.items()]
    write_result("id_allocation", render_table(
        f"E7: id allocation strategies, {N_SITES} sites joining via random "
        f"contact points",
        ["strategy", "formed", "formation time", "sign-ons forwarded",
         "messages", "ids unique"],
        rows))

    for name, r in results.items():
        assert r["formed"], name
        assert r["unique"], name
        benchmark.extra_info[f"{name}_forwarded"] = r["forwarded"]
    # the central strategy concentrates allocation: it must forward
    # strictly more sign-ons than the decentralized contingent strategy
    # once blocks are spread
    assert (results["central"]["forwarded"]
            > results["contingent"]["forwarded"])
