#include <gtest/gtest.h>

#include "apps/incast.hh"
#include "sim/fault.hh"

namespace diablo {
namespace apps {
namespace {

using namespace diablo::time_literals;

sim::ClusterParams
rackCluster(uint32_t servers_per_rack)
{
    sim::ClusterParams p = sim::ClusterParams::gige1us();
    p.topo.servers_per_rack = servers_per_rack;
    p.topo.racks_per_array = 1;
    p.topo.num_arrays = 1;
    return p;
}

IncastResult
runIncast(uint32_t num_servers, bool use_epoll, uint64_t block_bytes,
          uint32_t iterations, uint64_t buffer_bytes = 4096)
{
    Simulator sim;
    sim::ClusterParams cp = rackCluster(num_servers + 1);
    cp.topo.rack_sw.buffer_per_port_bytes = buffer_bytes;
    sim::Cluster cluster(sim, cp);

    IncastParams ip;
    ip.block_bytes = block_bytes;
    ip.iterations = iterations;
    ip.use_epoll = use_epoll;
    std::vector<net::NodeId> servers;
    for (uint32_t i = 1; i <= num_servers; ++i) {
        servers.push_back(i);
    }
    IncastApp app(cluster, ip, 0, servers);
    app.install();
    sim.run();
    EXPECT_TRUE(app.result().done);
    return app.result();
}

TEST(Incast, SingleServerNearLineRate)
{
    IncastResult r = runIncast(1, false, 262144, 5);
    // One sender, no congestion: goodput close to 1 Gbps line rate.
    EXPECT_GT(r.goodputMbps(), 600.0);
    EXPECT_LT(r.goodputMbps(), 1000.0);
}

TEST(Incast, ThroughputCollapseWithManySenders)
{
    IncastResult one = runIncast(1, false, 262144, 5);
    IncastResult many = runIncast(8, false, 262144, 5);
    // Classic incast through shallow 4 KB VOQ partitions: concurrent
    // senders collapse to a tiny fraction of the single-sender goodput
    // (the paper's model collapses faster than shared-buffer hardware).
    EXPECT_GT(one.goodputMbps(), 600.0);
    EXPECT_LT(many.goodputMbps(), one.goodputMbps() / 10.0);
    // Collapse is RTO-driven: retransmission timeouts must have fired.
    EXPECT_GT(many.iteration_us.max(), 150000.0); // >= one RTO stall
}

TEST(Incast, DeepBuffersAvoidCollapse)
{
    IncastResult shallow = runIncast(12, false, 262144, 3, 4096);
    IncastResult deep = runIncast(12, false, 262144, 3, 1 << 20);
    EXPECT_GT(deep.goodputMbps(), 2.0 * shallow.goodputMbps());
    EXPECT_GT(deep.goodputMbps(), 500.0);
}

TEST(Incast, EpollClientCompletes)
{
    // Deep buffers so this checks the epoll client logic, not collapse.
    IncastResult r = runIncast(4, true, 65536, 3, 1 << 20);
    EXPECT_TRUE(r.done);
    EXPECT_EQ(r.total_bytes, 4u * 65536u * 3u);
    EXPECT_EQ(r.iteration_us.count(), 3u);
    EXPECT_GT(r.goodputMbps(), 300.0);
}

TEST(Incast, IterationTimesRecorded)
{
    IncastResult r = runIncast(2, false, 65536, 4);
    EXPECT_EQ(r.iteration_us.count(), 4u);
    EXPECT_GT(r.iteration_us.min(), 0.0);
}

TEST(Incast, Deterministic)
{
    IncastResult a = runIncast(6, false, 131072, 3);
    IncastResult b = runIncast(6, false, 131072, 3);
    EXPECT_DOUBLE_EQ(a.goodputMbps(), b.goodputMbps());
    EXPECT_EQ(a.elapsed, b.elapsed);
}

TEST(IncastExperiment, FromConfigKeepsTheCommandLineDefaults)
{
    // diablo_run's defaults: 8 servers behind one ToR with the client,
    // 20 iterations (IncastParams says 40) of 256 KB blocks.
    const IncastExperimentParams p =
        IncastExperimentParams::fromConfig(Config());
    EXPECT_EQ(p.num_servers, 8u);
    EXPECT_EQ(p.cluster.topo.servers_per_rack, 9u);
    EXPECT_EQ(p.cluster.topo.racks_per_array, 1u);
    EXPECT_EQ(p.cluster.topo.num_arrays, 1u);
    EXPECT_EQ(p.incast.iterations, 20u);
    EXPECT_EQ(p.incast.block_bytes, 256u * 1024u);
    EXPECT_FALSE(p.incast.use_epoll);
}

TEST(IncastExperiment, EveryEngineGivesTheSameRun)
{
    // Two racks, so the sharded build has trunk channels and a switch
    // partition: single, seq and par must measure the same transfer.
    Config cfg;
    cfg.set("incast.servers", 6);
    cfg.set("incast.racks", 2);
    cfg.set("incast.iterations", 4);
    cfg.set("incast.block_bytes", 65536);
    const IncastExperimentParams p = IncastExperimentParams::fromConfig(cfg);
    ASSERT_EQ(p.cluster.topo.servers_per_rack, 4u); // ceil(7 / 2)

    Simulator sim;
    IncastExperiment single(sim, p);
    single.run();
    ASSERT_FALSE(single.aborted());
    const IncastResult &ref = single.result();
    EXPECT_EQ(ref.iteration_us.count(), 4u);

    for (bool parallel : {false, true}) {
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        IncastExperiment exp(ps, p);
        exp.run(parallel);
        ASSERT_FALSE(exp.aborted()) << (parallel ? "par" : "seq");
        const IncastResult &r = exp.result();
        EXPECT_EQ(r.goodputMbps(), ref.goodputMbps())
            << (parallel ? "par" : "seq");
        EXPECT_EQ(r.elapsed, ref.elapsed) << (parallel ? "par" : "seq");
        EXPECT_EQ(r.iteration_us.raw(), ref.iteration_us.raw())
            << (parallel ? "par" : "seq");
    }
}

TEST(IncastExperiment, CollapsedFanInRunsPastOneMinute)
{
    // Fig 6a's 24-server VOQ cell collapses to ~20 Mbps, ~2.4 s per
    // iteration: 26 iterations plus the warm-up need over a minute of
    // simulated time, which the cap must leave room for.
    Config cfg;
    cfg.set("incast.servers", 24);
    cfg.set("incast.iterations", 26);
    Simulator sim;
    IncastExperiment exp(sim, IncastExperimentParams::fromConfig(cfg));
    exp.run();
    ASSERT_FALSE(exp.aborted());
    EXPECT_EQ(exp.result().iteration_us.count(), 26u);
    EXPECT_GT(sim.now(), SimTime::sec(60));
}

TEST(IncastExperiment, CrashedEpollClientEndsTheRun)
{
    // A crashed kernel fails epoll_wait before it suspends, so a client
    // that retried every failed wait would spin at one instant and the
    // run would never return.  The client gives up instead: the run
    // ends, not done, on either sharded engine.
    Config cfg;
    cfg.set("incast.servers", 8);
    cfg.set("incast.racks", 2);
    cfg.set("incast.iterations", 5);
    cfg.set("incast.epoll", true);
    cfg.set("fault.0.kind", "server_crash");
    cfg.set("fault.0.at_us", 1000);
    cfg.set("fault.0.node", 0);
    const IncastExperimentParams p = IncastExperimentParams::fromConfig(cfg);
    for (bool parallel : {false, true}) {
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        IncastExperiment exp(ps, p);
        sim::FaultController fc(exp.cluster(),
                                sim::FaultPlan::fromConfig(cfg));
        fc.install();
        exp.run(parallel);
        EXPECT_TRUE(exp.aborted()) << (parallel ? "par" : "seq");
        EXPECT_EQ(exp.result().iteration_us.count(), 0u);
    }
}

} // namespace
} // namespace apps
} // namespace diablo
