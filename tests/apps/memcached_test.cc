#include <gtest/gtest.h>

#include "apps/mc_experiment.hh"

namespace diablo {
namespace apps {
namespace {

using namespace diablo::time_literals;

McExperimentParams
tinyExperiment(bool udp)
{
    McExperimentParams p;
    p.cluster = sim::ClusterParams::gige1us();
    p.cluster.topo.servers_per_rack = 8;
    p.cluster.topo.racks_per_array = 2;
    p.cluster.topo.num_arrays = 2; // 32 nodes, exercises all 3 levels
    p.num_servers = 4;
    p.server.udp = udp;
    p.server.worker_threads = 2;
    p.client.udp = udp;
    p.client.requests = 20;
    p.client.think_mean = 200_us;
    p.client.workload.keys_per_server = 500;
    return p;
}

TEST(Memcached, UdpExperimentCompletes)
{
    Simulator sim;
    McExperiment exp(sim, tinyExperiment(true));
    exp.run();
    const McExperimentResult &r = exp.result();
    EXPECT_EQ(r.clients, 28u);
    EXPECT_EQ(r.servers, 4u);
    // Every request either completed or timed out after retries.
    EXPECT_EQ(r.requests_completed + r.udp_timeouts, 28u * 20u);
    EXPECT_GT(r.requests_completed, 27u * 20u); // near-lossless tiny run
    EXPECT_GT(r.latency_us.count(), 0u);
}

TEST(Memcached, TcpExperimentCompletes)
{
    Simulator sim;
    McExperiment exp(sim, tinyExperiment(false));
    exp.run();
    const McExperimentResult &r = exp.result();
    EXPECT_EQ(r.requests_completed, 28u * 20u);
    EXPECT_EQ(r.udp_timeouts, 0u);
}

TEST(Memcached, LatenciesAreMicrosecondScaleWithTail)
{
    Simulator sim;
    McExperiment exp(sim, tinyExperiment(true));
    exp.run();
    const SampleSet &lat = exp.result().latency_us;
    // The bulk finishes in well under a millisecond on an unloaded
    // 1 Gbps fabric.
    EXPECT_GT(lat.percentile(50), 20.0);
    EXPECT_LT(lat.percentile(50), 1000.0);
    EXPECT_GE(lat.max(), lat.percentile(50));
}

TEST(Memcached, HopClassesAllObservedAndOrdered)
{
    Simulator sim;
    McExperiment exp(sim, tinyExperiment(true));
    exp.run();
    const McExperimentResult &r = exp.result();
    const SampleSet &local = r.latency_us_by_hop[0];
    const SampleSet &onehop = r.latency_us_by_hop[1];
    const SampleSet &twohop = r.latency_us_by_hop[2];
    ASSERT_GT(local.count(), 0u);
    ASSERT_GT(onehop.count(), 0u);
    ASSERT_GT(twohop.count(), 0u);
    // Medians ordered by hop count on an unloaded fabric.
    EXPECT_LT(local.percentile(50), onehop.percentile(50));
    EXPECT_LT(onehop.percentile(50), twohop.percentile(50));
}

TEST(Memcached, ServerPlacementSpreadsAcrossRacks)
{
    Simulator sim;
    McExperimentParams p = tinyExperiment(true);
    McExperiment exp(sim, p);
    // 4 servers over 4 racks -> one per rack.
    const auto &nodes = exp.serverNodes();
    ASSERT_EQ(nodes.size(), 4u);
    std::set<uint32_t> racks;
    for (net::NodeId n : nodes) {
        racks.insert(exp.cluster().network().rackOf(n));
    }
    EXPECT_EQ(racks.size(), 4u);
}

TEST(Memcached, VersionChangesAcceptCost)
{
    // 1.4.17 (accept4) must use less CPU per TCP connection than 1.4.15;
    // observable as lower total server busy time on identical runs.
    auto serverBusy = [](int version) {
        Simulator sim;
        McExperimentParams p = tinyExperiment(false);
        p.server.version = version;
        McExperiment exp(sim, p);
        exp.run();
        SimTime busy;
        for (net::NodeId s : exp.serverNodes()) {
            busy += exp.cluster().kernel(s).cpu().totalBusyTime();
        }
        return busy;
    };
    SimTime old_busy = serverBusy(1415);
    SimTime new_busy = serverBusy(1417);
    EXPECT_LT(new_busy, old_busy);
}

TEST(Memcached, ShardedRunOutlastsIdleDriveWindows)
{
    // 400 ms think times leave whole 100 ms drive windows without a
    // single executed event while every client is still mid-run.  The
    // sharded drive loop must keep going (work is pending, just not
    // yet due) and finish with the single-Simulator latency
    // distribution.
    McExperimentParams p = tinyExperiment(true);
    p.num_clients = 2;
    p.client.requests = 4;
    p.client.think_mean = 400_ms;

    Simulator sim;
    McExperiment single(sim, p);
    single.run();
    const McExperimentResult &ref = single.result();
    ASSERT_EQ(ref.requests_completed, 2u * 4u);

    for (bool parallel : {false, true}) {
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        McExperiment exp(ps, p);
        exp.run(parallel);
        const McExperimentResult &r = exp.result();
        EXPECT_EQ(r.requests_completed, ref.requests_completed)
            << (parallel ? "par" : "seq");
        EXPECT_EQ(r.latency_us.fingerprint(), ref.latency_us.fingerprint())
            << (parallel ? "par" : "seq");
        EXPECT_EQ(r.elapsed.toPs(), ref.elapsed.toPs())
            << (parallel ? "par" : "seq");
    }
}

TEST(Memcached, ElapsedIsEngineIndependent)
{
    // The run ends when the last client finishes, whichever engine
    // advanced it: a sharded engine must not report a partition's
    // clock, which stops at that partition's own last event.
    const McExperimentParams p = tinyExperiment(false);
    Simulator sim;
    McExperiment single(sim, p);
    single.run();
    const McExperimentResult &ref = single.result();
    ASSERT_EQ(ref.requests_completed, 28u * 20u);
    EXPECT_GT(ref.elapsed, SimTime());

    for (bool parallel : {false, true}) {
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        McExperiment exp(ps, p);
        exp.run(parallel);
        EXPECT_EQ(exp.result().elapsed.toPs(), ref.elapsed.toPs())
            << (parallel ? "par" : "seq");
    }
}

TEST(Memcached, Deterministic)
{
    auto run = [] {
        Simulator sim;
        McExperiment exp(sim, tinyExperiment(true));
        exp.run();
        return std::pair(exp.result().latency_us.mean(),
                         exp.result().elapsed.toPs());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace apps
} // namespace diablo
