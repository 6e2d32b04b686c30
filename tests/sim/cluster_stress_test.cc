#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/incast.hh"
#include "core/random.hh"
#include "sim/cluster.hh"
#include "sim/fault.hh"

namespace diablo {
namespace sim {
namespace {

using namespace diablo::time_literals;

/**
 * Randomized-topology stress: sample cluster shapes (rack count, rack
 * size, trunk propagation), bursty incast traffic, and an optional
 * mid-run trunk outage, then require the sequential reference and the
 * fused parallel engine at several worker caps to produce bit-identical
 * fingerprints.  This is the adversarial counterpart of the fixed-shape
 * determinism tests: fusion assignment, barrier scheduling, and the
 * incremental skip path all depend on shape and load, so sweeping them
 * randomly hunts for interleaving-dependent divergence the curated
 * shapes might never hit.  The generator is seeded — failures replay.
 */
struct StressTrial {
    uint32_t racks;
    uint32_t servers_per_rack;
    SimTime trunk_prop;
    uint32_t block_kb;
    uint32_t iterations;
    bool faults;
    SimTime fault_at;
};

uint64_t
doubleBits(double d)
{
    uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

std::vector<uint64_t>
runTrial(const StressTrial &t, bool parallel, size_t threads)
{
    ClusterParams params = ClusterParams::gige1us();
    params.topo.servers_per_rack = t.servers_per_rack;
    params.topo.racks_per_array = t.racks;
    params.topo.num_arrays = 1;
    params.topo.trunk_link_prop = t.trunk_prop;

    fame::PartitionSet ps(Cluster::partitionsRequired(params));
    ps.setParallelism(threads);
    Cluster cluster(ps, params);

    // Incast from every server outside the client's rack — the bursty
    // all-to-one shape that drives both trunk directions hard.
    apps::IncastParams ip;
    ip.block_bytes = t.block_kb * 1024;
    ip.iterations = t.iterations;
    ip.warmup_iterations = 1;
    std::vector<net::NodeId> servers;
    for (net::NodeId n = t.servers_per_rack; n < cluster.size(); ++n) {
        servers.push_back(n);
    }
    apps::IncastApp app(cluster, ip, /*client=*/0, servers);
    app.install();

    FaultController fc(cluster,
                       t.faults
                           ? FaultPlan(params.seed)
                                 .trunkDown(t.fault_at, /*rack=*/0, 0)
                                 .trunkUp(t.fault_at + SimTime::ms(300),
                                          0, 0)
                           : FaultPlan());
    if (t.faults) {
        fc.install();
    }

    if (parallel) {
        ps.runParallel(10_sec);
    } else {
        ps.runSequential(10_sec);
    }

    const apps::IncastResult &r = app.result();
    EXPECT_TRUE(r.done);

    std::vector<uint64_t> fp;
    fp.push_back(r.total_bytes);
    fp.push_back(static_cast<uint64_t>(r.elapsed.toPs()));
    for (double s : r.iteration_us.raw()) {
        fp.push_back(doubleBits(s));
    }
    fp.push_back(cluster.totalTcpRetransmits());
    fp.push_back(cluster.totalTcpRtos());
    fp.push_back(cluster.totalNicRxDrops());
    fp.push_back(cluster.network().totalSwitchDrops());
    fp.push_back(cluster.network().totalForwarded());
    fp.push_back(cluster.network().rerouteCount());
    fp.push_back(ps.quantaExecuted());
    for (size_t i = 0; i < ps.size(); ++i) {
        fp.push_back(ps.partition(i).executedEvents());
    }
    return fp;
}

TEST(ClusterStress, RandomTopologiesSeqParIdenticalAcrossFusionWidths)
{
    Rng rng(0xC10D0);
    for (int trial = 0; trial < 3; ++trial) {
        StressTrial t;
        t.racks = static_cast<uint32_t>(rng.uniformInt(2, 4));
        t.servers_per_rack =
            static_cast<uint32_t>(rng.uniformInt(2, 4));
        t.trunk_prop = SimTime::ns(
            static_cast<int64_t>(rng.uniformInt(300, 2000)));
        t.block_kb = static_cast<uint32_t>(rng.uniformInt(8, 32));
        t.iterations = static_cast<uint32_t>(rng.uniformInt(2, 3));
        t.faults = rng.uniformInt(0, 1) != 0;
        t.fault_at =
            SimTime::ms(static_cast<int64_t>(rng.uniformInt(1, 5)));

        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << ": racks=" << t.racks
                     << " spr=" << t.servers_per_rack
                     << " trunk=" << t.trunk_prop.str()
                     << " block=" << t.block_kb << "KB"
                     << " faults=" << t.faults);

        const auto seq = runTrial(t, false, 1);
        ASSERT_FALSE(seq.empty());
        // 1 = degenerate fusion, 2 = racks sharing workers, 0 = the
        // default (one worker per allowed CPU, per partition on big hosts).
        for (size_t threads : {1u, 2u, 0u}) {
            const auto par = runTrial(t, true, threads);
            EXPECT_EQ(seq, par) << "threads=" << threads;
        }
    }
}

} // namespace
} // namespace sim
} // namespace diablo
