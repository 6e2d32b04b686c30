#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "apps/incast.hh"
#include "sim/cluster.hh"
#include "sim/fault.hh"

namespace diablo {
namespace sim {
namespace {

using namespace diablo::time_literals;

/**
 * Four racks, one array: the smallest topology with real cross-partition
 * traffic in both trunk directions plus an aggregation level that lives
 * on the switch partition (5 partitions total).
 */
ClusterParams
fourRackParams()
{
    ClusterParams p = ClusterParams::gige1us();
    p.topo.servers_per_rack = 3;
    p.topo.racks_per_array = 4;
    p.topo.num_arrays = 1;
    return p;
}

uint64_t
doubleBits(double d)
{
    uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/**
 * Every observable statistic of a sharded incast run, flattened into a
 * word vector so two runs can be compared for *bit* identity: app-level
 * results (bytes, elapsed, per-iteration latency samples), protocol
 * pathology counters (TCP retransmits/RTOs, NIC and switch drops), and
 * engine counters (quanta, executed events per partition).
 */
struct ShardedOutcome {
    std::vector<uint64_t> fingerprint;
    uint64_t tcp_retransmits = 0;
    uint64_t switch_drops = 0;
};

/** Both queueing disciplines, for the tests that run on each. */
constexpr switchm::SwitchModelKind kSwitchModels[] = {
    switchm::SwitchModelKind::Voq, switchm::SwitchModelKind::OutputQueue};

const char *
modelName(switchm::SwitchModelKind model)
{
    return model == switchm::SwitchModelKind::Voq ? "voq" : "output_queue";
}

ShardedOutcome
runShardedIncast(switchm::SwitchModelKind model, bool parallel,
                 size_t threads = 0, bool with_faults = false)
{
    ClusterParams params = fourRackParams();
    params.topo.switch_model = model;
    fame::PartitionSet ps(Cluster::partitionsRequired(params));
    ps.setParallelism(threads);
    Cluster cluster(ps, params);
    EXPECT_TRUE(cluster.sharded());
    EXPECT_EQ(cluster.partitionSet(), &ps);

    std::unique_ptr<FaultController> fc;
    if (with_faults) {
        FaultPlan plan(params.seed);
        plan.trunkDown(2_ms, /*rack=*/1, /*plane=*/0);
        plan.trunkBrownout(3_ms, /*rack=*/2, 0, /*loss=*/0.1, 2_us);
        plan.trunkUp(300_ms, 1, 0);
        plan.trunkRepair(300_ms, 2, 0);
        fc = std::make_unique<FaultController>(cluster, plan);
        fc->install();
    }

    // Client in rack 0; every server in racks 1..3 responds, so all
    // block traffic converges through the client ToR's shallow-buffer
    // downlink after crossing rack->switch->rack partition boundaries.
    apps::IncastParams ip;
    ip.block_bytes = 32 * 1024;
    ip.iterations = 3;
    ip.warmup_iterations = 1;
    std::vector<net::NodeId> servers;
    for (net::NodeId n = 3; n < cluster.size(); ++n) {
        servers.push_back(n);
    }
    apps::IncastApp app(cluster, ip, /*client=*/0, servers);
    app.install();

    if (parallel) {
        ps.runParallel(10_sec);
    } else {
        ps.runSequential(10_sec);
    }

    const apps::IncastResult &r = app.result();
    EXPECT_TRUE(r.done);
    EXPECT_EQ(r.total_bytes,
              uint64_t(ip.block_bytes) * servers.size() * ip.iterations);

    ShardedOutcome out;
    out.tcp_retransmits = cluster.totalTcpRetransmits();
    out.switch_drops = cluster.network().totalSwitchDrops();

    std::vector<uint64_t> &fp = out.fingerprint;
    fp.push_back(r.total_bytes);
    fp.push_back(static_cast<uint64_t>(r.elapsed.toPs()));
    for (double s : r.iteration_us.raw()) {
        fp.push_back(doubleBits(s));
    }
    fp.push_back(cluster.totalTcpRetransmits());
    fp.push_back(cluster.totalTcpRtos());
    fp.push_back(cluster.totalUdpSocketDrops());
    fp.push_back(cluster.totalNicRxDrops());
    fp.push_back(cluster.network().totalSwitchDrops());
    fp.push_back(cluster.network().totalForwarded());
    fp.push_back(ps.quantaExecuted());
    for (size_t i = 0; i < ps.size(); ++i) {
        fp.push_back(ps.partition(i).executedEvents());
    }
    // Packet-pool traffic is event-driven, so makes/returns per
    // partition must also be bit-identical across engines.  (The
    // recycle/heap split is wall-clock-dependent and deliberately
    // excluded.)
    for (const Cluster::PoolStats &p : cluster.poolStats()) {
        fp.push_back(p.makes);
        fp.push_back(p.returns);
    }
    return out;
}

TEST(ClusterSharded, PartitionsRequired)
{
    ClusterParams p = fourRackParams();
    EXPECT_EQ(Cluster::partitionsRequired(p), 5u); // 4 racks + switches

    p.topo.racks_per_array = 1;
    p.topo.num_arrays = 1;
    EXPECT_EQ(Cluster::partitionsRequired(p), 1u); // lone ToR, no trunks

    p.topo.racks_per_array = 2;
    p.topo.num_arrays = 3;
    EXPECT_EQ(Cluster::partitionsRequired(p), 7u); // 6 racks + switches
}

// The tentpole acceptance criterion: a >= 4-rack sharded cluster yields
// bit-identical aggregate statistics from the sequential reference and
// the pooled parallel engine — at every fusion width (1 = degenerate
// solo worker, 2 = partitions sharing workers, 5 = one worker per
// partition, 0 = one per allowed CPU) — under a workload with real TCP
// loss recovery (incast over 4 KB ToR buffers), on both queueing
// disciplines.
TEST(ClusterSharded, SequentialAndParallelAreBitIdentical)
{
    for (switchm::SwitchModelKind model : kSwitchModels) {
        SCOPED_TRACE(modelName(model));
        ShardedOutcome seq = runShardedIncast(model, false);
        for (size_t threads : {1u, 2u, 5u, 0u}) {
            ShardedOutcome par = runShardedIncast(model, true, threads);
            EXPECT_EQ(seq.fingerprint, par.fingerprint)
                << "threads=" << threads;
        }
    }
}

// Same invariant with the datapath under fault stress: link-down
// drops, brownout losses and the recovery retransmit storm all route
// dead packets back to foreign pools, and the pool make/return
// ledgers must still be bit-identical between engines.
TEST(ClusterSharded, PoolLedgersBitIdenticalUnderFaultPlan)
{
    const switchm::SwitchModelKind voq = switchm::SwitchModelKind::Voq;
    ShardedOutcome seq =
        runShardedIncast(voq, false, 0, /*with_faults=*/true);
    for (size_t threads : {1u, 0u}) {
        ShardedOutcome par =
            runShardedIncast(voq, true, threads, /*with_faults=*/true);
        EXPECT_EQ(seq.fingerprint, par.fingerprint)
            << "threads=" << threads;
    }
}

// Worker fusion and process placement share one rule: after a parallel
// run, every partition sits on lptAssign's worker for the set's
// weights — on hand-set unequal weights and on the weights a sharded
// 8-rack cluster sets for its racks and switch partition.
TEST(ClusterSharded, FusionFollowsLptAssign)
{
    auto expectLptFusion = [](fame::PartitionSet &ps, const char *what) {
        for (size_t workers : {2u, 3u, 4u}) {
            ps.setParallelism(workers);
            ps.runParallel(ps.partition(0).now() + 10_us);
            ASSERT_EQ(ps.lastRunWorkers(), workers) << what;
            const std::vector<uint32_t> lpt = fame::PartitionSet::lptAssign(
                ps.partitionWeights(),
                static_cast<uint32_t>(ps.lastRunWorkers()));
            for (size_t i = 0; i < ps.size(); ++i) {
                EXPECT_EQ(ps.workerOfPartition(i), lpt[i])
                    << what << ": partition " << i << ", " << workers
                    << " workers";
            }
        }
    };

    fame::PartitionSet weighted(6);
    const double weights[6] = {1.0, 5.0, 2.0, 2.0, 7.0, 3.0};
    for (size_t i = 0; i < 6; ++i) {
        weighted.setPartitionWeight(i, weights[i]);
    }
    expectLptFusion(weighted, "unequal weights");

    ClusterParams params = fourRackParams();
    params.topo.num_arrays = 2; // 8 racks + the switch partition
    fame::PartitionSet ps(Cluster::partitionsRequired(params));
    ASSERT_EQ(ps.size(), 9u);
    Cluster cluster(ps, params);
    expectLptFusion(ps, "8-rack cluster");
}

TEST(ClusterSharded, IncastActuallyStressesTheFabric)
{
    // Guard against the determinism test passing vacuously on an idle
    // network: 9 concurrent 32 KB responses into one 4 KB-buffered ToR
    // port must overflow it, on either queueing discipline.
    for (switchm::SwitchModelKind model : kSwitchModels) {
        SCOPED_TRACE(modelName(model));
        ShardedOutcome out = runShardedIncast(model, false);
        EXPECT_GT(out.switch_drops, 0u);
        EXPECT_GT(out.tcp_retransmits, 0u);
    }
}

TEST(ClusterSharded, CrossRackEchoMatchesSingleSimulator)
{
    // One packet in flight at a time: the sharded cluster must compute
    // exactly the same RTT as the single-simulator build (ChannelLink
    // delivery times equal plain Link delivery times).
    struct Echo {
        long got = -1;
        SimTime rtt;
        bool done = false;
    };
    auto server = [](os::Kernel &k, Echo &r) -> Task<> {
        os::Thread &t = k.createThread("srv");
        long fd = co_await k.sysSocket(t, net::Proto::Udp);
        co_await k.sysBind(t, static_cast<int>(fd), 7);
        os::RecvedMessage m;
        long got = co_await k.sysRecvFrom(t, static_cast<int>(fd), &m);
        co_await k.sysSendTo(t, static_cast<int>(fd), m.from, m.from_port,
                             static_cast<uint64_t>(got), nullptr);
        (void)r;
    };
    auto client = [](os::Kernel &k, net::NodeId dst, Echo &r) -> Task<> {
        os::Thread &t = k.createThread("cli");
        long fd = co_await k.sysSocket(t, net::Proto::Udp);
        SimTime start = k.sim().now();
        co_await k.sysSendTo(t, static_cast<int>(fd), dst, 7, 300,
                             nullptr);
        os::RecvedMessage m;
        r.got = co_await k.sysRecvFrom(t, static_cast<int>(fd), &m);
        r.rtt = k.sim().now() - start;
        r.done = true;
    };

    const ClusterParams params = fourRackParams();
    SimTime single_rtt;
    {
        Simulator sim;
        Cluster cluster(sim, params);
        Echo r;
        cluster.kernel(9).spawnProcess(server(cluster.kernel(9), r));
        cluster.kernel(0).spawnProcess(
            client(cluster.kernel(0), 9, r));
        sim.run();
        ASSERT_TRUE(r.done);
        single_rtt = r.rtt;
    }
    for (bool parallel : {false, true}) {
        fame::PartitionSet ps(Cluster::partitionsRequired(params));
        Cluster cluster(ps, params);
        Echo r;
        cluster.kernel(9).spawnProcess(server(cluster.kernel(9), r));
        cluster.kernel(0).spawnProcess(
            client(cluster.kernel(0), 9, r));
        if (parallel) {
            ps.runParallel(1_sec);
        } else {
            ps.runSequential(1_sec);
        }
        ASSERT_TRUE(r.done);
        EXPECT_EQ(r.got, 300);
        EXPECT_EQ(r.rtt, single_rtt)
            << (parallel ? "parallel" : "sequential");
    }
}

TEST(ClusterShardedDeathTest, WrongPartitionCountIsFatal)
{
    ClusterParams p = fourRackParams();
    EXPECT_DEATH(
        {
            fame::PartitionSet ps(2);
            Cluster cluster(ps, p);
        },
        "needs 5 partitions");
}

} // namespace
} // namespace sim
} // namespace diablo
