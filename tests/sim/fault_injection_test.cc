#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "apps/app_util.hh"
#include "apps/incast.hh"
#include "sim/cluster.hh"
#include "sim/fault.hh"

namespace diablo {
namespace sim {
namespace {

using namespace diablo::time_literals;

/** Four racks, one array, two ECMP planes: every fault class has a
 *  target and the trunks cross partition boundaries when sharded. */
ClusterParams
planedFourRackParams()
{
    ClusterParams p = ClusterParams::gige1us();
    p.topo.servers_per_rack = 3;
    p.topo.racks_per_array = 4;
    p.topo.num_arrays = 1;
    p.topo.uplink_planes = 2;
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

struct FaultedOutcome {
    std::vector<uint64_t> fingerprint;
    uint64_t reroutes = 0;
    uint64_t degrade_drops = 0;
    bool done = false;
};

/**
 * The cross-partition fault scenario: incast traffic into rack 0 while
 * the plan cuts the client rack's busiest uplink plane and browns out
 * both of rack 1's trunks, healing everything before the horizon.  The
 * entire faulted timeline must be bit-identical between sequential and
 * sharded-parallel execution.
 */
FaultedOutcome
runFaultedIncast(bool parallel, size_t threads = 0)
{
    const ClusterParams params = planedFourRackParams();
    fame::PartitionSet ps(Cluster::partitionsRequired(params));
    ps.setParallelism(threads);
    Cluster cluster(ps, params);

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

    // Cut the plane carrying the most server->client response flows so
    // the outage is guaranteed to strand traffic and force reroutes.
    topo::ClosNetwork &net = cluster.network();
    std::vector<uint32_t> per_plane(net.planes(), 0);
    for (net::NodeId s : servers) {
        ++per_plane[net.preferredPlane(s, 0)];
    }
    const uint32_t victim =
        per_plane[1] > per_plane[0] ? 1u : 0u;

    FaultPlan plan(params.seed);
    plan.trunkDown(2_ms, /*rack=*/0, victim);
    plan.trunkBrownout(3_ms, /*rack=*/1, 0, /*loss=*/0.2, 2_us);
    plan.trunkBrownout(3_ms, /*rack=*/1, 1, /*loss=*/0.2, 2_us);
    plan.trunkUp(SimTime::ms(400), 0, victim);
    plan.trunkRepair(SimTime::ms(400), 1, 0);
    plan.trunkRepair(SimTime::ms(400), 1, 1);
    FaultController fc(cluster, plan);
    fc.install();
    EXPECT_TRUE(fc.installed());

    if (parallel) {
        ps.runParallel(10_sec);
    } else {
        ps.runSequential(10_sec);
    }

    const apps::IncastResult &r = app.result();
    FaultedOutcome out;
    out.done = r.done;
    out.reroutes = net.rerouteCount();
    out.degrade_drops = net.totalLinkDegradeDrops();

    std::vector<uint64_t> &fp = out.fingerprint;
    fp.push_back(r.total_bytes);
    fp.push_back(static_cast<uint64_t>(r.elapsed.toPs()));
    for (double s : r.iteration_us.raw()) {
        fp.push_back(doubleBits(s));
    }
    fp.push_back(cluster.totalTcpRetransmits());
    fp.push_back(cluster.totalTcpRtos());
    fp.push_back(cluster.totalTcpAborts());
    fp.push_back(cluster.totalNicRxDrops());
    fp.push_back(net.totalSwitchDrops());
    fp.push_back(net.totalForwarded());
    fp.push_back(net.rerouteCount());
    fp.push_back(net.totalLinkDownDrops());
    fp.push_back(net.totalLinkDegradeDrops());
    fp.push_back(ps.quantaExecuted());
    for (size_t i = 0; i < ps.size(); ++i) {
        fp.push_back(ps.partition(i).executedEvents());
    }
    return out;
}

TEST(FaultInjection, FaultedRunIsBitIdenticalSequentialVsParallel)
{
    // The faulted timeline must survive every fusion width: degenerate
    // single-worker, shared workers, and one worker per allowed CPU.
    FaultedOutcome seq = runFaultedIncast(false);
    EXPECT_TRUE(seq.done);
    for (size_t threads : {1u, 2u, 0u}) {
        FaultedOutcome par = runFaultedIncast(true, threads);
        EXPECT_TRUE(par.done) << "threads=" << threads;
        EXPECT_EQ(seq.fingerprint, par.fingerprint)
            << "threads=" << threads;
    }
}

TEST(FaultInjection, FaultsActuallyBite)
{
    // Guard against the determinism test passing vacuously: the trunk
    // cut must steer flows off their preferred plane and the brownout
    // must eat frames.
    FaultedOutcome out = runFaultedIncast(false);
    EXPECT_TRUE(out.done); // degraded, but the workload still completes
    EXPECT_GT(out.reroutes, 0u);
    EXPECT_GT(out.degrade_drops, 0u);
}

// ---------------------------------------------------------------------
// Server crash / reboot
// ---------------------------------------------------------------------

/** Two servers in one rack; node 0 streams a block to node 1. */
ClusterParams
pairParams()
{
    ClusterParams p = ClusterParams::gige1us();
    p.topo.servers_per_rack = 2;
    p.topo.racks_per_array = 1;
    p.topo.num_arrays = 1;
    return p;
}

struct SendResult {
    long rc = 1; // sentinel: never returned by sysSend
    SimTime finished_at;
    bool done = false;
};

Task<>
sinkServer(os::Kernel &k)
{
    os::Thread &t = k.createThread("sink");
    long lfd = co_await k.sysSocket(t, net::Proto::Tcp);
    co_await k.sysBind(t, static_cast<int>(lfd), 7);
    co_await k.sysListen(t, static_cast<int>(lfd), 4);
    long fd = co_await k.sysAccept(t, static_cast<int>(lfd), true);
    while (fd >= 0) {
        long n = co_await k.sysRecv(t, static_cast<int>(fd), 64 * 1024,
                                    nullptr);
        if (n <= 0) {
            co_return;
        }
    }
}

Task<>
bulkSender(Cluster *cluster, SendResult *r)
{
    os::Kernel &k = cluster->kernel(0);
    os::Thread &t = k.createThread("send");
    long fd = co_await apps::connectWithRetry(k, t, 1, 7);
    if (fd < 0) {
        ADD_FAILURE() << "connect failed: " << fd;
        co_return;
    }
    r->rc = co_await k.sysSend(t, static_cast<int>(fd), 512 * 1024,
                               nullptr);
    r->finished_at = k.sim().now();
    r->done = true;
}

TEST(FaultInjection, ServerCrashAbortsPeersInsteadOfHangingThem)
{
    ClusterParams params = pairParams();
    // Tight retry budget so the abort lands quickly.
    params.tcp.min_rto = 1_ms;
    params.tcp.init_rto = 2_ms;
    params.tcp.max_rto = 4_ms;
    params.tcp.max_retries = 4;

    Simulator sim;
    Cluster cluster(sim, params);
    SendResult r;
    cluster.kernel(1).spawnProcess(sinkServer(cluster.kernel(1)));
    cluster.kernel(0).spawnProcess(bulkSender(&cluster, &r));

    FaultPlan plan;
    plan.serverCrash(500_us, /*node=*/1); // mid-transfer, no reboot
    FaultController fc(cluster, plan);
    fc.install();
    sim.run();

    // The sender's retries exhaust against the silent host and the
    // connection aborts; the blocked send returns an error rather than
    // wedging the simulation.
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.rc, os::err::kTimedOut);
    EXPECT_EQ(cluster.totalTcpAborts(), 1u);
    EXPECT_TRUE(cluster.kernel(1).crashed());
    EXPECT_FALSE(cluster.uplink(1).isUp());
}

TEST(FaultInjection, RebootedServerResetsStaleConnections)
{
    ClusterParams params = pairParams();
    params.tcp.min_rto = 1_ms;
    params.tcp.init_rto = 2_ms;
    params.tcp.max_rto = 4_ms;
    params.tcp.max_retries = 200; // exhaustion would take ~a second

    Simulator sim;
    Cluster cluster(sim, params);
    SendResult r;
    cluster.kernel(1).spawnProcess(sinkServer(cluster.kernel(1)));
    cluster.kernel(0).spawnProcess(bulkSender(&cluster, &r));

    FaultPlan plan;
    plan.serverCrash(500_us, 1);
    plan.serverReboot(5_ms, 1);
    FaultController fc(cluster, plan);
    fc.install();
    sim.run();

    // The reboot wipes connection state, so the sender's next
    // retransmission draws an RST: the stale connection dies promptly
    // (connection-reset, not slow retry exhaustion).
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.rc, os::err::kConnReset);
    EXPECT_LT(r.finished_at, SimTime::ms(50));
    EXPECT_FALSE(cluster.kernel(1).crashed());
    EXPECT_TRUE(cluster.uplink(1).isUp());
    // Retransmissions that hit the host while it was dead were
    // discarded at the (dead) NIC ring, not processed.
    EXPECT_GT(cluster.totalCrashRxDiscards(), 0u);
}

// ---------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------

TEST(FaultPlan, FromConfigParsesEveryKind)
{
    Config cfg;
    cfg.set("fault.seed", 777);
    cfg.set("fault.0.kind", "trunk_down");
    cfg.set("fault.0.at_us", 1500.0);
    cfg.set("fault.0.rack", 2);
    cfg.set("fault.0.plane", 1);
    cfg.set("fault.1.kind", "trunk_brownout");
    cfg.set("fault.1.at_us", 2000.0);
    cfg.set("fault.1.rack", 1);
    cfg.set("fault.1.loss", 0.25);
    cfg.set("fault.1.extra_us", 3.0);
    cfg.set("fault.2.kind", "server_crash");
    cfg.set("fault.2.at_us", 2500.0);
    cfg.set("fault.2.node", 9);
    cfg.set("fault.3.kind", "switch_restart");
    cfg.set("fault.3.array", 1);
    cfg.set("fault.3.plane", 1);

    FaultPlan plan = FaultPlan::fromConfig(cfg);
    EXPECT_EQ(plan.seed(), 777u);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.events()[0].kind, FaultKind::TrunkDown);
    EXPECT_EQ(plan.events()[0].at, SimTime::us(1500));
    EXPECT_EQ(plan.events()[0].rack, 2u);
    EXPECT_EQ(plan.events()[0].plane, 1u);
    EXPECT_EQ(plan.events()[1].kind, FaultKind::TrunkBrownout);
    EXPECT_DOUBLE_EQ(plan.events()[1].loss_prob, 0.25);
    EXPECT_EQ(plan.events()[1].extra_latency, SimTime::us(3));
    EXPECT_EQ(plan.events()[2].kind, FaultKind::ServerCrash);
    EXPECT_EQ(plan.events()[2].node, 9u);
    EXPECT_EQ(plan.events()[3].kind, FaultKind::SwitchRestart);
    EXPECT_EQ(plan.events()[3].array, 1u);
    EXPECT_FALSE(plan.str().empty());
}

// A fault key that no event reads used to be dropped silently: a plan
// numbered from 1, or with a gap, ran fault-free; a misspelt operand
// read as 0.  Each is now a fatal that names the key.
TEST(FaultPlanDeathTest, GapInTheNumberingIsFatal)
{
    Config from_one;
    from_one.set("fault.1.kind", "trunk_down");
    from_one.set("fault.1.at_us", 100);
    from_one.set("fault.1.rack", 0);
    EXPECT_DEATH(FaultPlan::fromConfig(from_one),
                 "'fault.1.kind' follows a gap");

    Config gap;
    gap.set("fault.0.kind", "trunk_down");
    gap.set("fault.2.kind", "trunk_up");
    EXPECT_DEATH(FaultPlan::fromConfig(gap), "'fault.2.kind' follows a gap");
}

TEST(FaultPlanDeathTest, UnknownFieldIsFatal)
{
    Config misspelt;
    misspelt.set("fault.0.kind", "trunk_down");
    misspelt.set("fault.0.rak", 3);
    EXPECT_DEATH(FaultPlan::fromConfig(misspelt),
                 "unknown key 'fault.0.rak'");

    // An operand of another kind is not read either.
    Config foreign;
    foreign.set("fault.0.kind", "trunk_down");
    foreign.set("fault.0.node", 3);
    EXPECT_DEATH(FaultPlan::fromConfig(foreign),
                 "unknown key 'fault.0.node'");
}

TEST(FaultPlanDeathTest, PlanFileRejectsForeignAndRepeatedKeys)
{
    const std::string path =
        ::testing::TempDir() + "fault_plan_hostile.conf";
    auto write = [&path](const char *text) {
        std::ofstream out(path);
        out << text;
    };
    write("fault.0.kind = trunk_down\nrack = 1\n");
    EXPECT_DEATH(FaultPlan::fromFile(path), "key 'rack' is not a fault");
    write("fault.0.kind = trunk_down\nfault.0.kind = trunk_up\n");
    EXPECT_DEATH(FaultPlan::fromFile(path),
                 ":2: duplicate key 'fault.0.kind'");
    std::remove(path.c_str());
}

TEST(FaultPlan, FromFileMatchesFromConfig)
{
    const std::string path =
        ::testing::TempDir() + "fault_plan_test.conf";
    {
        std::ofstream out(path);
        out << "# a trunk outage with repair\n"
            << "fault.seed = 31337\n"
            << "\n"
            << "fault.0.kind = trunk_down   # cut it\n"
            << "fault.0.at_us = 100\n"
            << "fault.0.rack = 3\n"
            << "fault.0.plane = 1\n"
            << "fault.1.kind = trunk_up\n"
            << "fault.1.at_us = 900\n"
            << "fault.1.rack = 3\n"
            << "fault.1.plane = 1\n";
    }
    FaultPlan plan = FaultPlan::fromFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(plan.seed(), 31337u);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.events()[0].kind, FaultKind::TrunkDown);
    EXPECT_EQ(plan.events()[0].at, SimTime::us(100));
    EXPECT_EQ(plan.events()[0].rack, 3u);
    EXPECT_EQ(plan.events()[1].kind, FaultKind::TrunkUp);
    EXPECT_EQ(plan.events()[1].at, SimTime::us(900));
}

TEST(FaultPlanDeathTest, UnknownKindIsFatal)
{
    Config cfg;
    cfg.set("fault.0.kind", "gamma_ray");
    EXPECT_DEATH(FaultPlan::fromConfig(cfg), "unknown fault kind");
}

// A --fault-plan file plus command-line fault.* keys used to silently
// drop the command-line events; merge() is the union the CLI now uses.
TEST(FaultPlan, MergeAppendsEventsAndOptionallyTakesSeed)
{
    Config file_cfg;
    file_cfg.set("fault.seed", 7);
    file_cfg.set("fault.0.kind", "trunk_down");
    file_cfg.set("fault.0.at_us", 1000);
    file_cfg.set("fault.0.rack", 0);
    FaultPlan plan = FaultPlan::fromConfig(file_cfg);

    Config cli_cfg;
    cli_cfg.set("fault.seed", 9);
    cli_cfg.set("fault.0.kind", "trunk_up");
    cli_cfg.set("fault.0.at_us", 2000);
    cli_cfg.set("fault.0.rack", 0);
    FaultPlan cli = FaultPlan::fromConfig(cli_cfg);

    FaultPlan merged = plan;
    merged.merge(cli, /*take_seed=*/false);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.seed(), 7u); // file seed kept
    EXPECT_EQ(merged.events()[0].at, SimTime::us(1000));
    EXPECT_EQ(merged.events()[1].at, SimTime::us(2000));

    FaultPlan overridden = plan;
    overridden.merge(cli, /*take_seed=*/true);
    ASSERT_EQ(overridden.size(), 2u);
    EXPECT_EQ(overridden.seed(), 9u); // CLI fault.seed wins

    // Merging an empty plan is a no-op either way.
    FaultPlan lone = plan;
    lone.merge(FaultPlan(), /*take_seed=*/false);
    EXPECT_EQ(lone.size(), plan.size());
    EXPECT_EQ(lone.seed(), plan.seed());
}

TEST(FaultControllerDeathTest, ValidatesAgainstTopology)
{
    ClusterParams params = pairParams(); // single rack: no trunks
    Simulator sim;
    Cluster cluster(sim, params);

    FaultPlan trunk;
    trunk.trunkDown(1_ms, 0, 0);
    FaultController fc1(cluster, trunk);
    EXPECT_DEATH(fc1.install(), "single-rack topology");

    FaultPlan node;
    node.serverCrash(1_ms, /*node=*/99);
    FaultController fc2(cluster, node);
    EXPECT_DEATH(fc2.install(), "out of range");
}

} // namespace
} // namespace sim
} // namespace diablo
