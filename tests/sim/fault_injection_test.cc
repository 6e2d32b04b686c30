#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
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

/** Every server outside rack 0, the incast client's rack. */
std::vector<net::NodeId>
remoteServers(Cluster &cluster)
{
    std::vector<net::NodeId> servers;
    for (net::NodeId n = cluster.params().topo.servers_per_rack;
         n < cluster.size(); ++n) {
        servers.push_back(n);
    }
    return servers;
}

/**
 * The uplink plane carrying the most server->client response flows into
 * rack 0: cutting it is guaranteed to strand traffic and force reroutes.
 */
uint32_t
busiestPlane(topo::ClosNetwork &net, const std::vector<net::NodeId> &servers)
{
    std::vector<uint32_t> per_plane(net.planes(), 0);
    for (net::NodeId s : servers) {
        ++per_plane[net.preferredPlane(s, 0)];
    }
    return static_cast<uint32_t>(
        std::max_element(per_plane.begin(), per_plane.end()) -
        per_plane.begin());
}

/**
 * Everything event-driven a faulted incast run leaves behind: the
 * app's result, the TCP/NIC/fabric fault counters and the engine's
 * per-partition event counts.  Two engines that ran the same faulted
 * timeline give equal fingerprints.
 */
std::vector<uint64_t>
runFingerprint(const apps::IncastResult &r, Cluster &cluster,
               fame::PartitionSet &ps)
{
    topo::ClosNetwork &net = cluster.network();
    std::vector<uint64_t> fp;
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
    return fp;
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
    const std::vector<net::NodeId> servers = remoteServers(cluster);
    apps::IncastApp app(cluster, ip, /*client=*/0, servers);
    app.install();

    topo::ClosNetwork &net = cluster.network();
    const uint32_t victim = busiestPlane(net, servers);
    FaultPlan plan(params.seed);
    plan.add({.at = 2_ms,
              .kind = FaultKind::TrunkDown,
              .rack = 0,
              .plane = victim});
    plan.add({.at = 3_ms,
              .kind = FaultKind::TrunkBrownout,
              .rack = 1,
              .plane = 0,
              .loss_prob = 0.2,
              .extra_latency = 2_us});
    plan.add({.at = 3_ms,
              .kind = FaultKind::TrunkBrownout,
              .rack = 1,
              .plane = 1,
              .loss_prob = 0.2,
              .extra_latency = 2_us});
    plan.add({.at = SimTime::ms(400),
              .kind = FaultKind::TrunkUp,
              .rack = 0,
              .plane = victim});
    plan.add({.at = SimTime::ms(400),
              .kind = FaultKind::TrunkRepair,
              .rack = 1,
              .plane = 0});
    plan.add({.at = SimTime::ms(400),
              .kind = FaultKind::TrunkRepair,
              .rack = 1,
              .plane = 1});
    FaultController fc(cluster, plan);
    fc.install();
    EXPECT_TRUE(fc.installed());

    if (parallel) {
        ps.runParallel(10_sec);
    } else {
        ps.runSequential(10_sec);
    }

    FaultedOutcome out;
    out.done = app.result().done;
    out.reroutes = net.rerouteCount();
    out.degrade_drops = net.totalLinkDegradeDrops();
    out.fingerprint = runFingerprint(app.result(), cluster, ps);
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
// Goodput through a trunk outage
// ---------------------------------------------------------------------

/**
 * The edges of the outage run's three phases: the warm-up end, the
 * trunk cut, its repair and the horizon.  Healthy is [20, 60) ms,
 * degraded [60, 320) ms and recovered [320, 400) ms.
 */
constexpr SimTime kPhaseEdges[] = {20_ms, 60_ms, 320_ms, 400_ms};

struct OutageOutcome {
    /** Application goodput per phase: healthy, degraded, recovered. */
    double mbps[3] = {};
    uint64_t reroutes = 0;
    uint64_t down_drops = 0;
    uint64_t retransmits = 0;
    uint64_t rtos = 0;
    std::vector<uint64_t> fingerprint;
};

/**
 * A continuous 32 KB incast from the nine servers of racks 1-3 into
 * rack 0 while the plan cuts rack 0's busiest uplink plane at 60 ms and
 * restores it at 320 ms.  The rack layer and the hosts run at 10 Gbps
 * over 1 Gbps array trunks, so with both planes live the client sinks
 * about 2 Gbps and losing one plane halves its capacity instead of
 * hiding behind the access link.  The engine is stepped to each phase
 * edge; a phase's goodput is its completed iterations x block bytes x
 * servers over its length, as diablo_run's telemetry computes it.
 */
OutageOutcome
runTrunkOutage(bool parallel)
{
    ClusterParams params = planedFourRackParams();
    params.topo.rack_sw.port_bw = Bandwidth::gbps(10);
    params.topo.host_bw = Bandwidth::gbps(10);
    fame::PartitionSet ps(Cluster::partitionsRequired(params));
    Cluster cluster(ps, params);

    apps::IncastParams ip;
    ip.block_bytes = 32 * 1024;
    ip.iterations = 1000000; // the horizon ends the run, never the app
    const std::vector<net::NodeId> servers = remoteServers(cluster);
    apps::IncastApp app(cluster, ip, /*client=*/0, servers);
    app.install();

    topo::ClosNetwork &net = cluster.network();
    const uint32_t victim = busiestPlane(net, servers);
    FaultPlan plan(params.seed);
    plan.add({.at = kPhaseEdges[1],
              .kind = FaultKind::TrunkDown,
              .rack = 0,
              .plane = victim});
    plan.add({.at = kPhaseEdges[2],
              .kind = FaultKind::TrunkUp,
              .rack = 0,
              .plane = victim});
    FaultController fc(cluster, plan);
    fc.install();

    OutageOutcome out;
    uint64_t iters[std::size(kPhaseEdges)];
    for (size_t e = 0; e < std::size(kPhaseEdges); ++e) {
        if (parallel) {
            ps.runParallel(kPhaseEdges[e]);
        } else {
            ps.runSequential(kPhaseEdges[e]);
        }
        iters[e] = app.result().iteration_us.count();
        out.fingerprint.push_back(iters[e]);
    }
    for (size_t p = 0; p + 1 < std::size(kPhaseEdges); ++p) {
        const double bits = static_cast<double>(iters[p + 1] - iters[p]) *
                            static_cast<double>(ip.block_bytes) *
                            static_cast<double>(servers.size()) * 8.0;
        out.mbps[p] = bits /
                      (kPhaseEdges[p + 1] - kPhaseEdges[p]).asSeconds() /
                      1e6;
    }
    out.reroutes = net.rerouteCount();
    out.down_drops = net.totalLinkDownDrops();
    out.retransmits = cluster.totalTcpRetransmits();
    out.rtos = cluster.totalTcpRtos();
    const std::vector<uint64_t> fp = runFingerprint(app.result(), cluster, ps);
    out.fingerprint.insert(out.fingerprint.end(), fp.begin(), fp.end());
    return out;
}

TEST(FaultInjection, TrunkOutageDipsGoodputUntilRepair)
{
    // Flows on the cut plane stall for an RTO and are then rerouted to
    // the surviving plane; the fabric counts the frames the dead trunk
    // held, TCP retransmits with backoff, and the repair restores the
    // second plane's capacity.  Both engines must tell the same story.
    const OutageOutcome seq = runTrunkOutage(false);
    const OutageOutcome par = runTrunkOutage(true);
    for (const OutageOutcome *o : {&seq, &par}) {
        const char *engine = o == &seq ? "seq" : "par";
        EXPECT_LT(o->mbps[1], o->mbps[0]) << engine;
        EXPECT_GT(o->mbps[2], o->mbps[1]) << engine;
        EXPECT_GT(o->reroutes, 0u) << engine;
        EXPECT_GT(o->down_drops, 0u) << engine;
        EXPECT_GT(o->retransmits, 0u) << engine;
        EXPECT_GT(o->rtos, 0u) << engine;
    }
    EXPECT_EQ(seq.fingerprint, par.fingerprint);
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

    FaultPlan plan; // a crash mid-transfer, with no reboot
    plan.add({.at = 500_us, .kind = FaultKind::ServerCrash, .node = 1});
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
    plan.add({.at = 500_us, .kind = FaultKind::ServerCrash, .node = 1});
    plan.add({.at = 5_ms, .kind = FaultKind::ServerReboot, .node = 1});
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
    trunk.add({.at = 1_ms,
               .kind = FaultKind::TrunkDown,
               .rack = 0,
               .plane = 0});
    FaultController fc1(cluster, trunk);
    EXPECT_DEATH(fc1.install(), "single-rack topology");

    FaultPlan node;
    node.add({.at = 1_ms, .kind = FaultKind::ServerCrash, .node = 99});
    FaultController fc2(cluster, node);
    EXPECT_DEATH(fc2.install(), "out of range");
}

} // namespace
} // namespace sim
} // namespace diablo
