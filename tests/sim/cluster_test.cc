#include <gtest/gtest.h>

#include <functional>

#include "sim/cluster.hh"

namespace diablo {
namespace sim {
namespace {

using namespace diablo::time_literals;

ClusterParams
tinyCluster()
{
    ClusterParams p = ClusterParams::gige1us();
    p.topo.servers_per_rack = 4;
    p.topo.racks_per_array = 3;
    p.topo.num_arrays = 2;
    return p;
}

struct EchoProbe {
    long server_got = -1;
    long client_got = -1;
    SimTime rtt;
    bool done = false;
};

Task<>
probeServer(os::Kernel &k, EchoProbe &r)
{
    os::Thread &t = k.createThread("srv");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    co_await k.sysBind(t, static_cast<int>(fd), 7);
    os::RecvedMessage m;
    r.server_got = co_await k.sysRecvFrom(t, static_cast<int>(fd), &m);
    co_await k.sysSendTo(t, static_cast<int>(fd), m.from, m.from_port,
                         static_cast<uint64_t>(r.server_got), nullptr);
}

Task<>
probeClient(os::Kernel &k, net::NodeId dst, EchoProbe &r)
{
    os::Thread &t = k.createThread("cli");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    SimTime start = k.sim().now();
    co_await k.sysSendTo(t, static_cast<int>(fd), dst, 7, 200, nullptr);
    os::RecvedMessage m;
    r.client_got = co_await k.sysRecvFrom(t, static_cast<int>(fd), &m);
    r.rtt = k.sim().now() - start;
    r.done = true;
}

SimTime
echoRtt(net::NodeId src, net::NodeId dst)
{
    Simulator sim;
    Cluster cluster(sim, tinyCluster());
    EchoProbe r;
    cluster.kernel(dst).spawnProcess(probeServer(cluster.kernel(dst), r));
    cluster.kernel(src).spawnProcess(probeClient(cluster.kernel(src), dst,
                                                 r));
    sim.run();
    EXPECT_TRUE(r.done);
    EXPECT_EQ(r.server_got, 200);
    EXPECT_EQ(r.client_got, 200);
    return r.rtt;
}

TEST(Cluster, EchoAcrossEveryHopClass)
{
    SimTime local = echoRtt(0, 2);    // same rack
    SimTime onehop = echoRtt(0, 8);   // same array, different rack
    SimTime twohop = echoRtt(0, 20);  // different array

    // Each added switch level adds latency.
    EXPECT_LT(local, onehop);
    EXPECT_LT(onehop, twohop);
    // 1 Gbps, 1 us per switch: everything finishes well under 1 ms.
    EXPECT_LT(twohop, 1_ms);
    EXPECT_GT(local, 10_us);
}

TEST(Cluster, EveryPairIsReachable)
{
    // Property check over the whole tiny fabric: an echo works between
    // every ordered pair of distinct nodes (sampled diagonally to keep
    // runtime reasonable while touching every node as both roles).
    Simulator sim;
    Cluster cluster(sim, tinyCluster());
    const uint32_t n = cluster.size();
    std::vector<EchoProbe> probes(n);
    for (uint32_t i = 0; i < n; ++i) {
        net::NodeId dst = (i + 7) % n; // crosses rack/array boundaries
        if (dst == i) {
            continue;
        }
        cluster.kernel(dst).spawnProcess(
            probeServer(cluster.kernel(dst), probes[i]));
    }
    // Servers all bind port 7 on their own node; one client per node.
    for (uint32_t i = 0; i < n; ++i) {
        net::NodeId dst = (i + 7) % n;
        if (dst == i) {
            continue;
        }
        cluster.kernel(i).spawnProcess(
            probeClient(cluster.kernel(i), dst, probes[i]));
    }
    sim.run();
    for (uint32_t i = 0; i < n; ++i) {
        if ((i + 7) % n == i) {
            continue;
        }
        EXPECT_TRUE(probes[i].done) << "pair " << i;
        EXPECT_EQ(probes[i].client_got, 200) << "pair " << i;
    }
}

TEST(Cluster, DeterministicAcrossConstructions)
{
    auto run = [] {
        Simulator sim;
        Cluster cluster(sim, tinyCluster());
        EchoProbe r;
        cluster.kernel(20).spawnProcess(
            probeServer(cluster.kernel(20), r));
        cluster.kernel(0).spawnProcess(
            probeClient(cluster.kernel(0), 20, r));
        sim.run();
        return std::pair(r.rtt.toPs(), sim.executedEvents());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a, b);
}

TEST(Cluster, PaperScaleConstructionIsFeasible)
{
    // The paper's 500-node setup: 16 racks x 31 servers, one array.
    Simulator sim;
    ClusterParams p = ClusterParams::gige1us();
    p.topo.servers_per_rack = 31;
    p.topo.racks_per_array = 16;
    p.topo.num_arrays = 1;
    Cluster cluster(sim, p);
    EXPECT_EQ(cluster.size(), 496u);
    EXPECT_EQ(cluster.network().numRackSwitches(), 16u);
    EXPECT_EQ(cluster.network().numArraySwitches(), 1u);
}

TEST(Cluster, TengigPresetHasFasterFabric)
{
    ClusterParams g = ClusterParams::gige1us();
    ClusterParams x = ClusterParams::tengig100ns();
    EXPECT_DOUBLE_EQ(x.topo.rack_sw.port_bw.asGbps(), 10.0);
    EXPECT_EQ(x.topo.rack_sw.port_latency, SimTime::ns(100));
    EXPECT_DOUBLE_EQ(g.topo.rack_sw.port_bw.asGbps(), 1.0);
    // Both keep the shallow 4 KB buffers (paper: "same simulated switch
    // buffer configuration").
    EXPECT_EQ(g.topo.rack_sw.buffer_per_port_bytes, 4096u);
    EXPECT_EQ(x.topo.rack_sw.buffer_per_port_bytes, 4096u);
}

/** Run @p body on a single-Simulator and on a sharded tinyCluster(). */
void
forEachEngine(const std::function<void(Cluster &, const char *)> &body)
{
    {
        Simulator sim;
        Cluster cluster(sim, tinyCluster());
        body(cluster, "single");
    }
    fame::PartitionSet ps(Cluster::partitionsRequired(tinyCluster()));
    Cluster cluster(ps, tinyCluster());
    body(cluster, "sharded");
}

TEST(ClusterEngine, PartitionsAreTheEngineSimulators)
{
    Simulator sim;
    Cluster single(sim, tinyCluster());
    ASSERT_EQ(single.partitions().size(), 1u);
    EXPECT_EQ(single.partitions()[0], &sim);

    fame::PartitionSet ps(Cluster::partitionsRequired(tinyCluster()));
    Cluster sharded(ps, tinyCluster());
    ASSERT_EQ(sharded.partitions().size(), ps.size());
    for (size_t i = 0; i < ps.size(); ++i) {
        EXPECT_EQ(sharded.partitions()[i], &ps.partition(i));
    }
}

const auto kNeverDone = [] { return false; };

TEST(ClusterDrive, EndsWhenTheWorkloadIsDone)
{
    forEachEngine([](Cluster &cluster, const char *engine) {
        EchoProbe r;
        cluster.kernel(20).spawnProcess(
            probeServer(cluster.kernel(20), r));
        cluster.kernel(0).spawnProcess(
            probeClient(cluster.kernel(0), 20, r));
        int pulses = 0;
        const Cluster::DriveEnd end = cluster.drive(
            10_ms, 60_sec, cluster.engineStep(false),
            [&r] { return r.done; },
            [&pulses] {
                ++pulses;
                return false;
            },
            nullptr);
        EXPECT_EQ(end.reason, Cluster::DriveEnd::Done) << engine;
        EXPECT_EQ(end.reached, 10_ms) << engine;
        EXPECT_EQ(pulses, 1) << engine;
        EXPECT_TRUE(r.done) << engine;
    });
}

TEST(ClusterDrive, NothingScheduledIsIdle)
{
    // Without the idle check the loop would spin to its cap.
    forEachEngine([](Cluster &cluster, const char *engine) {
        const Cluster::DriveEnd end =
            cluster.drive(10_ms, 60_sec, cluster.engineStep(false),
                          kNeverDone, {}, nullptr);
        EXPECT_EQ(end.reason, Cluster::DriveEnd::Idle) << engine;
        EXPECT_EQ(end.reached, 10_ms) << engine;
    });
}

TEST(ClusterDrive, FirstPulseStopsBeforeAnyEvent)
{
    forEachEngine([](Cluster &cluster, const char *engine) {
        EchoProbe r;
        cluster.kernel(20).spawnProcess(
            probeServer(cluster.kernel(20), r));
        cluster.kernel(0).spawnProcess(
            probeClient(cluster.kernel(0), 20, r));
        const Cluster::DriveEnd end = cluster.drive(
            10_ms, 60_sec, cluster.engineStep(false),
            [&r] { return r.done; }, [] { return true; }, nullptr);
        EXPECT_EQ(end.reason, Cluster::DriveEnd::Stopped) << engine;
        EXPECT_EQ(end.reached, SimTime()) << engine;
        for (const Simulator *p : cluster.partitions()) {
            EXPECT_EQ(p->executedEvents(), 0u) << engine;
        }
    });
}

/** Reschedules itself every millisecond, forever. */
struct Forever {
    Simulator *sim;

    void operator()() { sim->schedule(1_ms, Forever{sim}); }
};

TEST(ClusterDrive, EndlessWorkStopsAtTheCap)
{
    forEachEngine([](Cluster &cluster, const char *engine) {
        Simulator &s = *cluster.partitions()[0];
        s.schedule(1_ms, Forever{&s});
        const Cluster::DriveEnd end =
            cluster.drive(10_ms, 50_ms, cluster.engineStep(false),
                          kNeverDone, {}, nullptr);
        EXPECT_EQ(end.reason, Cluster::DriveEnd::Capped) << engine;
        EXPECT_EQ(end.reached, 50_ms) << engine;
    });
}

TEST(ClusterDrive, FailedStepAbandonsTheRun)
{
    forEachEngine([](Cluster &cluster, const char *engine) {
        const Cluster::DriveEnd end = cluster.drive(
            10_ms, 60_sec, [](SimTime) { return false; }, kNeverDone, {},
            nullptr);
        EXPECT_EQ(end.reason, Cluster::DriveEnd::Abandoned) << engine;
        EXPECT_EQ(end.reached, 10_ms) << engine;
    });
}

} // namespace
} // namespace sim
} // namespace diablo
