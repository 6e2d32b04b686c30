#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/incast.hh"
#include "apps/mc_experiment.hh"
#include "sim/cluster.hh"
#include "sim/telemetry.hh"

namespace diablo {
namespace sim {
namespace {

using namespace diablo::time_literals;

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

std::string
tmpStream(const char *tag)
{
    return testing::TempDir() + "diablo_telemetry_" + tag + ".jsonl";
}

enum class Engine { Single, Seq, Par };

const char *
engineName(Engine e)
{
    return e == Engine::Single ? "single" : e == Engine::Seq ? "seq" : "par";
}

constexpr Engine kEngines[] = {Engine::Single, Engine::Seq, Engine::Par};

/**
 * Incast — the same traffic pattern the seq≡par bit-identity tests pin
 * — driven through the shared run loop on @p engine, optionally with a
 * TelemetryProbe sampling every 700 µs (deliberately not a divisor of
 * the 250 ms window, so driveTo really does subdivide windows at
 * awkward grid points).  The fingerprint folds every engine-independent
 * observable; quanta are excluded because subdividing windows
 * legitimately changes how the engine chops time, which must never
 * show up in results.
 */
std::vector<uint64_t>
runIncast(Engine engine, bool with_probe, const std::string &stream_path,
          uint64_t *samples_out = nullptr)
{
    const ClusterParams params = fourRackParams();
    Simulator sim;
    std::unique_ptr<fame::PartitionSet> ps;
    std::unique_ptr<Cluster> owned;
    if (engine == Engine::Single) {
        owned = std::make_unique<Cluster>(sim, params);
    } else {
        ps = std::make_unique<fame::PartitionSet>(
            Cluster::partitionsRequired(params));
        owned = std::make_unique<Cluster>(*ps, params);
    }
    Cluster &cluster = *owned;

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

    std::unique_ptr<TelemetryProbe> probe;
    if (with_probe) {
        probe = std::make_unique<TelemetryProbe>(
            cluster, SimTime::us(700), stream_path);
        probe->setSampler([&app](TelemetryProbe::AppStats &s) {
            s.requests_completed = app.result().iteration_us.count();
        });
    }

    const Cluster::DriveEnd end = cluster.drive(
        250_ms, 10_sec, cluster.engineStep(engine == Engine::Par),
        [&app] { return app.result().done; }, {}, probe.get());
    EXPECT_EQ(end.reason, Cluster::DriveEnd::Done) << engineName(engine);

    const apps::IncastResult &r = app.result();
    EXPECT_TRUE(r.done);
    if (samples_out != nullptr) {
        *samples_out = probe != nullptr ? probe->samplesWritten() : 0;
    }

    std::vector<uint64_t> fp;
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
    if (ps != nullptr) {
        for (size_t i = 0; i < ps->size(); ++i) {
            fp.push_back(ps->partition(i).executedEvents());
        }
    } else {
        fp.push_back(sim.executedEvents());
    }
    for (const Cluster::PoolStats &p : cluster.poolStats()) {
        fp.push_back(p.makes);
        fp.push_back(p.returns);
    }
    return fp;
}

// The headline contract: enabling the probe changes *nothing* in the
// simulated outcome, on every engine — on the parallel one, samples
// are only taken at window boundaries with no worker running.
TEST(Telemetry, ProbeDoesNotPerturbAnyEngine)
{
    for (Engine e : kEngines) {
        const std::string path = tmpStream(engineName(e));
        uint64_t samples = 0;
        std::vector<uint64_t> off = runIncast(e, false, path);
        std::vector<uint64_t> on = runIncast(e, true, path, &samples);
        EXPECT_EQ(off, on) << engineName(e);
        EXPECT_GT(samples, 0u) << engineName(e);
        std::remove(path.c_str());
    }
}

// Every engine writes the same number of samples (the stream is
// sim-time-paced, so its length is itself deterministic), and the
// sharded engines still agree with each other with the probe attached.
TEST(Telemetry, EnginesAgreeWithProbeAttached)
{
    std::vector<uint64_t> fps[3];
    uint64_t samples[3] = {};
    for (Engine e : kEngines) {
        const size_t i = static_cast<size_t>(e);
        const std::string path = tmpStream(engineName(e));
        fps[i] = runIncast(e, true, path, &samples[i]);
        std::remove(path.c_str());
    }
    EXPECT_EQ(fps[1], fps[2]);
    EXPECT_EQ(samples[0], samples[1]);
    EXPECT_EQ(samples[1], samples[2]);
}

TEST(Telemetry, StreamIsOneJsonObjectPerSample)
{
    const std::string path = tmpStream("shape");
    uint64_t samples = 0;
    runIncast(Engine::Seq, true, path, &samples);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    uint64_t lines = 0;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"t_us\":"), std::string::npos);
        EXPECT_NE(line.find("\"requests_completed\":"),
                  std::string::npos);
        EXPECT_NE(line.find("\"pool_makes\":"), std::string::npos);
        ++lines;
    }
    EXPECT_EQ(lines, samples);
    std::remove(path.c_str());
}

// The memcached harness drives the same loop: its single-engine
// results must be bit-identical with the probe attached or absent.
TEST(Telemetry, ProbeDoesNotPerturbSingleEngineMemcached)
{
    auto run = [](bool with_probe, const std::string &path,
                  uint64_t *samples) {
        apps::McExperimentParams p;
        p.cluster = ClusterParams::gige1us();
        p.cluster.topo.servers_per_rack = 3;
        p.cluster.topo.racks_per_array = 2;
        p.cluster.topo.num_arrays = 1;
        p.num_servers = 2;
        p.client.requests = 5;
        Simulator sim;
        apps::McExperiment exp(sim, p);
        std::unique_ptr<TelemetryProbe> probe;
        if (with_probe) {
            probe = std::make_unique<TelemetryProbe>(
                exp.cluster(), SimTime::ms(1), path);
            probe->setSampler([&exp](TelemetryProbe::AppStats &s) {
                s.requests_completed =
                    exp.liveStats().requests_completed;
            });
            exp.attachTelemetry(probe.get());
        }
        exp.run(false);
        if (samples != nullptr) {
            *samples = probe != nullptr ? probe->samplesWritten() : 0;
        }
        const apps::McExperimentResult &r = exp.result();
        std::vector<uint64_t> fp;
        fp.push_back(r.requests_completed);
        fp.push_back(static_cast<uint64_t>(r.elapsed.toPs()));
        fp.push_back(r.latency_us.fingerprint());
        for (int h = 0; h < 3; ++h) {
            fp.push_back(r.latency_us_by_hop[h].fingerprint());
        }
        fp.push_back(r.udp_retries);
        fp.push_back(r.udp_timeouts);
        return fp;
    };

    const std::string path = tmpStream("mc");
    uint64_t samples = 0;
    std::vector<uint64_t> off = run(false, path, nullptr);
    std::vector<uint64_t> on = run(true, path, &samples);
    EXPECT_EQ(off, on);
    EXPECT_GT(samples, 0u);
    std::remove(path.c_str());
}

TEST(TelemetryDeathTest, NonPositivePeriodIsFatal)
{
    EXPECT_DEATH(
        {
            ClusterParams p = ClusterParams::gige1us();
            p.topo.servers_per_rack = 2;
            p.topo.racks_per_array = 1;
            p.topo.num_arrays = 1;
            Simulator sim;
            Cluster cluster(sim, p);
            TelemetryProbe probe(cluster, SimTime(), "/dev/null");
        },
        "period must be positive");
}

} // namespace
} // namespace sim
} // namespace diablo
