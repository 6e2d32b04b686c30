/**
 * @file
 * Paper-scale memory-diet benchmark: can one host hold the paper's
 * 32,768-node datacenter (32 arrays x 32 racks x 32 servers, §6.3) and
 * run a deterministic memcached experiment over it?
 *
 *  - BM_SampleSetFoldPercentile / BM_SketchFoldPercentile: the stats
 *    side of the diet.  Identical sample counts (the 100k of the
 *    recorded BM_SampleSetPercentile engine baseline), identical
 *    queries; the sketch answers from fixed-memory bins instead of
 *    sorting retained samples.  tools/bench_guard.py --mode scale
 *    asserts the >= 10x separation.
 *
 *  - BM_Memcached32kUdp: the node-state side.  A lazily materialized
 *    32k-node sharded cluster runs the same seeded UDP memcached
 *    workload on the sequential reference engine and the pooled
 *    parallel engine; the benchmark reports peak RSS, nodes per GB,
 *    engine event throughput, and a seq_par_identical flag computed
 *    from chained statistic fingerprints (counters + quantile-sketch
 *    digests folded in partition/client order).  Results are appended
 *    to BENCH_scale.json (see bench/bench_json.hh).
 *
 * DIABLO_SCALE_REQUESTS overrides the per-client request count (CI uses
 * a reduced value to keep the smoke run short; the recorded trajectory
 * entries use the default).
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "apps/mc_experiment.hh"
#include "bench/bench_json.hh"
#include "core/stats.hh"
#include "sim/cluster.hh"

using namespace diablo;
using namespace diablo::time_literals;

namespace {

/** Peak RSS of this process, in bytes (ru_maxrss is KiB on Linux). */
uint64_t
peakRssBytes()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

// ---------------------------------------------------------------------
// Stats fold: raw SampleSet vs fixed-memory QuantileSketch.
// ---------------------------------------------------------------------

constexpr size_t kFoldClients = 100;
constexpr size_t kSamplesPerClient = 1000; // 100k total = engine baseline

/** Deterministic latency-shaped value stream (no libm, no RNG state). */
double
sampleValue(uint64_t i)
{
    // Mix to spread across ~3 decades like a latency tail.
    uint64_t z = i * 0x9E3779B97F4A7C15ULL;
    z ^= z >> 29;
    return 100.0 + static_cast<double>(z % 100000) / 37.0;
}

/**
 * The availability/latency fold the harness performs at paper scale:
 * per-client accumulators merged client-by-client, then one tail
 * query.  Raw mode re-sorts the retained samples; sketch mode adds
 * fixed-size bin arrays.  Same multiset, same query.
 */
void
BM_SampleSetFoldPercentile(benchmark::State &state)
{
    std::vector<SampleSet> clients(kFoldClients);
    for (size_t c = 0; c < kFoldClients; ++c) {
        for (size_t i = 0; i < kSamplesPerClient; ++i) {
            clients[c].record(sampleValue(c * kSamplesPerClient + i));
        }
    }
    double p99 = 0;
    for (auto _ : state) {
        SampleSet fold;
        for (const SampleSet &c : clients) {
            fold.merge(c);
        }
        p99 = fold.percentile(99);
        benchmark::DoNotOptimize(p99);
    }
    state.counters["total_samples"] = benchmark::Counter(
        static_cast<double>(kFoldClients * kSamplesPerClient));
}
BENCHMARK(BM_SampleSetFoldPercentile)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Guards the SampleSet::merge inplace_merge fast path: when both
 * sides' sorted caches are valid the merged cache must *stay* valid,
 * so folding K already-queried client sets never pays a re-sort at
 * the final percentile query.  The SkipWithError turns a silently
 * dropped fast path into a CI failure instead of a quiet slowdown.
 */
void
BM_SampleSetSortedMergeFold(benchmark::State &state)
{
    std::vector<SampleSet> clients(kFoldClients);
    for (size_t c = 0; c < kFoldClients; ++c) {
        for (size_t i = 0; i < kSamplesPerClient; ++i) {
            clients[c].record(sampleValue(c * kSamplesPerClient + i));
        }
        clients[c].percentile(50); // validate each client's cache
    }
    double p99 = 0;
    for (auto _ : state) {
        SampleSet fold = clients[0]; // copy keeps the cache valid
        for (size_t c = 1; c < kFoldClients; ++c) {
            fold.merge(clients[c]);
        }
        if (!fold.sortedCacheValid()) {
            state.SkipWithError("merge fast path lost the sorted cache");
            return;
        }
        p99 = fold.percentile(99);
        benchmark::DoNotOptimize(p99);
    }
    state.counters["total_samples"] = benchmark::Counter(
        static_cast<double>(kFoldClients * kSamplesPerClient));
}
BENCHMARK(BM_SampleSetSortedMergeFold)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_SketchFoldPercentile(benchmark::State &state)
{
    std::vector<QuantileSketch> clients(kFoldClients);
    for (size_t c = 0; c < kFoldClients; ++c) {
        for (size_t i = 0; i < kSamplesPerClient; ++i) {
            clients[c].record(sampleValue(c * kSamplesPerClient + i));
        }
    }
    double p99 = 0;
    for (auto _ : state) {
        QuantileSketch fold;
        for (const QuantileSketch &c : clients) {
            fold.merge(c);
        }
        p99 = fold.percentile(99);
        benchmark::DoNotOptimize(p99);
    }
    state.counters["total_samples"] = benchmark::Counter(
        static_cast<double>(kFoldClients * kSamplesPerClient));
    state.counters["sketch_bytes"] = benchmark::Counter(
        static_cast<double>(clients[0].memoryBytes()));
}
BENCHMARK(BM_SketchFoldPercentile)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// The 32k-node run.
// ---------------------------------------------------------------------

uint32_t
scaleRequests()
{
    const char *env = std::getenv("DIABLO_SCALE_REQUESTS");
    if (env && *env) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0) {
            return static_cast<uint32_t>(v);
        }
    }
    return 30;
}

apps::McExperimentParams
paperScaleParams()
{
    apps::McExperimentParams mp;
    mp.cluster = sim::ClusterParams::gige1us();
    // The paper's full datacenter shape (§6.3): 32 arrays x 32 racks x
    // 32 servers = 32,768 nodes, 1,024 rack partitions + 1 switch
    // partition.
    mp.cluster.topo.servers_per_rack = 32;
    mp.cluster.topo.racks_per_array = 32;
    mp.cluster.topo.num_arrays = 32;
    mp.cluster.lazy_servers = true;
    // A representative active subset: 64 servers + 64 clients spread
    // round-robin over the racks.  Every other node stays idle — and,
    // on the lazy cluster, unmaterialized; that is the memory diet
    // being measured.  UDP keeps the active flows connectionless (TCP
    // preconnect would build clients x servers connection state, which
    // is a workload choice, not node-state overhead).
    mp.num_servers = 64;
    mp.num_clients = 64;
    mp.sketch_stats = true;
    mp.server.udp = true;
    mp.client.udp = true;
    mp.client.requests = scaleRequests();
    return mp;
}

struct ScaleOutcome {
    uint64_t fingerprint = 0; ///< chained digest of every statistic
    uint64_t events = 0;
    uint64_t materialized = 0;
    uint64_t arena_bytes = 0;
    double elapsed_sim_s = 0;
};

ScaleOutcome
runPaperScale(bool parallel)
{
    const apps::McExperimentParams mp = paperScaleParams();
    fame::PartitionSet ps(sim::Cluster::partitionsRequired(mp.cluster));
    apps::McExperiment exp(ps, mp);
    exp.run(parallel);

    const apps::McExperimentResult &r = exp.result();
    sim::Cluster &cluster = exp.cluster();

    // Chain every observable statistic in a fixed order with the
    // order-sensitive fold, so "seq == par" means the full latency
    // distributions, protocol counters, and per-partition event counts
    // are bit-identical — not merely the totals.
    uint64_t fp = 0;
    auto chain = [&fp](uint64_t v) {
        fp = QuantileSketch::chainFingerprint(fp, v);
    };
    chain(r.requests_completed);
    chain(r.udp_timeouts);
    chain(r.udp_retries);
    chain(static_cast<uint64_t>(r.elapsed.toPs()));
    chain(r.latency_us.fingerprint());
    chain(r.first_request_us.fingerprint());
    for (int h = 0; h < 3; ++h) {
        chain(r.latency_us_by_hop[h].fingerprint());
    }
    chain(cluster.totalTcpRetransmits());
    chain(cluster.totalUdpSocketDrops());
    chain(cluster.totalNicRxDrops());
    chain(cluster.network().totalSwitchDrops());
    chain(cluster.network().totalForwarded());
    for (size_t i = 0; i < ps.size(); ++i) {
        chain(ps.partition(i).executedEvents());
    }

    ScaleOutcome out;
    out.fingerprint = fp;
    out.events = ps.totalExecutedEvents();
    out.materialized = cluster.materializedServers();
    for (const sim::Cluster::ArenaStats &a : cluster.arenaStats()) {
        out.arena_bytes += a.bytes_used;
    }
    out.elapsed_sim_s = r.elapsed.toPs() / 1e12;
    return out;
}

void
BM_Memcached32kUdp(benchmark::State &state)
{
    ScaleOutcome seq, par;
    uint64_t events = 0;
    for (auto _ : state) {
        seq = runPaperScale(/*parallel=*/false);
        par = runPaperScale(/*parallel=*/true);
        events += seq.events + par.events;
    }
    if (seq.fingerprint != par.fingerprint) {
        state.SkipWithError("sequential and parallel runs diverged");
        return;
    }
    const uint64_t rss = peakRssBytes();
    const double nodes = 32.0 * 32.0 * 32.0; // 32,768
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.counters["peak_rss_mb"] =
        benchmark::Counter(static_cast<double>(rss) / (1024.0 * 1024.0));
    state.counters["nodes_per_gb"] = benchmark::Counter(
        nodes / (static_cast<double>(rss) / (1024.0 * 1024.0 * 1024.0)));
    state.counters["bytes_per_node"] =
        benchmark::Counter(static_cast<double>(rss) / nodes);
    state.counters["materialized_nodes"] =
        benchmark::Counter(static_cast<double>(seq.materialized));
    state.counters["arena_bytes"] =
        benchmark::Counter(static_cast<double>(seq.arena_bytes));
    state.counters["seq_par_identical"] = benchmark::Counter(1.0);
    state.counters["sim_elapsed_s"] =
        benchmark::Counter(seq.elapsed_sim_s);
    state.counters["requests_per_client"] =
        benchmark::Counter(static_cast<double>(scaleRequests()));
}
BENCHMARK(BM_Memcached32kUdp)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kSecond);

} // namespace

// Custom main: console output plus a JSON trajectory entry appended to
// BENCH_scale.json, so the paper-scale memory/throughput floors are
// tracked across PRs (tools/bench_guard.py --mode scale).
int
main(int argc, char **argv)
{
    return diablo::bench_json::runMain(argc, argv, "BENCH_scale.json");
}
