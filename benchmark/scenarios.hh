#ifndef DIABLO_BENCHMARK_SCENARIOS_HH_
#define DIABLO_BENCHMARK_SCENARIOS_HH_

/**
 * @file
 * The benchmark's workloads and one timed rep of each.
 *
 * A workload is a scenario (the simulated input: topology, application,
 * size) run on one engine.  Scenarios are built only through the
 * library's public APIs and its presets (ClusterParams::gige1us(), never
 * applyConfig), and every rep of every engine folds the same
 * fingerprint, so a rep is correct exactly when its fingerprint equals
 * that of the scenario's single-Simulator reference rep.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace diablo {
namespace bench {

enum class Engine { Single, Seq, Par, Coupled };

const char *engineName(Engine e);

enum class AppKind { Incast, Memcached };

/** Simulated input of a workload; engine-independent. */
struct Scenario {
    /** Reference group: workloads of one family share a fingerprint. */
    std::string family;
    AppKind app = AppKind::Incast;

    // Incast: node 0 is the client; the seed picks which nodes send.
    uint32_t racks = 0;
    uint32_t senders = 0;
    uint32_t iterations = 0;
    uint64_t block_bytes = 0;

    // Memcached over arrays x racks_per_array x servers_per_rack nodes.
    uint32_t arrays = 0;
    uint32_t racks_per_array = 0;
    uint32_t servers_per_rack = 0;
    uint32_t mc_servers = 0;
    uint32_t mc_clients = 0; ///< 0 = every non-server node
    uint32_t requests = 0;
    bool sketch_stats = false;
};

struct Workload {
    const char *name;
    Scenario scenario;
    Engine engine;
};

/** The canonical workloads, in run order. */
const std::vector<Workload> &workloads();

/** @p s shrunk to run in well under a second (the --check gate). */
Scenario checkScale(const Scenario &s);

/** How one rep runs; everything but the seed is host-side placement. */
struct RepOptions {
    uint64_t seed = 20150314;
    /** Record window and per-layer spans and read every counter. */
    bool traced = false;
    /** Build and tear down only: a set-up sample, no run, no result. */
    bool setup_only = false;
    /**
     * The two CPUs a rep may use (equal on a one-CPU host).  The caller
     * pins the rep's thread to cpu0; a second engine thread goes on cpu1.
     */
    int cpu0 = 0;
    int cpu1 = 0;
    /** Directory for the coupled engine's shared segment file. */
    std::string shm_dir;
    /** Chrome trace written here after a traced rep (empty: none). */
    std::string trace_path;
};

/** What one rep measured. */
struct RepResult {
    bool completed = false;
    uint64_t fingerprint = 0;
    /**
     * Host times of the rep's phases (wall_s, setup_s, run_s), the
     * model outputs ("model." prefix, never compared as speed) and, for
     * a traced rep, every per-layer metric.
     */
    std::map<std::string, double> metrics;
};

/** Build, run, verify-fold and tear down @p s on engine @p e. */
RepResult runRep(const Scenario &s, Engine e, const RepOptions &o);

} // namespace bench
} // namespace diablo

#endif // DIABLO_BENCHMARK_SCENARIOS_HH_
