#ifndef DIABLO_APPS_MC_EXPERIMENT_HH_
#define DIABLO_APPS_MC_EXPERIMENT_HH_

/**
 * @file
 * The paper's memcached experiment harness (Figure 7).
 *
 * Builds a cluster, distributes memcached server instances evenly across
 * all racks "to minimize potential hot spots in the network", uses every
 * remaining node as a closed-loop client sending requests to randomly
 * selected servers, runs to completion, and aggregates client latency
 * distributions (overall and per hop class).
 */

#include <functional>
#include <memory>
#include <vector>

#include "apps/memcached.hh"
#include "sim/cluster.hh"

namespace diablo {
namespace sim {
class TelemetryProbe;
} // namespace sim
namespace apps {

/** Full experiment description. */
struct McExperimentParams {
    sim::ClusterParams cluster = sim::ClusterParams::gige1us();
    uint32_t num_servers = 128;
    /**
     * Client count: 0 (the default) installs a client on every
     * non-server node — the paper's harness.  A non-zero value caps
     * the active clients, spread round-robin across racks just like
     * the servers; remaining nodes stay idle (and, on a lazy cluster,
     * unmaterialized — this is what lets a 32,000-node array run in
     * paper-scale memory with a representative traffic subset).
     */
    uint32_t num_clients = 0;
    /**
     * Record client latencies into fixed-memory quantile sketches
     * instead of raw SampleSets (LatencyStat::enableSketch on every
     * client stat and on the aggregated result).  Percentiles then
     * carry the sketch's ~1.6% relative error; raw() and cdf() become
     * unavailable on the results.
     */
    bool sketch_stats = false;
    McServerParams server;
    McClientParams client;

    /**
     * The memcached keys diablo_run reads: sim::ClusterParams::
     * fromConfig's cluster; mc.servers (default 2 per rack), mc.clients,
     * stats.sketch, mc.udp (default true), mc.version, mc.workers,
     * mc.requests (default 200) and mc.think_us.  The defaults are
     * diablo_run's, which can differ from the structs' own
     * (McClientParams::requests is 300).
     */
    static McExperimentParams fromConfig(const Config &cfg);
};

/** Aggregated measurements across all clients. */
struct McExperimentResult {
    LatencyStat latency_us;
    LatencyStat latency_us_by_hop[3];
    LatencyStat first_request_us;
    uint64_t udp_timeouts = 0;
    uint64_t udp_retries = 0;
    uint64_t requests_completed = 0;
    /** Simulated time of the last client's finish; an aborted run
     *  reports the time its loop reached instead. */
    SimTime elapsed;
    uint32_t clients = 0;
    uint32_t servers = 0;
};

/** Owns the cluster and all app state for one memcached run. */
class McExperiment {
  public:
    McExperiment(Simulator &sim, const McExperimentParams &params);

    /**
     * Sharded build: the cluster is partitioned rack/switch-wise over
     * @p ps (which must have sim::Cluster::partitionsRequired(
     * params.cluster) partitions and outlive the experiment).  run()
     * then drives the PartitionSet sequentially or, with run(true), on
     * the parallel engine; both produce bit-identical statistics.
     */
    McExperiment(fame::PartitionSet &ps, const McExperimentParams &params);

    ~McExperiment();

    /**
     * Install apps and run the simulation from time zero until every
     * client is done, through the shared run loop (sim::Cluster::drive)
     * in 100 ms windows of simulated time on every engine.  @p parallel
     * selects runParallel over runSequential for a sharded experiment;
     * it must be false single-sim.
     */
    void run(bool parallel = false);

    /** The same loop advanced by @p step. */
    void run(const sim::Cluster::Step &step);

    const McExperimentResult &result() const { return result_; }
    sim::Cluster &cluster() { return *cluster_; }
    const std::vector<net::NodeId> &serverNodes() const
    {
        return server_nodes_;
    }

    /**
     * Live fold of per-client progress, for in-run telemetry probes:
     * requests completed so far plus the p99-so-far over every
     * client's latency stat.  Only read between engine windows, where
     * no worker is running.
     */
    struct LiveStats {
        uint64_t requests_completed = 0;
        double p99_us = 0.0;
    };
    LiveStats liveStats() const;

    /**
     * Attach an in-run telemetry probe (must outlive run()): every
     * engine stops at each sample instant inside the unchanged outer
     * windows, so the simulated results are bit-identical with the
     * probe attached or not.
     */
    void attachTelemetry(sim::TelemetryProbe *probe) { probe_ = probe; }

    /**
     * Run-loop hook for unattended operation, called before every
     * window on every engine (first after the apps are installed),
     * where no engine worker is running.  Return true to abort the run
     * early — run() then folds whatever the clients measured so far
     * into result() and returns, with aborted() set.  diablo_run uses
     * this to honor SIGINT/SIGTERM (finalizing a partial artifact) and
     * to pump its watchdog's progress counter; the hook must only read
     * model state, so an un-tripped pulse never changes simulated
     * results.
     */
    void setPulse(std::function<bool()> pulse)
    {
        pulse_ = std::move(pulse);
    }

    /** True when a pulse hook stopped the run before every client
     *  finished; result() then holds the partial fold. */
    bool aborted() const { return aborted_; }

  private:
    /** Pick the experiment's server nodes (shared ctor tail). */
    void placeServers();

    sim::TelemetryProbe *probe_ = nullptr; ///< optional, not owned
    std::function<bool()> pulse_;      ///< optional abort/progress hook
    bool aborted_ = false;
    McExperimentParams params_;
    std::unique_ptr<sim::Cluster> cluster_;
    std::vector<net::NodeId> server_nodes_;
    std::vector<std::shared_ptr<McClientStats>> client_stats_;
    McExperimentResult result_;
};

} // namespace apps
} // namespace diablo

#endif // DIABLO_APPS_MC_EXPERIMENT_HH_
