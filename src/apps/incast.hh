#ifndef DIABLO_APPS_INCAST_HH_
#define DIABLO_APPS_INCAST_HH_

/**
 * @file
 * TCP Incast benchmark (paper §4.1).
 *
 * The many-to-one pattern of scale-out storage: one client requests a
 * fixed-size block from each of N servers over TCP; all servers respond
 * at once through the client's ToR port, overrunning shallow switch
 * buffers, and application goodput collapses once TCP retransmission
 * timeouts (200 ms min RTO) begin to dominate.  Matches the R2D2-style
 * test program the paper used [3][60].
 *
 * Two client service styles are modeled, because Figure 6(b) shows they
 * change the result:
 *  - pthread: one blocking client thread per server connection;
 *  - epoll:   one thread multiplexing all connections through epoll.
 */

#include <functional>
#include <memory>
#include <vector>

#include "core/stats.hh"
#include "sim/cluster.hh"

namespace diablo {
namespace sim {
class TelemetryProbe;
} // namespace sim
namespace apps {

/** Incast run parameters. */
struct IncastParams {
    uint64_t block_bytes = 256 * 1024; ///< per-server block per iteration
    uint32_t iterations = 40;
    /** Untimed initial iterations (connection/ssthresh warm-up). */
    uint32_t warmup_iterations = 2;
    bool use_epoll = false;
    uint16_t port = 5001;
    uint32_t request_bytes = 64;
};

/** Measured outcome. */
struct IncastResult {
    bool done = false;
    uint64_t total_bytes = 0;
    SimTime elapsed;                 ///< measured transfer phase only
    SampleSet iteration_us;          ///< per-iteration completion times

    /** Application-level goodput over the measured phase, Mbps. */
    double goodputMbps() const
    {
        if (elapsed.isZero()) {
            return 0.0;
        }
        return static_cast<double>(total_bytes) * 8.0 /
               elapsed.asSeconds() / 1e6;
    }
};

/**
 * Installs the incast servers and client onto cluster nodes.  The
 * result object must outlive the simulation run.
 */
class IncastApp {
  public:
    IncastApp(sim::Cluster &cluster, const IncastParams &params,
              net::NodeId client, std::vector<net::NodeId> servers);

    /** Spawn all processes; run the simulator afterwards. */
    void install();

    const IncastResult &result() const { return *result_; }

  private:
    sim::Cluster &cluster_;
    IncastParams params_;
    net::NodeId client_;
    std::vector<net::NodeId> servers_;
    std::shared_ptr<IncastResult> result_;
};

/** One incast run: the array, the fan-in and the transfer. */
struct IncastExperimentParams {
    sim::ClusterParams cluster = sim::ClusterParams::gige1us();
    IncastParams incast;
    /** Fan-in width: the servers are nodes 1..num_servers, the client
     *  node 0. */
    uint32_t num_servers = 8;

    /**
     * The incast keys diablo_run reads: incast.servers (default 8)
     * spread over incast.racks (default 1) racks of one array of
     * sim::ClusterParams::fromConfig's cluster; incast.block_bytes
     * (default 256 KB), incast.iterations (default 20) and
     * incast.epoll (default false) shape the transfer.  The defaults
     * are diablo_run's, which can differ from the structs' own
     * (IncastParams::iterations is 40).
     */
    static IncastExperimentParams fromConfig(const Config &cfg);
};

/**
 * Owns the cluster and the installed IncastApp for one run: the
 * incast counterpart of McExperiment.
 */
class IncastExperiment {
  public:
    IncastExperiment(Simulator &sim, const IncastExperimentParams &params);

    /** Sharded build over @p ps, which must have sim::Cluster::
     *  partitionsRequired(params.cluster) partitions and outlive the
     *  experiment. */
    IncastExperiment(fame::PartitionSet &ps,
                     const IncastExperimentParams &params);

    /**
     * Run until the client finishes, through sim::Cluster::drive in
     * 250 ms windows of simulated time, capped at 600 s in case a fault
     * plan leaves the transfer unable to finish (a collapsed fan-in of
     * 24 servers needs ~105 s for 40 iterations).  @p parallel selects
     * runParallel over runSequential on a sharded build.
     */
    void run(bool parallel = false);

    /** The same loop advanced by @p step (a --processes leader's group
     *  window). */
    void run(const sim::Cluster::Step &step);

    const IncastResult &result() const { return app_.result(); }
    sim::Cluster &cluster() { return *cluster_; }

    /** As McExperiment::attachTelemetry. */
    void attachTelemetry(sim::TelemetryProbe *probe) { probe_ = probe; }

    /** As McExperiment::setPulse. */
    void setPulse(std::function<bool()> pulse)
    {
        pulse_ = std::move(pulse);
    }

    /** After run(): true when the client did not finish, because the
     *  pulse stopped the run, the step abandoned it, or it hit the cap
     *  or went idle. */
    bool aborted() const { return !app_.result().done; }

  private:
    sim::TelemetryProbe *probe_ = nullptr; ///< optional, not owned
    std::function<bool()> pulse_;          ///< optional stop hook
    std::unique_ptr<sim::Cluster> cluster_;
    IncastApp app_;
};

} // namespace apps
} // namespace diablo

#endif // DIABLO_APPS_INCAST_HH_
