#ifndef DIABLO_SIM_CLUSTER_HH_
#define DIABLO_SIM_CLUSTER_HH_

/**
 * @file
 * The top-level public API: a fully wired simulated WSC array.
 *
 * A Cluster owns the Clos fabric plus, for every server, a kernel
 * (CPU/OS/TCP/UDP model) and a NIC, all parameterized at runtime like
 * DIABLO's FAME models.  Applications (src/apps) are installed on server
 * kernels and run as coroutines; statistics flow out through the models'
 * accessors.
 *
 * Typical use:
 * @code
 *   Simulator sim;
 *   sim::ClusterParams params = sim::ClusterParams::gige1us();
 *   params.topo.num_arrays = 1;
 *   sim::Cluster cluster(sim, params);
 *   cluster.kernel(0).spawnProcess(myServerApp(cluster.kernel(0)));
 *   sim.run();
 * @endcode
 *
 * Sharded use — the paper's Rack-FPGA/Switch-FPGA partitioning (§3.2):
 * each rack (servers, NICs, uplinks, ToR) maps to its own partition of
 * a fame::PartitionSet, the array/datacenter switch levels to one
 * additional switch partition, and the ToR<->array trunks become
 * net::ChannelLinks over PartitionSet channels whose lookahead is the
 * trunk propagation + header serialization time:
 * @code
 *   fame::PartitionSet ps(sim::Cluster::partitionsRequired(params));
 *   sim::Cluster cluster(ps, params);
 *   cluster.kernel(0).spawnProcess(myServerApp(cluster.kernel(0)));
 *   ps.runParallel(SimTime::sec(1));   // or runSequential: identical
 * @endcode
 */

#include <functional>
#include <memory>
#include <vector>

#include "core/arena.hh"
#include "core/config.hh"
#include "core/random.hh"
#include "core/simulator.hh"
#include "fame/partition.hh"
#include "nic/nic_model.hh"
#include "os/kernel.hh"
#include "topo/clos.hh"

namespace diablo {
namespace net {
class ChannelLink;
} // namespace net
namespace sim {

class TelemetryProbe;

/** Everything needed to instantiate a cluster. */
struct ClusterParams {
    topo::ClosParams topo;
    os::CpuParams cpu;
    os::KernelProfile kernel_profile = os::KernelProfile::linux2639();
    os::TcpParams tcp;
    nic::NicParams nic;
    uint64_t seed = 20150314;

    /**
     * Materialize a server's kernel/NIC/uplink lazily — on first app
     * attach (any kernel()/nic()/uplink() access) or on the first
     * packet delivered to its ToR port — instead of eagerly for every
     * node.  An idle warehouse node then costs one table entry instead
     * of a full TCP stack, which is what lets the paper's 32,000-node
     * array fit on one host.  Simulated results are identical either
     * way: materialization constructs state but schedules no events
     * and draws no randomness.  `sim.lazy_servers=false` restores the
     * eager build (the memory-diet ablation baseline).
     */
    bool lazy_servers = true;

    /**
     * The paper's 1 Gbps configuration: 1 us port-to-port switch
     * latency, shallow 4 KB per-port buffers (Nortel 5500-like).
     */
    static ClusterParams gige1us();

    /**
     * The paper's upgraded interconnect: 10 Gbps, 100 ns port-to-port
     * latency, same shallow buffer configuration.
     */
    static ClusterParams tengig100ns();

    /** Apply dotted-key overrides (cpu., kernel., tcp., nic., topo.). */
    void applyConfig(const Config &cfg);
};

/** A wired WSC array: fabric + servers. */
class Cluster {
  public:
    /** Single-partition build: the whole array on one Simulator. */
    Cluster(Simulator &sim, const ClusterParams &params);

    /**
     * Sharded build over a conservative-parallel PartitionSet: rack r's
     * servers/NICs/ToR on partition r, the array and datacenter switch
     * levels on partition numRacks() (when those levels exist), with
     * cross-partition channels created for every ToR<->array trunk.
     * @p ps must have exactly partitionsRequired(params) partitions and
     * must outlive the Cluster.  Run with ps.runParallel() or
     * ps.runSequential(); both produce bit-identical statistics.
     *
     * The constructor also installs fusion weight hints
     * (PartitionSet::setPartitionWeight): rack partitions ∝ servers
     * per rack, the switch partition ∝ trunk fan-in, so
     * runParallel's partition->worker placement stays balanced when
     * racks outnumber host cores.  Tune afterwards if the workload is
     * known to be skewed; placement never changes simulated results.
     */
    Cluster(fame::PartitionSet &ps, const ClusterParams &params);

    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /**
     * Partitions a sharded build of @p params needs: one per rack plus
     * one for the aggregation switch levels (omitted for a single-rack
     * topology, which has no levels above its ToR).
     */
    static size_t partitionsRequired(const ClusterParams &params);

    /**
     * The engine's partitions in PartitionSet order: one per partition
     * of a sharded build, the one Simulator of a single build.
     */
    const std::vector<Simulator *> &partitions() const { return parts_; }

    /** Non-null iff this cluster is sharded over a PartitionSet. */
    fame::PartitionSet *partitionSet() { return ps_; }
    bool sharded() const { return ps_ != nullptr; }

    /**
     * Arm the multiprocess (coupled) engine on a sharded cluster: tag
     * every partition's packet pool with its dense index, switch each
     * ToR<->array trunk to the PacketRecord wire path for destinations
     * owned by peer processes, install the matching record decoder,
     * and hand @p opts to PartitionSet::enableCoupled.  Every process
     * of the group builds the identical cluster, calls this with its
     * own rank/transport set (complementary owner maps), then drives
     * its PartitionSet with runCoupled().  Call once, before the first
     * run, on a sharded cluster only (fatal otherwise).
     */
    void enableProcessCoupling(const fame::PartitionSet::CoupledOptions &opts);

    /**
     * Advance the engine to a window end; false when a coupled run was
     * abandoned (see PartitionSet::runCoupled).
     */
    using Step = std::function<bool(SimTime)>;

    /**
     * This cluster's own engine as a Step: runUntil on the single
     * Simulator; runSequential, or runParallel when @p parallel, on a
     * sharded build.
     */
    Step engineStep(bool parallel);

    /** Which check ended drive(), and the window end it reached. */
    struct DriveEnd {
        enum Reason { Done, Stopped, Abandoned, Capped, Idle };
        Reason reason = Done;
        SimTime reached;
    };

    /**
     * The run-to-completion loop every workload and engine shares:
     * advance with @p step in windows ending at @p window, 2 x @p
     * window, ... of simulated time until @p done holds.  Before every
     * window @p pulse (when set) may stop the run, and a window that
     * would start at or past @p cap is not run.  A set @p probe takes
     * its samples inside each window (TelemetryProbe::driveTo) without
     * changing the window sequence.  After a window, a false step
     * abandons the run, and an uncoupled engine with nothing pending
     * while the workload is not done is idle: no later window could
     * finish it.  The pulse and done run between windows, where no
     * engine worker is running, so they may read any model state.
     */
    DriveEnd drive(SimTime window, SimTime cap, const Step &step,
                   const std::function<bool()> &done,
                   const std::function<bool()> &pulse,
                   TelemetryProbe *probe);

    uint32_t size() const { return network_->totalServers(); }
    uint32_t numRacks() const
    {
        return params_.topo.racks_per_array * params_.topo.num_arrays;
    }
    const ClusterParams &params() const { return params_; }

    /**
     * Per-server model accessors.  On a lazy cluster these materialize
     * the node on first touch (the "first app attach" trigger); the
     * other trigger — first delivered packet — fires from inside the
     * ToR's forwarding path via the unattached-port hook.
     */
    os::Kernel &kernel(net::NodeId node);
    nic::NicModel &nic(net::NodeId node);
    /** The server's NIC->ToR link (lives in the server's rack partition). */
    net::Link &uplink(net::NodeId node);
    topo::ClosNetwork &network() { return *network_; }

    /** Servers whose kernel/NIC/uplink exist (== size() when eager). */
    size_t materializedServers() const;

    /** One arena's ledger (arenas are per rack partition when sharded). */
    struct ArenaStats {
        uint64_t nodes = 0;          ///< materialized servers
        uint64_t bytes_used = 0;     ///< bump-allocated object bytes
        uint64_t bytes_reserved = 0; ///< slab bytes owned
    };

    /** Per-arena node-state ledgers, for the --mem-report tooling. */
    std::vector<ArenaStats> arenaStats() const;

    /** Master random stream; fork per component/app. */
    Rng &rng() { return rng_; }

    // --- aggregate statistics across all servers ---
    uint64_t totalTcpRetransmits() const;
    uint64_t totalTcpRtos() const;
    uint64_t totalTcpAborts() const;
    uint64_t totalTcpRecovered() const;
    uint64_t totalCrashRxDiscards() const;
    uint64_t totalUdpSocketDrops() const;
    uint64_t totalNicRxDrops() const;
    /** Descriptor-ring-full drops across every NIC tx ring. */
    uint64_t totalNicTxRingDrops() const;

    /** Snapshot of one partition's packet pool counters. */
    struct PoolStats {
        uint64_t makes = 0;       ///< packets handed out by the pool
        uint64_t recycles = 0;    ///< makes served from the freelist
        uint64_t heap_allocs = 0; ///< makes that hit operator new
        uint64_t returns = 0;     ///< packets pushed back (any thread)
        uint64_t high_water = 0;  ///< max packets simultaneously live
    };

    /**
     * Per-partition pool counters, one entry per engine partition (a
     * single entry for a non-sharded cluster).  Partitions whose pool
     * was never touched report all-zero.  makes/returns are
     * event-driven and bit-identical seq vs par; heap_allocs,
     * recycles and high_water depend on recycle timing and are only
     * deterministic within one engine mode.
     */
    std::vector<PoolStats> poolStats() const;

    /** Link deliveries that rode an armed train (fabric + uplinks). */
    uint64_t totalDeliveriesCoalesced() const;
    /** Train walker events armed (fabric + uplinks). */
    uint64_t totalDeliveryTrains() const;

  private:
    /**
     * A materialized server's kernel + NIC + uplink, placed contiguously
     * in its rack partition's slab arena (definition in cluster.cc).
     */
    struct ServerState;

    /** Shared ctor tail: node table, arenas, hook, eager fill. */
    void buildServers();

    /** Materialize-if-needed; the only path that creates ServerState. */
    ServerState &ensureServer(net::NodeId node);
    ServerState *materialize(net::NodeId node);

    Simulator &simForRack(uint32_t rack);

    /** Sum @p stat over every materialized server. */
    template <typename Fn> uint64_t sumServers(Fn stat) const;

    fame::PartitionSet *ps_ = nullptr; ///< non-null iff sharded
    std::vector<Simulator *> parts_;   ///< see partitions()
    ClusterParams params_;
    std::unique_ptr<topo::ClosNetwork> network_;

    /**
     * Node table: one pointer per server, null until materialized.
     * Sized at build; slots are only ever written by the owning rack
     * partition (or the main thread outside a run), so parallel-run
     * materializations never touch the same slot from two threads.
     */
    std::vector<ServerState *> nodes_;

    /**
     * Every cross-partition trunk of a sharded build: the fame channel
     * and the ChannelLink riding it, recorded at wiring time so
     * enableProcessCoupling can retrofit the record path without
     * re-deriving the topology.
     */
    struct Trunk {
        fame::PartitionSet::Channel *ch;
        net::ChannelLink *link;
    };
    std::vector<Trunk> trunks_;

    /** One arena per rack partition (a single one when not sharded). */
    std::vector<SlabArena> arenas_;
    /** Per-arena materialization order, for reverse-order teardown. */
    std::vector<std::vector<net::NodeId>> arena_nodes_;

    Rng rng_;
};

} // namespace sim
} // namespace diablo

#endif // DIABLO_SIM_CLUSTER_HH_
