#ifndef DIABLO_TOPO_CLOS_HH_
#define DIABLO_TOPO_CLOS_HH_

/**
 * @file
 * Three-level Clos WSC network builder (paper Figures 1 and 7).
 *
 * Racks of servers hang off Top-of-Rack switches; each ToR has one
 * uplink to its array switch (31-to-1 over-subscription in the paper's
 * memcached topology); each array switch has one uplink to the
 * datacenter switch (16-to-1).  Source routes are computed statically
 * from the topology, matching the paper's simplified source routing.
 *
 * Degenerate configurations are first-class: a single rack builds just
 * a ToR (the paper's 16-node validation cluster), a single array builds
 * two levels without a datacenter switch (the 500-node setup).
 *
 * Fault-aware ECMP: with uplink_planes > 1 the array level is
 * replicated into parallel planes — each ToR gets one uplink per plane
 * and each array position becomes uplink_planes independent switches —
 * and route() hashes each (src, dst) flow onto a plane, skipping planes
 * whose trunks or switches are administratively down.  Liveness is
 * tracked in per-rack-partition FabricView replicas that are only ever
 * written by events scheduled into every partition at the same
 * simulated instant, so sequential and sharded-parallel runs make
 * identical routing decisions (faults are events, never wall-clock).
 * When no plane is live the flow keeps its hash-preferred plane and the
 * downed link accounts the drops — the fabric degrades, never panics.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/simulator.hh"
#include "net/link.hh"
#include "switchm/packet_switch.hh"

namespace diablo {
namespace topo {

/** Topology shape and per-level switch parameters. */
struct ClosParams {
    uint32_t servers_per_rack = 31;
    uint32_t racks_per_array = 16;
    uint32_t num_arrays = 4;

    /**
     * Parallel array-switch planes (ECMP width).  1 reproduces the
     * paper's single-uplink topology; >1 gives every ToR one uplink per
     * plane so flows can reroute around a dead trunk or array switch.
     * Ignored for single-rack topologies (no array level).
     */
    uint32_t uplink_planes = 1;

    /** Queueing discipline of every switch in the fabric. */
    switchm::SwitchModelKind switch_model = switchm::SwitchModelKind::Voq;

    /** Per-level switch parameters (num_ports fields are overwritten). */
    switchm::SwitchParams rack_sw;
    switchm::SwitchParams array_sw;
    switchm::SwitchParams dc_sw;

    /** Server-to-ToR cable propagation delay. */
    SimTime host_link_prop = SimTime::ns(200);
    /** Switch-to-switch cable propagation delay. */
    SimTime trunk_link_prop = SimTime::ns(500);

    /** Host NIC line rate (usually equals rack_sw.port_bw). */
    Bandwidth host_bw = Bandwidth::gbps(1);

    uint32_t totalServers() const
    {
        return servers_per_rack * racks_per_array * num_arrays;
    }

    /** Read the @p prefix keys over @p defaults. */
    static ClosParams fromConfig(const Config &cfg,
                                 const std::string &prefix,
                                 const ClosParams &defaults);
    static ClosParams
    fromConfig(const Config &cfg, const std::string &prefix)
    {
        return fromConfig(cfg, prefix, ClosParams());
    }
};

/** Hop classification used by the paper's Figure 10. */
enum class HopClass {
    Local,  ///< same rack: one ToR
    OneHop, ///< same array: ToR - array - ToR
    TwoHop, ///< cross array: ToR - array - DC - array - ToR
};

const char *hopClassName(HopClass h);

/**
 * Hooks for building a ClosNetwork across simulation partitions — the
 * paper's Rack-FPGA/Switch-FPGA mapping.  Each rack's ToR switch and
 * server-facing links live in that rack's partition; the array and
 * datacenter switch levels live in a dedicated switch partition; the
 * ToR<->array trunks are the only links whose endpoints straddle a
 * partition boundary, so only they are created through
 * make_cross_link (typically returning a net::ChannelLink).
 */
struct ClosPartitionHooks {
    /** Simulator owning global rack @p rack's ToR and server links. */
    std::function<Simulator &(uint32_t rack)> rack_sim;

    /** Simulator owning the array and datacenter switch levels. */
    Simulator *switch_sim = nullptr;

    /**
     * Create the trunk between rack @p rack's ToR and its array switch.
     * @p up is true for the ToR->array direction (transmitter in the
     * rack partition), false for array->ToR (transmitter in the switch
     * partition).  The returned link's delivery must cross into the
     * opposite partition.
     */
    std::function<std::unique_ptr<net::Link>(
        uint32_t rack, bool up, const std::string &name, Bandwidth bw,
        SimTime prop)>
        make_cross_link;
};

/**
 * The built network: switches and trunk links, plus per-server
 * attachment points and route computation.
 */
class ClosNetwork {
  public:
    /** Single-partition build: every model element on @p sim. */
    ClosNetwork(Simulator &sim, const ClosParams &params);

    /**
     * Partitioned build: model elements are placed per @p hooks, with
     * ToR<->array trunks emitted through hooks.make_cross_link instead
     * of as direct intra-partition net::Links.  All hooks fields are
     * required.  @p hooks' callables are retained for the network's
     * lifetime (attachServerSink places links lazily).
     */
    ClosNetwork(const ClosPartitionHooks &hooks, const ClosParams &params);

    const ClosParams &params() const { return params_; }
    uint32_t totalServers() const { return params_.totalServers(); }

    /** Ingress sink a server's NIC TX link must connect to. */
    net::PacketSink &serverIngress(net::NodeId node);

    /**
     * Attach the server-facing egress: packets for @p node will be
     * delivered to @p nic_sink over a dedicated ToR-to-server link.
     */
    void attachServerSink(net::NodeId node, net::PacketSink &nic_sink);

    /**
     * Install @p hook to be called — from the owning rack's partition,
     * inside the delivering event — when a packet reaches a ToR's
     * server-facing port whose sink was never attached.  The hook is
     * expected to materialize the server and call attachServerSink();
     * forwarding then proceeds normally.  This is how idle lazy nodes
     * come to life on first delivered packet.
     */
    void setServerAttachHook(std::function<void(net::NodeId)> hook);

    /** Static source route from @p src to @p dst. */
    net::SourceRoute route(net::NodeId src, net::NodeId dst) const;

    HopClass hopClass(net::NodeId src, net::NodeId dst) const;

    // --- layout helpers ---
    uint32_t rackOf(net::NodeId node) const;   ///< global rack index
    uint32_t arrayOf(net::NodeId node) const;
    uint32_t indexInRack(net::NodeId node) const;
    uint32_t numRacks() const
    {
        return params_.racks_per_array * params_.num_arrays;
    }
    uint32_t planes() const { return params_.uplink_planes; }
    bool hasArrayLevel() const { return !array_switches_.empty(); }

    // --- fault surface ---
    // Every mutation is *scheduled* through the owning simulators'
    // event queues, never applied synchronously: routing-view updates
    // are replicated into every rack partition at the same instant and
    // physical link state changes run in the partition that owns each
    // link, so sequential and sharded-parallel runs order them
    // identically.  Call before the run starts (or from an event) with
    // @p at >= the current time of every partition.

    /** Cut (or restore) both directions of rack @p rack's plane-@p
     *  plane trunk at time @p at; flows rehash off (or back onto) the
     *  plane at the same instant fabric-wide. */
    void scheduleTrunkState(SimTime at, uint32_t rack, uint32_t plane,
                            bool up);

    /** Brownout both trunk directions: seeded Bernoulli loss plus extra
     *  latency.  Routing still uses the plane (a browned-out trunk is
     *  degraded, not dead); TCP absorbs the loss. */
    void scheduleTrunkDegrade(SimTime at, uint32_t rack, uint32_t plane,
                              double loss_prob, SimTime extra_latency,
                              uint64_t seed);

    /** End a brownout started by scheduleTrunkDegrade. */
    void scheduleTrunkRepair(SimTime at, uint32_t rack, uint32_t plane);

    /** Crash (or restart) array switch (@p array, @p plane): all its
     *  attached trunks drop, its queues drain into counted drops, and
     *  flows reroute to surviving planes. */
    void scheduleArraySwitchState(SimTime at, uint32_t array,
                                  uint32_t plane, bool up);

    /** ToR->array trunk for (rack, plane); fatal without array level. */
    net::Link &trunkUpLink(uint32_t rack, uint32_t plane);
    /** array->ToR trunk for (rack, plane). */
    net::Link &trunkDownLink(uint32_t rack, uint32_t plane);
    /** ToR->server link, null until attachServerSink(node) ran. */
    net::Link *serverLink(net::NodeId node);

    /** Plane the ECMP hash assigns (src, dst) with all planes live. */
    uint32_t preferredPlane(net::NodeId src, net::NodeId dst) const;

    /** Packets steered off their hash-preferred plane by a fault. */
    uint64_t rerouteCount() const;

    /** Frames dropped fabric-wide because a link was down. */
    uint64_t totalLinkDownDrops() const;
    /** Frames lost fabric-wide to link brownouts. */
    uint64_t totalLinkDegradeDrops() const;
    /** Deliveries that rode an already-armed train event (fabric links). */
    uint64_t totalDeliveriesCoalesced() const;
    /** Train walker events armed across all fabric links. */
    uint64_t totalDeliveryTrains() const;

    // --- introspection / stats ---
    size_t numRackSwitches() const { return rack_switches_.size(); }
    size_t numArraySwitches() const { return array_switches_.size(); }
    bool hasDcSwitch() const { return dc_switch_ != nullptr; }

    switchm::PacketSwitch &rackSwitch(uint32_t i) { return *rack_switches_[i]; }
    switchm::PacketSwitch &arraySwitch(uint32_t i)
    {
        return *array_switches_[i];
    }

    /** Sum of dropped packets across every switch in the fabric. */
    uint64_t totalSwitchDrops() const;
    uint64_t totalForwarded() const;

  private:
    /**
     * Per-rack-partition replica of fabric liveness.  Each rack's
     * route() calls read only its own replica; replicas are written
     * only by events scheduleViewUpdate() places into every rack
     * partition at the same instant — no cross-partition sharing, no
     * races, identical decisions in sequential and parallel runs.
     */
    struct FabricView {
        std::vector<uint8_t> trunk_up; ///< [rack * planes + plane]
        std::vector<uint8_t> array_up; ///< [array * planes + plane]
        mutable uint64_t reroutes = 0; ///< counted by route()
    };

    std::unique_ptr<switchm::PacketSwitch> makeSwitch(
        Simulator &sim, const switchm::SwitchParams &base, uint32_t ports,
        const std::string &name);
    std::unique_ptr<net::Link> makeTrunk(uint32_t rack, bool up,
                                         const std::string &name,
                                         Bandwidth bw);
    void build();
    void checkNode(net::NodeId node) const;
    void checkTrunk(uint32_t rack, uint32_t plane) const;

    /** Sum @p stat over every switch of the fabric. */
    template <typename Fn> uint64_t sumSwitches(Fn stat) const;
    /** Sum @p stat over every link of the fabric. */
    template <typename Fn> uint64_t sumLinks(Fn stat) const;

    /** Apply @p fn to every rack's view replica at time @p at. */
    void scheduleViewUpdate(SimTime at,
                            const std::function<void(FabricView &)> &fn);

    size_t trunkIdx(uint32_t rack, uint32_t plane) const
    {
        return static_cast<size_t>(rack) * params_.uplink_planes + plane;
    }

    ClosPartitionHooks hooks_;
    ClosParams params_;
    std::function<void(net::NodeId)> server_attach_hook_;

    std::vector<std::unique_ptr<switchm::PacketSwitch>> rack_switches_;
    /** Array switches, indexed [array * planes + plane]. */
    std::vector<std::unique_ptr<switchm::PacketSwitch>> array_switches_;
    std::unique_ptr<switchm::PacketSwitch> dc_switch_;
    std::vector<std::unique_ptr<net::Link>> tor_up_links_;   ///< [rack*P+p]
    std::vector<std::unique_ptr<net::Link>> arr_down_links_; ///< [rack*P+p]
    std::vector<std::unique_ptr<net::Link>> arr_up_links_;   ///< [a*P+p]
    std::vector<std::unique_ptr<net::Link>> dc_down_links_;  ///< [a*P+p]
    std::vector<std::unique_ptr<net::Link>> server_links_;
    std::vector<FabricView> views_; ///< one per rack partition
};

} // namespace topo
} // namespace diablo

#endif // DIABLO_TOPO_CLOS_HH_
