#ifndef DIABLO_SIM_FAULT_HH_
#define DIABLO_SIM_FAULT_HH_

/**
 * @file
 * Deterministic cluster-scale fault injection.
 *
 * A FaultPlan is a timeline of infrastructure faults — trunk cuts and
 * brownouts, array-switch crashes, server power failures — described
 * purely in simulated time.  A FaultController installs the plan into a
 * Cluster by scheduling every transition through the ordinary event
 * engines of the partitions that own the affected state, so a faulted
 * run is just another deterministic event schedule: sequential and
 * sharded-parallel executions of the same plan produce bit-identical
 * results, and re-running the same seed replays the same outage.
 *
 * Faults are events, never wall-clock: nothing in this subsystem reads
 * host time or mutates model state outside a scheduled event.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/time.hh"
#include "net/packet.hh"

namespace diablo {
namespace sim {

class Cluster;

/** What breaks (or heals). */
enum class FaultKind {
    TrunkDown,     ///< cut both directions of a (rack, plane) trunk
    TrunkUp,       ///< restore a cut trunk
    TrunkBrownout, ///< lossy/slow trunk: Bernoulli loss + extra latency
    TrunkRepair,   ///< end a brownout
    SwitchCrash,   ///< array switch (array, plane) dies with its trunks
    SwitchRestart, ///< restore a crashed array switch
    ServerCrash,   ///< power-fail a server (silent: sends nothing)
    ServerReboot,  ///< restore a crashed server with fresh state
};

const char *faultKindName(FaultKind k);

/** One timeline entry; which fields matter depends on kind. */
struct FaultEvent {
    SimTime at;
    FaultKind kind = FaultKind::TrunkDown;
    uint32_t rack = 0;      ///< trunk faults
    uint32_t plane = 0;     ///< trunk and switch faults
    uint32_t array = 0;     ///< switch faults
    net::NodeId node = 0;   ///< server faults
    double loss_prob = 0.0; ///< brownout loss probability
    SimTime extra_latency;  ///< brownout added one-way latency
};

/**
 * A deterministic, seed-stamped fault timeline.
 *
 * Build programmatically with the fluent adders, from a Config
 * (fault.0.kind=trunk_down fault.0.at_us=... ...), or from a plan file
 * of key=value lines.  The seed feeds brownout loss processes; two runs
 * of the same plan draw identical loss sequences.
 */
class FaultPlan {
  public:
    FaultPlan() = default;
    explicit FaultPlan(uint64_t seed) : seed_(seed) {}

    uint64_t seed() const { return seed_; }
    void setSeed(uint64_t s) { seed_ = s; }

    FaultPlan &trunkDown(SimTime at, uint32_t rack, uint32_t plane);
    FaultPlan &trunkUp(SimTime at, uint32_t rack, uint32_t plane);
    FaultPlan &trunkBrownout(SimTime at, uint32_t rack, uint32_t plane,
                             double loss_prob, SimTime extra_latency);
    FaultPlan &trunkRepair(SimTime at, uint32_t rack, uint32_t plane);
    FaultPlan &switchCrash(SimTime at, uint32_t array, uint32_t plane);
    FaultPlan &switchRestart(SimTime at, uint32_t array, uint32_t plane);
    FaultPlan &serverCrash(SimTime at, net::NodeId node);
    FaultPlan &serverReboot(SimTime at, net::NodeId node);

    const std::vector<FaultEvent> &events() const { return events_; }
    bool empty() const { return events_.empty(); }
    size_t size() const { return events_.size(); }

    /**
     * Timeline union: append @p other's events after this plan's
     * (each event keeps its own simulated time; the scheduler orders
     * them).  With @p take_seed, @p other's seed replaces this plan's
     * — used when command-line fault.* keys override a --fault-plan
     * file's timeline.
     */
    FaultPlan &merge(const FaultPlan &other, bool take_seed = false);

    /**
     * Parse the fault.* keys of @p cfg: an optional fault.seed and
     * fault.<i>.* events numbered from 0 with no gap.  Keys per event:
     * kind (trunk_down/trunk_up/trunk_brownout/trunk_repair/
     * switch_crash/switch_restart/server_crash/server_reboot), at_us,
     * and the kind's operands: rack and plane for trunk faults (plus
     * loss and extra_us for a brownout), array and plane for switch
     * faults, node for server faults.  Fatal, naming the key, on an
     * unknown kind, a gap in the numbering, or any other fault.* key.
     */
    static FaultPlan fromConfig(const Config &cfg);

    /**
     * Load a plan file (Config::fromFile's key=value format) holding
     * only fault.* keys, read as fromConfig reads them.  Fatal if the
     * file cannot be read, a line is malformed, a key repeats, or a key
     * lies outside fault.*.
     */
    static FaultPlan fromFile(const std::string &path);

    /** Human-readable timeline (one event per line). */
    std::string str() const;

  private:
    std::vector<FaultEvent> events_;
    uint64_t seed_ = 20150314;
};

/**
 * Installs a FaultPlan into a Cluster.
 *
 * install() validates every event against the cluster's topology and
 * schedules the state transitions; call it once, before the run starts.
 * Trunk and switch faults go through ClosNetwork's fault surface (which
 * replicates routing-view updates into every rack partition at the same
 * instant); server faults schedule Kernel::crash()/reboot() plus the
 * server's access links in the server's own rack partition.
 */
class FaultController {
  public:
    FaultController(Cluster &cluster, FaultPlan plan);

    /** Schedule every event in the plan; fatal on out-of-range refs. */
    void install();

    const FaultPlan &plan() const { return plan_; }
    bool installed() const { return installed_; }

  private:
    void installEvent(const FaultEvent &e, size_t idx);

    Cluster &cluster_;
    FaultPlan plan_;
    bool installed_ = false;
};

} // namespace sim
} // namespace diablo

#endif // DIABLO_SIM_FAULT_HH_
