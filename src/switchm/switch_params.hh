#ifndef DIABLO_SWITCHM_SWITCH_PARAMS_HH_
#define DIABLO_SWITCHM_SWITCH_PARAMS_HH_

/**
 * @file
 * Runtime-configurable switch model parameters, and the statistics
 * every switch model keeps.
 *
 * Mirrors DIABLO's design where "switch models in different layers of the
 * network hierarchy differ only in their link latency, bandwidth, and
 * buffer configuration parameters" (§3.3), and where buffer layout is
 * deliberately configurable because it is "an active area for
 * packet-switch researchers".
 */

#include <cstdint>
#include <string>

#include "core/config.hh"
#include "core/time.hh"
#include "core/units.hh"

namespace diablo {
namespace switchm {

/** Queueing discipline of a packet switch. */
enum class SwitchModelKind {
    /** The paper's abstract VOQ model: per-(output, input) queues. */
    Voq,
    /** ns2-like drop-tail baseline: one FIFO per output. */
    OutputQueue,
};

/** How packet-buffer space is organized. */
enum class BufferPolicy {
    /** Fixed private budget per port (e.g. Nortel 5500, 4 KB). */
    Partitioned,
    /** One shared pool, first-come first-served (e.g. Asante IC35516). */
    Shared,
    /**
     * Shared pool with Broadcom-style dynamic per-queue threshold:
     * a queue may use at most alpha * (free pool) bytes [42].
     */
    SharedDynamic,
};

const char *bufferPolicyName(BufferPolicy p);
BufferPolicy bufferPolicyFromString(const std::string &s);

/** Aggregate statistics every switch model maintains. */
struct SwitchStats {
    uint64_t forwarded_pkts = 0;
    uint64_t dropped_pkts = 0;
};

/** Complete parameter set for one switch instance. */
struct SwitchParams {
    std::string name = "switch";
    uint32_t num_ports = 16;

    /** Egress line rate of every port. */
    Bandwidth port_bw = Bandwidth::gbps(1);

    /** Port-to-port forwarding latency (1 us GigE ... 100 ns 10 GigE). */
    SimTime port_latency = SimTime::us(1);

    /** Cut-through (forward at header) vs store-and-forward. */
    bool cut_through = true;

    BufferPolicy buffer_policy = BufferPolicy::Partitioned;

    /** Per-port budget for Partitioned policy. */
    uint64_t buffer_per_port_bytes = 4096;

    /** Pool size for Shared/SharedDynamic policies. */
    uint64_t buffer_total_bytes = 512 * 1024;

    /** Dynamic threshold factor for SharedDynamic. */
    double dynamic_alpha = 0.5;

    /**
     * Read parameters from a Config under @p prefix (e.g.
     * "switch.rack."), falling back to the current values for any key
     * not present.
     */
    static SwitchParams fromConfig(const Config &cfg,
                                   const std::string &prefix,
                                   const SwitchParams &defaults);

    static SwitchParams
    fromConfig(const Config &cfg, const std::string &prefix)
    {
        return fromConfig(cfg, prefix, SwitchParams());
    }
};

} // namespace switchm
} // namespace diablo

#endif // DIABLO_SWITCHM_SWITCH_PARAMS_HH_
