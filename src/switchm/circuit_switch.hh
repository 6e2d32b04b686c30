#ifndef DIABLO_SWITCHM_CIRCUIT_SWITCH_HH_
#define DIABLO_SWITCHM_CIRCUIT_SWITCH_HH_

/**
 * @file
 * Connection-oriented virtual-circuit switch model.
 *
 * The paper (§3.3) models two broad categories of WSC array switch:
 * connectionless packet switches and connection-oriented virtual-circuit
 * switches proposed for predictable-latency supercomputer-style fabrics
 * (e.g. Thacker's data center network [59], with a fully detailed
 * 128-port model in [56]).  This model captures the architectural
 * essentials: circuits are set up per (input, output) pair with a
 * guaranteed bandwidth share, traffic on a circuit never queues behind
 * other circuits, and packets without a circuit are rejected.
 */

#include <deque>
#include <optional>
#include <vector>

#include "core/simulator.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "switchm/switch_params.hh"

namespace diablo {
namespace switchm {

/** Identifier for an established virtual circuit. */
struct CircuitId {
    uint32_t index = UINT32_MAX;

    bool valid() const { return index != UINT32_MAX; }
};

/** Virtual-circuit switch with per-circuit bandwidth reservation. */
class CircuitSwitch {
  public:
    CircuitSwitch(Simulator &sim, const SwitchParams &params);

    net::PacketSink &inPort(uint32_t i);
    void attachOutLink(uint32_t i, net::Link &link);

    const SwitchParams &params() const { return params_; }
    const SwitchStats &stats() const { return stats_; }
    uint64_t dropsAt(uint32_t port) const;

    /**
     * Establish a circuit from @p in_port to @p out_port reserving
     * @p share of the output's line rate.  Fails (returns invalid id)
     * when the output's reservations would exceed its capacity.
     * The circuit becomes usable after the configured setup delay.
     */
    CircuitId setupCircuit(uint32_t in_port, uint32_t out_port,
                           double share);

    /** Tear down a circuit, releasing its reservation. */
    void teardownCircuit(CircuitId id);

    /** Reserved fraction of an output port's bandwidth. */
    double reservedShare(uint32_t out_port) const;

    /** Circuit setup latency (control-plane round trip). */
    void setSetupDelay(SimTime d) { setup_delay_ = d; }

    uint64_t rejectedNoCircuit() const { return no_circuit_drops_; }

  private:
    struct Ingress : net::PacketSink {
        CircuitSwitch *sw = nullptr;
        uint32_t port = 0;

        void
        receive(net::PacketPtr p) override
        {
            sw->handleIngress(port, std::move(p));
        }
    };

    struct Circuit {
        uint32_t in_port = 0;
        uint32_t out_port = 0;
        double share = 0;
        SimTime usable_at;
        bool active = false;
        /** Per-circuit FIFO, drained at the reserved rate. */
        std::deque<net::PacketPtr> fifo;
        bool draining = false;
    };

    void handleIngress(uint32_t in_port, net::PacketPtr p);
    void drainCircuit(uint32_t index);
    std::optional<uint32_t> findCircuit(uint32_t in_port,
                                        uint32_t out_port) const;

    Simulator &sim_;
    SwitchParams params_;
    std::vector<Ingress> ingress_;
    std::vector<net::Link *> out_links_;
    /** deque: Circuit holds a PacketPtr FIFO and must never relocate. */
    std::deque<Circuit> circuits_;
    std::vector<double> reserved_;  ///< per output port
    std::vector<uint64_t> drops_;
    SimTime setup_delay_ = SimTime::us(10);
    uint64_t no_circuit_drops_ = 0;
    SwitchStats stats_;
};

} // namespace switchm
} // namespace diablo

#endif // DIABLO_SWITCHM_CIRCUIT_SWITCH_HH_
