#ifndef DIABLO_SWITCHM_PACKET_SWITCH_HH_
#define DIABLO_SWITCHM_PACKET_SWITCH_HH_

/**
 * @file
 * The paper's connectionless packet switch (§3.3), used for every level
 * of the WSC network hierarchy with per-level latency, bandwidth and
 * buffer parameters.  Following the paper's functional/timing split,
 * the *functional* job is fixed — read the next hop from the packet's
 * source route and move the packet to that output — while the timing
 * (latency, bandwidth, buffering, scheduling) comes from SwitchParams
 * and the queueing discipline.
 *
 * Every output port round-robins over its queues.  The discipline
 * decides what a queue is and which port pays for the packet memory:
 *
 * - SwitchModelKind::Voq, the paper's unified abstract switch: one
 *   virtual queue per (output, input), so no head-of-line blocking.
 *   Packet memory is an *input-side* resource: a packet is charged
 *   against the buffer partition of the port it arrived on, so one
 *   congested sender cannot consume another input's buffering.
 *   Cut-through is supported: the packet is handed to the switch at
 *   header arrival and may begin egress transmission immediately,
 *   constrained so its egress transmission never finishes before its
 *   ingress bits have arrived.
 * - SwitchModelKind::OutputQueue, the "ns2-like" drop-tail baseline of
 *   Figure 6(a): one FIFO per output shared by all inputs (round robin
 *   over one queue is arrival order), the packet charged to its output
 *   port, and always store-and-forward whatever cut_through says.
 *
 * Host cost follows traffic, not ports²: an output's queue table is
 * allocated on its first enqueue (an output that never queues is one
 * null pointer), round robin walks a bitmap of non-empty queues, and a
 * forwarded frame costs one completion event at its tx-done.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/ring_buffer.hh"
#include "core/simulator.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "switchm/buffer_manager.hh"
#include "switchm/switch_params.hh"

namespace diablo {
namespace switchm {

/** Packet switch with N bidirectional ports and round-robin egress. */
class PacketSwitch {
  public:
    PacketSwitch(Simulator &sim, const SwitchParams &params,
                 SwitchModelKind kind = SwitchModelKind::Voq);

    /** Links and scheduled events hold this switch's address. */
    PacketSwitch(const PacketSwitch &) = delete;
    PacketSwitch &operator=(const PacketSwitch &) = delete;

    /** Ingress sink of port @p i; connect the upstream Link here. */
    net::PacketSink &inPort(uint32_t i);

    /**
     * Attach the egress link of port @p i.  The switch drains its queues
     * from the serialization-complete time transmit() returns, so it
     * leaves the link's tx-done callback unset.
     */
    void attachOutLink(uint32_t i, net::Link &link);

    const SwitchParams &params() const { return params_; }
    const SwitchStats &stats() const { return stats_; }

    /** Packets dropped at a specific output port. */
    uint64_t dropsAt(uint32_t port) const;

    /** Current buffer occupancy (bytes) across the switch. */
    uint64_t bufferUsed() const { return buffer_.used(); }

    /**
     * Hook invoked when a packet heads for an output port that has no
     * link attached; the hook may attach one (via attachOutLink) before
     * the packet proceeds — the lazy-materialization path, where a
     * ToR's server-facing port conjures the server's NIC/link on first
     * delivery.  If the port is still unattached after the hook, the
     * switch panics (a genuinely miswired route).
     */
    using UnattachedPortHook = std::function<void(uint32_t port)>;

    void
    setUnattachedPortHook(UnattachedPortHook hook)
    {
        unattached_hook_ = std::move(hook);
    }

  private:
    struct Ingress : net::PacketSink {
        PacketSwitch *sw = nullptr;
        uint32_t port = 0;

        void
        receive(net::PacketPtr p) override
        {
            sw->handleIngress(port, std::move(p));
        }

        bool
        wantsEarlyDelivery() const override
        {
            return sw->cut_through_;
        }
    };

    struct Queued {
        net::PacketPtr pkt;
        SimTime eligible;     ///< earliest egress transmit start
        uint32_t buf_bytes;   ///< buffer accounting charge
        uint32_t buf_port;    ///< port whose budget holds the bytes
    };

    /**
     * An output's queues: one per input (VOQ) or a single FIFO
     * (OutputQueue), plus a bitmap of the non-empty ones.  Grow-only
     * rings, so a busy queue cycling at steady state never touches the
     * allocator.
     */
    struct QueueTable {
        explicit QueueTable(uint32_t n) : rings(n), nonempty((n + 63) / 64)
        {}

        void push(uint32_t i, Queued q);
        Queued pop(uint32_t i);

        /** Lowest non-empty ring in [from, to), or @p to if none. */
        uint32_t firstNonEmpty(uint32_t from, uint32_t to) const;

        std::vector<RingBuffer<Queued>> rings;
        std::vector<uint64_t> nonempty;
    };

    struct Output {
        net::Link *link = nullptr;
        /** Allocated on the first enqueue, kept for the switch's life. */
        std::unique_ptr<QueueTable> table;
        /** One past the ring last served; round robin starts here. */
        uint32_t rr = 0;
        uint32_t queued_pkts = 0;
        EventId pending_kick;
        uint64_t drops = 0;
    };

    void handleIngress(uint32_t in_port, net::PacketPtr p);
    void kickOutput(uint32_t out_port);

    Simulator &sim_;
    SwitchParams params_;
    const bool voq_;
    /** Early (header-time) delivery: VOQ with cut_through only. */
    const bool cut_through_;
    BufferManager buffer_;
    std::vector<Ingress> ingress_;
    std::vector<Output> outputs_;
    SwitchStats stats_;
    UnattachedPortHook unattached_hook_;
};

} // namespace switchm
} // namespace diablo

#endif // DIABLO_SWITCHM_PACKET_SWITCH_HH_
