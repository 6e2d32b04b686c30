#ifndef DIABLO_NET_LINK_HH_
#define DIABLO_NET_LINK_HH_

/**
 * @file
 * Point-to-point unidirectional link model.
 *
 * A Link is the target-side physical channel between a NIC and a switch
 * port or between two switch ports (the host-side analog in DIABLO is the
 * time-shared multi-gigabit serial transceiver; that is modeled in
 * src/fame).  The link charges serialization time at its configured
 * bandwidth plus a fixed propagation delay, and delivers the packet to the
 * attached sink at last-bit arrival.
 *
 * The link does NOT queue: callers (NIC TX engines, switch egress ports)
 * own their queues so that buffer management policies are modeled where
 * they live in the real hardware.  transmit() returns the
 * serialization-complete time, and that is the link's only completion
 * contract: each transmitter checks busy() and schedules its own drain
 * event there (the packet switch folds its buffer release into it, the
 * NIC its TX-completion refill).
 *
 * Fault model: a link can be administratively *down* (transmits are
 * dropped and counted, never a panic — degradation is the contract) or
 * *degraded* (a brownout: seeded Bernoulli frame loss plus extra
 * delivery latency).  Both states only affect packets transmitted while
 * the state holds; deliveries already in flight are untouched, so state
 * changes are safe at any simulated instant, including across
 * partition boundaries (a downed ChannelLink simply posts nothing).
 */

#include <string>

#include "core/random.hh"
#include "core/ring_buffer.hh"
#include "core/simulator.hh"
#include "core/stats.hh"
#include "core/units.hh"
#include "net/packet.hh"

namespace diablo {
namespace net {

/** Unidirectional serializing channel with propagation delay. */
class Link {
  public:
    /**
     * @param sim        owning simulation partition
     * @param name       for tracing
     * @param bw         line rate
     * @param prop       propagation (cable) delay
     */
    Link(Simulator &sim, std::string name, Bandwidth bw, SimTime prop);

    virtual ~Link() = default;

    /** Attach the receiving endpoint; must be called before transmit. */
    void connectTo(PacketSink &sink) { sink_ = &sink; }

    bool busy() const { return sim_.now() < free_at_; }

    /**
     * Begin transmitting @p p now.  Panics if the transmitter is busy or
     * no sink is attached.  Returns the serialization-complete time, when
     * the transmitter is free again; the caller schedules its own drain
     * there.  Sets the packet's first_bit/last_bit times (arrival side),
     * which cut-through switch models use.
     */
    SimTime transmit(PacketPtr p);

    Bandwidth bandwidth() const { return bw_; }
    const std::string &name() const { return name_; }

    // ---- fault surface -------------------------------------------------

    bool isUp() const { return up_; }

    /**
     * Administratively raise or lower the link.  A transmit on a downed
     * link is accounted in downDrops() and completes immediately: it
     * returns the current instant, so a transmitter draining from that
     * time empties its queue into counted drops instead of wedging on a
     * line that never frees.  Deliveries already in flight still
     * arrive — only the cable is cut, not causality.
     */
    void setUp(bool up);

    /**
     * Enter brownout: every frame transmitted while degraded is lost
     * with probability @p loss_prob (drawn from a private stream forked
     * from @p seed, so two links given the same seed still diverge by
     * name), and surviving frames see @p extra_latency added on top of
     * propagation.  Extra latency only ever pushes deliveries later, so
     * a degraded ChannelLink can never violate its channel's
     * min-latency contract.
     */
    void setDegraded(double loss_prob, SimTime extra_latency, uint64_t seed);

    /** Leave brownout; subsequent frames are clean again. */
    void clearDegraded();

    bool degraded() const { return degraded_; }

    /** Frames dropped because the link was down at transmit time. */
    uint64_t downDrops() const { return down_drops_.value(); }

    /** Frames lost to brownout while degraded. */
    uint64_t degradeDrops() const { return degrade_drops_.value(); }

    // ---- delivery coalescing -------------------------------------------

    /**
     * Enable/disable delivery-train coalescing (default: enabled).
     * Per-packet delivery *times* are identical either way — only how
     * deliveries map onto engine events changes — so disabling exists
     * for the equivalence test and for isolating the mechanism in
     * benchmarks.
     */
    void setDeliveryCoalescing(bool on) { coalesce_ = on; }

    /**
     * Deliveries that rode an already-armed train instead of paying
     * for their own queue slot + packet-owning closure (back-to-back
     * egress bursts — the incast/TCP-window common case).
     */
    uint64_t deliveriesCoalesced() const { return coalesced_.value(); }

    /** Walker arms: trains started (1 event outstanding per train). */
    uint64_t deliveryTrains() const { return trains_.value(); }

  protected:
    /**
     * Schedule the handoff of @p p to the attached sink at absolute
     * time @p when.  The default implementation stays inside the
     * transmitter's own simulation partition; ChannelLink overrides it
     * to carry the delivery across a partition boundary.  Transmit-side
     * bookkeeping (serialization occupancy) never crosses.
     */
    virtual void scheduleDelivery(SimTime when, PacketPtr p);

    /** Hand @p p to the sink; runs in the delivering partition. */
    void deliverToSink(PacketPtr p) { sink_->receive(std::move(p)); }

  private:
    /**
     * One entry of the pending delivery train.  Entries are strictly
     * monotone in `when` (each frame serializes after the previous one,
     * so arrival times strictly increase); a non-monotone push — only
     * possible when clearDegraded() removes the brownout's extra
     * latency under deliveries still in flight — bypasses the train
     * with a legacy standalone event instead of reordering it.
     */
    struct PendingDelivery {
        SimTime when;
        PacketPtr pkt;
    };

    /** Deliver every due train entry, then re-arm at the next head. */
    void walkDeliveries();

    /** Pre-coalescing path: one packet-owning event per delivery. */
    void scheduleStandalone(SimTime when, PacketPtr p);

    Simulator &sim_;
    std::string name_;
    Bandwidth bw_;
    SimTime prop_;
    PacketSink *sink_ = nullptr;
    SimTime free_at_;

    bool up_ = true;
    bool degraded_ = false;
    double degrade_loss_ = 0.0;
    SimTime degrade_extra_;
    // Placeholder state only: setDegraded() reseeds (fork by link name)
    // before any draw is taken.
    Rng degrade_rng_{0x11A8D1AB70ULL};
    Counter down_drops_;
    Counter degrade_drops_;

    bool coalesce_ = true;
    bool walker_armed_ = false;
    RingBuffer<PendingDelivery> pending_;
    Counter coalesced_;
    Counter trains_;
};

} // namespace net
} // namespace diablo

#endif // DIABLO_NET_LINK_HH_
