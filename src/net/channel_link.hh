#ifndef DIABLO_NET_CHANNEL_LINK_HH_
#define DIABLO_NET_CHANNEL_LINK_HH_

/**
 * @file
 * A Link whose receive side lives in a different simulation partition.
 *
 * DIABLO carries rack-to-switch traffic between FPGAs over time-shared
 * multi-gigabit serial transceivers, synchronized at fine granularity
 * (§3.2).  ChannelLink is that boundary in software: the transmit side
 * (serialization occupancy and the completion time transmit() returns)
 * runs in the source partition exactly like a plain Link, but the delivery
 * event is posted through a caller-supplied remote-post hook — in
 * practice a fame::PartitionSet::Channel — so the packet surfaces in
 * the destination partition's event queue at the correct simulated
 * time.
 *
 * The hook is deliberately a plain callable rather than a
 * PartitionSet::Channel pointer: net/ stays independent of the fame
 * engine, and tests can substitute an in-process recorder.
 *
 * Lookahead: a ChannelLink can never deliver earlier than
 * minDeliveryLatency(bw, prop) after transmit() — the propagation delay
 * plus the serialization time of the cut-through forwarding header
 * (which lower-bounds full-frame serialization too, since every frame
 * is at least the 64-byte Ethernet minimum).  Wiring code advertises
 * exactly this bound as the channel's min_latency, making it the
 * conservative-parallel engine's synchronization quantum.
 */

#include <functional>

#include "core/event.hh"
#include "net/link.hh"

namespace diablo {
namespace net {

struct PacketRecord;

/** Cross-partition link: local transmitter, remote delivery. */
class ChannelLink : public Link {
  public:
    /** Posts @p fn into the destination partition at time @p when. */
    using RemotePost = std::function<void(SimTime when, EventFn fn)>;

    /** Posts a flattened packet toward a foreign process's partition. */
    using RecordPost =
        std::function<void(SimTime when, const PacketRecord &rec)>;

    /**
     * @param src_sim  partition owning the transmitter
     * @param name     for tracing and channel diagnostics
     * @param bw       line rate
     * @param prop     propagation (cable) delay
     * @param post     remote-post hook (a PartitionSet::Channel's post)
     */
    ChannelLink(Simulator &src_sim, std::string name, Bandwidth bw,
                SimTime prop, RemotePost post);

    /**
     * Conservative lower bound on transmit-to-delivery latency of any
     * packet on a link with line rate @p bw and propagation @p prop:
     * the safe cross-partition lookahead for a channel carrying this
     * link's deliveries.
     */
    static SimTime minDeliveryLatency(Bandwidth bw, SimTime prop);

    /**
     * Arm the cross-process path.  While @p remote (owned by the fame
     * channel, stable for the link's lifetime) reads true, deliveries
     * are flattened to PacketRecords and handed to @p post instead of
     * being posted as closures; while it reads false the in-process
     * closure path runs unchanged.  Uncoupled runs never call this, so
     * their hot path keeps a single null check.
     */
    void enableRecordPath(const bool *remote, RecordPost post);

    /**
     * Receiving-process entry point: deliver a packet materialized
     * from a wire record to this link's sink, exactly as the closure
     * path would have.  Called by the cluster wiring's channel decoder
     * in the process owning the destination partition.
     */
    void receiveRecord(PacketPtr p) { deliverToSink(std::move(p)); }

  protected:
    void scheduleDelivery(SimTime when, PacketPtr p) override;

  private:
    RemotePost post_;
    const bool *record_remote_ = nullptr;
    RecordPost record_post_;
};

} // namespace net
} // namespace diablo

#endif // DIABLO_NET_CHANNEL_LINK_HH_
