#include "net/link.hh"

#include <algorithm>

#include "core/log.hh"

namespace diablo {
namespace net {

Link::Link(Simulator &sim, std::string name, Bandwidth bw, SimTime prop)
    : sim_(sim), name_(std::move(name)), bw_(bw), prop_(prop)
{
    if (bw.isZero()) {
        fatal("Link %s: zero bandwidth", name_.c_str());
    }
}

SimTime
Link::transmit(PacketPtr p)
{
    if (busy()) {
        panic("Link %s: transmit while busy", name_.c_str());
    }
    if (sink_ == nullptr) {
        panic("Link %s: no sink attached", name_.c_str());
    }

    if (!up_) {
        // Degradation is the contract: a downed link accounts the drop
        // and frees the transmitter at once, so upstream egress queues
        // drain (into further counted drops) rather than wedge.
        down_drops_.inc();
        return sim_.now();
    }

    const SimTime tx_done = sim_.now() + bw_.transferTime(p->wireBytes());
    const SimTime arrive_first = sim_.now() + prop_;
    const SimTime arrive_last = tx_done + prop_;

    free_at_ = tx_done;

    p->first_bit = arrive_first;
    p->last_bit = arrive_last;

    // Full-delivery sinks get the packet at last-bit arrival; cut-through
    // sinks once the forwarding header (64 B) has arrived.
    SimTime deliver_at = arrive_last;
    if (sink_->wantsEarlyDelivery()) {
        SimTime header_time = bw_.transferTime(
            eth::kCutThroughHeaderBytes + eth::kPreambleBytes);
        deliver_at = std::min(arrive_first + header_time, arrive_last);
    }

    // Brownout: the frame occupies the transmitter either way, but may
    // be lost on the wire, and survivors arrive late.  Only delaying or
    // dropping keeps ChannelLink's min-latency contract intact.
    bool lost = false;
    if (degraded_) {
        deliver_at += degrade_extra_;
        if (degrade_rng_.bernoulli(degrade_loss_)) {
            degrade_drops_.inc();
            lost = true;
        }
    }
    if (!lost) {
        scheduleDelivery(deliver_at, std::move(p));
    }
    return tx_done;
}

void
Link::setUp(bool up)
{
    up_ = up;
}

void
Link::setDegraded(double loss_prob, SimTime extra_latency, uint64_t seed)
{
    if (loss_prob < 0.0 || loss_prob > 1.0) {
        fatal("Link %s: degrade loss probability %f out of [0,1]",
              name_.c_str(), loss_prob);
    }
    if (extra_latency < SimTime()) {
        fatal("Link %s: negative degrade latency", name_.c_str());
    }
    degraded_ = true;
    degrade_loss_ = loss_prob;
    degrade_extra_ = extra_latency;
    degrade_rng_ = Rng(seed).fork(name_).fork("link-degrade");
}

void
Link::clearDegraded()
{
    degraded_ = false;
    degrade_loss_ = 0.0;
    degrade_extra_ = SimTime();
}

void
Link::scheduleStandalone(SimTime when, PacketPtr p)
{
    // The event owns the packet: a run can stop at its horizon with
    // deliveries still queued, and those must be reclaimed with the
    // queue, not leaked.
    sim_.scheduleAt(when, [this, p = std::move(p)]() mutable {
        deliverToSink(std::move(p));
    });
}

void
Link::scheduleDelivery(SimTime when, PacketPtr p)
{
    if (!coalesce_) {
        scheduleStandalone(when, std::move(p));
        return;
    }
    if (!pending_.empty() && when < pending_.back().when) {
        // clearDegraded() under in-flight deliveries is the only way
        // arrivals go non-monotone; keep the train sorted by sending
        // the early packet through its own event.
        scheduleStandalone(when, std::move(p));
        return;
    }
    pending_.push_back(PendingDelivery{when, std::move(p)});
    if (walker_armed_) {
        // Rode the outstanding walker: no queue slot, no packet-owning
        // closure, no per-delivery schedule.
        coalesced_.inc();
        return;
    }
    walker_armed_ = true;
    trains_.inc();
    sim_.scheduleAt(when, [this] { walkDeliveries(); });
}

void
Link::walkDeliveries()
{
    // Deliver everything due.  Entry times strictly increase, so this
    // is normally exactly one packet — the win is structural: at most
    // one delivery event is outstanding per link (instead of one per
    // in-flight packet), its closure is a trivially-destructible
    // [this], and packets wait in the link's own ring rather than
    // moving through event-queue slots.  Per-packet delivery times are
    // preserved exactly: the walker re-arms at the next head's `when`.
    const SimTime now = sim_.now();
    while (!pending_.empty() && pending_.front().when <= now) {
        PacketPtr p = std::move(pending_.front().pkt);
        pending_.pop_front();
        // A sink may reenter scheduleDelivery (cascaded forwarding);
        // the entry is popped first so the train stays consistent.
        deliverToSink(std::move(p));
    }
    if (!pending_.empty()) {
        sim_.scheduleAt(pending_.front().when, [this] {
            walkDeliveries();
        });
    } else {
        walker_armed_ = false;
    }
}

} // namespace net
} // namespace diablo
