#include "switchm/packet_switch.hh"

#include <algorithm>
#include <bit>

#include "core/log.hh"

namespace diablo {
namespace switchm {

void
PacketSwitch::QueueTable::push(uint32_t i, Queued q)
{
    rings[i].push_back(std::move(q));
    nonempty[i / 64] |= uint64_t{1} << (i % 64);
}

PacketSwitch::Queued
PacketSwitch::QueueTable::pop(uint32_t i)
{
    Queued q = std::move(rings[i].front());
    rings[i].pop_front();
    if (rings[i].empty()) {
        nonempty[i / 64] &= ~(uint64_t{1} << (i % 64));
    }
    return q;
}

uint32_t
PacketSwitch::QueueTable::firstNonEmpty(uint32_t from, uint32_t to) const
{
    if (from >= to) {
        return to;
    }
    uint32_t w = from / 64;
    uint64_t bits = nonempty[w] & (~uint64_t{0} << (from % 64));
    while (bits == 0) {
        if (++w * 64 >= to) {
            return to;
        }
        bits = nonempty[w];
    }
    return std::min(w * 64 + static_cast<uint32_t>(std::countr_zero(bits)),
                    to);
}

PacketSwitch::PacketSwitch(Simulator &sim, const SwitchParams &params,
                           SwitchModelKind kind)
    : sim_(sim), params_(params), voq_(kind == SwitchModelKind::Voq),
      cut_through_(voq_ && params.cut_through), buffer_(params),
      ingress_(params.num_ports), outputs_(params.num_ports)
{
    for (uint32_t i = 0; i < params.num_ports; ++i) {
        ingress_[i].sw = this;
        ingress_[i].port = i;
    }
}

net::PacketSink &
PacketSwitch::inPort(uint32_t i)
{
    if (i >= ingress_.size()) {
        panic("%s: inPort %u out of range", params_.name.c_str(), i);
    }
    return ingress_[i];
}

void
PacketSwitch::attachOutLink(uint32_t i, net::Link &link)
{
    if (i >= outputs_.size()) {
        panic("%s: attachOutLink %u out of range", params_.name.c_str(), i);
    }
    outputs_[i].link = &link;
}

uint64_t
PacketSwitch::dropsAt(uint32_t port) const
{
    return outputs_[port].drops;
}

void
PacketSwitch::handleIngress(uint32_t in_port, net::PacketPtr p)
{
    if (p->route.exhausted()) {
        panic("%s: packet %s arrived with exhausted route",
              params_.name.c_str(), p->str().c_str());
    }
    const uint32_t out = p->route.hop(p->id);
    p->route.advance(p->id);
    ++p->hop_count;
    if (out >= outputs_.size()) {
        panic("%s: route names invalid output port %u",
              params_.name.c_str(), out);
    }
    Output &o = outputs_[out];
    if (o.link == nullptr) {
        // Happens before any buffer/queue state is touched, so the
        // hook may attach the link (lazy server materialization) and
        // forwarding proceeds as if it had always been there.
        if (unattached_hook_) {
            unattached_hook_(out);
        }
        if (o.link == nullptr) {
            panic("%s: output port %u has no link", params_.name.c_str(),
                  out);
        }
    }

    // VOQs are input-side: charge the arrival port's partition; an
    // output FIFO charges its own port.
    const uint32_t buf_port = voq_ ? in_port : out;
    const uint32_t buf_bytes = eth::frameBufferBytes(p->l3Bytes());
    if (!buffer_.tryAdmit(buf_port, buf_bytes)) {
        ++o.drops;
        ++stats_.dropped_pkts;
        return; // packet destroyed: tail drop
    }

    // Earliest egress start: forwarding latency after delivery, and (for
    // cut-through) never so early that egress transmission would finish
    // before the packet's ingress bits have arrived.  A store-and-forward
    // frame is delivered at its last bit, so the clamp never fires.
    SimTime eligible = sim_.now() + params_.port_latency;
    const SimTime egress_ser = o.link->bandwidth().transferTime(
        p->wireBytes());
    if (p->last_bit > eligible + egress_ser) {
        eligible = p->last_bit - egress_ser;
    }

    Queued q;
    q.eligible = eligible;
    q.buf_bytes = buf_bytes;
    q.buf_port = buf_port;
    q.pkt = std::move(p);
    if (!o.table) {
        o.table = std::make_unique<QueueTable>(voq_ ? params_.num_ports : 1);
    }
    o.table->push(voq_ ? in_port : 0, std::move(q));
    ++o.queued_pkts;
    kickOutput(out);
}

void
PacketSwitch::kickOutput(uint32_t out_port)
{
    Output &o = outputs_[out_port];
    if (o.queued_pkts == 0 || o.link->busy()) {
        return;
    }
    const SimTime now = sim_.now();
    QueueTable &t = *o.table;
    const uint32_t n = static_cast<uint32_t>(t.rings.size());

    // Round robin across queues with an eligible head-of-queue packet,
    // visiting the non-empty ones in (rr + k) % n order: [rr, n), then
    // [0, rr).
    SimTime min_eligible = SimTime::max();
    uint32_t pick = n;
    auto scan = [&](uint32_t from, uint32_t to) {
        for (uint32_t i = t.firstNonEmpty(from, to); i < to;
             i = t.firstNonEmpty(i + 1, to)) {
            const SimTime eligible = t.rings[i].front().eligible;
            if (eligible <= now) {
                pick = i;
                return true;
            }
            min_eligible = std::min(min_eligible, eligible);
        }
        return false;
    };
    if (!scan(o.rr, n) && !scan(0, o.rr)) {
        // Nothing eligible yet: wake up when the earliest head becomes
        // so.
        if (min_eligible != SimTime::max()) {
            sim_.cancel(o.pending_kick);
            o.pending_kick = sim_.scheduleAt(min_eligible,
                                             [this, out_port] {
                                                 kickOutput(out_port);
                                             });
        }
        return;
    }

    Queued item = t.pop(pick);
    --o.queued_pkts;
    o.rr = pick + 1;
    ++stats_.forwarded_pkts;

    const uint32_t buf_bytes = item.buf_bytes;
    const uint32_t buf_port = item.buf_port;
    const SimTime tx_done = o.link->transmit(std::move(item.pkt));
    // One completion event per frame: when the line frees, serve this
    // output again, then free the frame's buffer space (it has fully
    // left).  On a downed link tx_done is now and the queue drains into
    // the link's counted drops.
    sim_.scheduleAt(tx_done, [this, out_port, buf_port, buf_bytes] {
        kickOutput(out_port);
        buffer_.release(buf_port, buf_bytes);
    });
}

} // namespace switchm
} // namespace diablo
