#include "switchm/packet_switch.hh"

#include <algorithm>

#include "core/log.hh"

namespace diablo {
namespace switchm {

PacketSwitch::PacketSwitch(Simulator &sim, const SwitchParams &params,
                           SwitchModelKind kind)
    : sim_(sim), params_(params), voq_(kind == SwitchModelKind::Voq),
      cut_through_(voq_ && params.cut_through), buffer_(params),
      ingress_(params.num_ports), outputs_(params.num_ports)
{
    for (uint32_t i = 0; i < params.num_ports; ++i) {
        ingress_[i].sw = this;
        ingress_[i].port = i;
        outputs_[i].queues.resize(voq_ ? params.num_ports : 1);
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
    link.setTxDoneCallback([this, i] { kickOutput(i); });
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
        stats_.dropped_bytes += buf_bytes;
        return; // packet destroyed: tail drop
    }
    stats_.max_buffer_used =
        std::max(stats_.max_buffer_used, buffer_.used());

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
    o.queues[voq_ ? in_port : 0].push_back(std::move(q));
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
    const uint32_t n = static_cast<uint32_t>(o.queues.size());

    // Round-robin across queues with an eligible head-of-queue packet.
    SimTime min_eligible = SimTime::max();
    for (uint32_t k = 0; k < n; ++k) {
        const uint32_t in = (o.rr + k) % n;
        auto &q = o.queues[in];
        if (q.empty()) {
            continue;
        }
        if (q.front().eligible <= now) {
            Queued item = std::move(q.front());
            q.pop_front();
            --o.queued_pkts;
            o.rr = (in + 1) % n;

            ++stats_.forwarded_pkts;
            stats_.forwarded_bytes += item.pkt->l3Bytes();

            const uint32_t buf_bytes = item.buf_bytes;
            const uint32_t buf_port = item.buf_port;
            const SimTime tx_done = o.link->transmit(std::move(item.pkt));
            // Buffer space frees when the frame has fully left.
            sim_.scheduleAt(tx_done, [this, buf_port, buf_bytes] {
                buffer_.release(buf_port, buf_bytes);
            });
            // The link tx-done callback re-kicks this output.
            return;
        }
        min_eligible = std::min(min_eligible, q.front().eligible);
    }

    // Nothing eligible yet: wake up when the earliest head becomes so.
    if (min_eligible != SimTime::max()) {
        sim_.cancel(o.pending_kick);
        o.pending_kick = sim_.scheduleAt(min_eligible, [this, out_port] {
            kickOutput(out_port);
        });
    }
}

} // namespace switchm
} // namespace diablo
