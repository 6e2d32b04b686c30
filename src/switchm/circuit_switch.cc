#include "switchm/circuit_switch.hh"

#include <algorithm>

#include "core/log.hh"

namespace diablo {
namespace switchm {

CircuitSwitch::CircuitSwitch(Simulator &sim, const SwitchParams &params)
    : sim_(sim), params_(params), ingress_(params.num_ports),
      out_links_(params.num_ports, nullptr),
      reserved_(params.num_ports, 0.0), drops_(params.num_ports, 0)
{
    for (uint32_t i = 0; i < params.num_ports; ++i) {
        ingress_[i].sw = this;
        ingress_[i].port = i;
    }
}

net::PacketSink &
CircuitSwitch::inPort(uint32_t i)
{
    if (i >= ingress_.size()) {
        panic("%s: inPort %u out of range", params_.name.c_str(), i);
    }
    return ingress_[i];
}

void
CircuitSwitch::attachOutLink(uint32_t i, net::Link &link)
{
    if (i >= out_links_.size()) {
        panic("%s: attachOutLink %u out of range", params_.name.c_str(), i);
    }
    out_links_[i] = &link;
    link.setTxDoneCallback([this, i] {
        for (uint32_t c = 0; c < circuits_.size(); ++c) {
            if (circuits_[c].active && circuits_[c].out_port == i) {
                drainCircuit(c);
            }
        }
    });
}

uint64_t
CircuitSwitch::dropsAt(uint32_t port) const
{
    return drops_[port];
}

CircuitId
CircuitSwitch::setupCircuit(uint32_t in_port, uint32_t out_port,
                            double share)
{
    if (in_port >= params_.num_ports || out_port >= params_.num_ports) {
        fatal("%s: setupCircuit with invalid port", params_.name.c_str());
    }
    if (share <= 0 || share > 1.0) {
        fatal("%s: circuit share %.3f out of (0,1]", params_.name.c_str(),
              share);
    }
    if (reserved_[out_port] + share > 1.0 + 1e-9) {
        return CircuitId{}; // admission control: no capacity left
    }
    reserved_[out_port] += share;

    Circuit c;
    c.in_port = in_port;
    c.out_port = out_port;
    c.share = share;
    c.usable_at = sim_.now() + setup_delay_;
    c.active = true;
    circuits_.push_back(std::move(c));
    return CircuitId{static_cast<uint32_t>(circuits_.size() - 1)};
}

void
CircuitSwitch::teardownCircuit(CircuitId id)
{
    if (!id.valid() || id.index >= circuits_.size() ||
        !circuits_[id.index].active) {
        panic("%s: teardown of invalid circuit", params_.name.c_str());
    }
    Circuit &c = circuits_[id.index];
    c.active = false;
    reserved_[c.out_port] -= c.share;
    c.fifo.clear();
}

double
CircuitSwitch::reservedShare(uint32_t out_port) const
{
    return reserved_[out_port];
}

std::optional<uint32_t>
CircuitSwitch::findCircuit(uint32_t in_port, uint32_t out_port) const
{
    for (uint32_t c = 0; c < circuits_.size(); ++c) {
        if (circuits_[c].active && circuits_[c].in_port == in_port &&
            circuits_[c].out_port == out_port &&
            circuits_[c].usable_at <= sim_.now()) {
            return c;
        }
    }
    return std::nullopt;
}

void
CircuitSwitch::handleIngress(uint32_t in_port, net::PacketPtr p)
{
    if (p->route.exhausted()) {
        panic("%s: packet %s arrived with exhausted route",
              params_.name.c_str(), p->str().c_str());
    }
    const uint32_t out = p->route.hop();
    p->route.advance();
    ++p->hop_count;
    if (out >= out_links_.size() || out_links_[out] == nullptr) {
        panic("%s: route names invalid output port %u",
              params_.name.c_str(), out);
    }

    auto circuit = findCircuit(in_port, out);
    if (!circuit) {
        // Connection-oriented fabric: traffic without an established
        // circuit is rejected at the ingress line card.
        ++no_circuit_drops_;
        ++drops_[out];
        ++stats_.dropped_pkts;
        return;
    }
    Circuit &c = circuits_[*circuit];
    c.fifo.push_back(std::move(p));
    if (!c.draining) {
        // Forwarding latency before the first packet may depart.
        c.draining = true;
        const uint32_t idx = *circuit;
        sim_.schedule(params_.port_latency, [this, idx] {
            circuits_[idx].draining = false;
            drainCircuit(idx);
        });
    }
}

void
CircuitSwitch::drainCircuit(uint32_t index)
{
    Circuit &c = circuits_[index];
    if (!c.active || c.fifo.empty() || c.draining) {
        return;
    }
    net::Link *link = out_links_[c.out_port];
    if (link->busy()) {
        return; // tx-done callback retries
    }

    net::PacketPtr p = std::move(c.fifo.front());
    c.fifo.pop_front();
    ++stats_.forwarded_pkts;

    // Pace this circuit at its reserved rate: the gap between successive
    // departures is the serialization time at (share * line rate).
    const SimTime paced = link->bandwidth().transferTime(p->wireBytes())
                              .scaled(1.0 / c.share);
    link->transmit(std::move(p));

    c.draining = true;
    sim_.schedule(paced, [this, index] {
        circuits_[index].draining = false;
        drainCircuit(index);
    });
}

} // namespace switchm
} // namespace diablo
