#ifndef DIABLO_TESTS_SWITCHM_SWITCH_TEST_UTIL_HH_
#define DIABLO_TESTS_SWITCHM_SWITCH_TEST_UTIL_HH_

/**
 * @file
 * Shared wiring helpers for switch model tests: a switch instance with
 * per-port input links (fed by test code) and output links terminating in
 * collecting sinks.
 */

#include <memory>
#include <vector>

#include "core/simulator.hh"
#include "net/link.hh"
#include "switchm/switch_params.hh"

namespace diablo {
namespace switchm {
namespace test {

/** Records (arrival time, packet) pairs. */
class CollectSink : public net::PacketSink {
  public:
    explicit CollectSink(Simulator &sim) : sim_(&sim) {}

    void
    receive(net::PacketPtr p) override
    {
        arrivals.emplace_back(sim_->now(), std::move(p));
    }

    std::vector<std::pair<SimTime, net::PacketPtr>> arrivals;

  private:
    Simulator *sim_;
};

/**
 * A switch wired with input links and sink-terminated output links;
 * @p extra follows the params into the switch's constructor (e.g. a
 * PacketSwitch's queueing discipline).
 */
template <typename SwitchT>
struct SwitchHarness {
    template <typename... Extra>
    SwitchHarness(Simulator &sim, const SwitchParams &params,
                  Bandwidth host_bw, SimTime prop, Extra... extra)
        : sw(sim, params, extra...)
    {
        for (uint32_t i = 0; i < params.num_ports; ++i) {
            in_links.push_back(std::make_unique<net::Link>(
                sim, "in" + std::to_string(i), host_bw, prop));
            in_links.back()->connectTo(sw.inPort(i));

            sinks.push_back(std::make_unique<CollectSink>(sim));
            out_links.push_back(std::make_unique<net::Link>(
                sim, "out" + std::to_string(i), params.port_bw, prop));
            out_links.back()->connectTo(*sinks.back());
            sw.attachOutLink(i, *out_links.back());
        }
    }

    SwitchT sw;
    std::vector<std::unique_ptr<net::Link>> in_links;
    std::vector<std::unique_ptr<net::Link>> out_links;
    std::vector<std::unique_ptr<CollectSink>> sinks;
};

/** UDP packet routed to @p out_port with the given payload size. */
inline net::PacketPtr
routedPacket(uint32_t out_port, uint32_t payload)
{
    auto p = net::makePacket();
    p->flow.proto = net::Proto::Udp;
    p->payload_bytes = payload;
    p->route = net::SourceRoute({static_cast<uint16_t>(out_port)});
    return p;
}

} // namespace test
} // namespace switchm
} // namespace diablo

#endif // DIABLO_TESTS_SWITCHM_SWITCH_TEST_UTIL_HH_
