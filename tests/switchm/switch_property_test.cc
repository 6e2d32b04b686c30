#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/random.hh"
#include "switchm/packet_switch.hh"
#include "switchm/switch_test_util.hh"

namespace diablo {
namespace switchm {
namespace {

using namespace diablo::time_literals;
using test::SwitchHarness;

/** One point in the switch design space. */
struct SwitchCase {
    const char *model;   // "voq" | "oq"
    uint32_t ports;
    BufferPolicy policy;
    uint64_t buffer_bytes;
    bool cut_through;
    uint64_t seed;
};

std::string
caseName(const testing::TestParamInfo<SwitchCase> &info)
{
    const SwitchCase &c = info.param;
    return std::string(c.model) + "_" + std::to_string(c.ports) + "p_" +
           bufferPolicyName(c.policy) + "_" +
           std::to_string(c.buffer_bytes) + "_" +
           (c.cut_through ? "ct" : "sf") + "_s" +
           std::to_string(c.seed);
}

/**
 * Property suite: for ANY switch configuration, under a random traffic
 * pattern,
 *  - every injected packet is either forwarded or counted as dropped
 *    (packet conservation);
 *  - packets of the same (input, output) pair arrive in injection
 *    order (no reordering);
 *  - when the fabric drains, all buffer accounting returns to zero.
 */
class SwitchProperties : public testing::TestWithParam<SwitchCase> {};

TEST_P(SwitchProperties, ConservationOrderingAndDrain)
{
    const SwitchCase &c = GetParam();
    const uint32_t ports = c.ports;
    Simulator sim;

    SwitchParams params;
    params.num_ports = ports;
    params.port_bw = Bandwidth::gbps(1);
    params.port_latency = 500_ns;
    params.cut_through = c.cut_through;
    params.buffer_policy = c.policy;
    params.buffer_per_port_bytes = c.buffer_bytes;
    params.buffer_total_bytes = c.buffer_bytes * ports;

    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns,
                                  std::string(c.model) == "voq"
                                      ? SwitchModelKind::Voq
                                      : SwitchModelKind::OutputQueue);
    PacketSwitch *sw = &h.sw;
    auto &sinks = h.sinks;

    // Inject a random pattern: bursts from random inputs to random
    // outputs with random sizes, with a per-(in,out) sequence number
    // stamped in the flow source port.
    Rng rng(c.seed);
    const int kPackets = 400;
    std::vector<std::vector<uint64_t>> next_seq(
        ports, std::vector<uint64_t>(ports, 0));
    for (int i = 0; i < kPackets; ++i) {
        const auto in = static_cast<uint32_t>(rng.uniformInt(0, ports - 1));
        const auto out = static_cast<uint32_t>(rng.uniformInt(0, ports - 1));
        const auto bytes =
            static_cast<uint32_t>(rng.uniformInt(1, 1400));
        // Injection times increase with creation order (jitter smaller
        // than the stride), so per-pair sequence numbers are injected
        // in order and the FIFO property below is well-defined.
        const SimTime when = SimTime::ns(i * 700) +
                             SimTime::ns(rng.uniformInt(0, 500));
        const uint64_t seq = next_seq[in][out]++;
        sim.scheduleAt(when, [sw, in, out, bytes, seq] {
            auto p = net::makePacket();
            p->flow.proto = net::Proto::Udp;
            p->flow.src = in;
            p->flow.dst = out;
            p->flow.sport = static_cast<uint16_t>(seq);
            p->payload_bytes = bytes;
            p->route = net::SourceRoute({static_cast<uint16_t>(out)});
            p->last_bit = SimTime::max(); // filled below
            // Direct injection: pretend the bits just finished arriving.
            p->first_bit = p->last_bit = SimTime();
            sw->inPort(in).receive(std::move(p));
        });
    }
    sim.run();

    // Conservation.
    uint64_t delivered = 0;
    for (auto &sink : sinks) {
        delivered += sink->arrivals.size();
    }
    EXPECT_EQ(delivered + sw->stats().dropped_pkts,
              static_cast<uint64_t>(kPackets));
    EXPECT_EQ(sw->stats().forwarded_pkts, delivered);

    // Per-(input, output) FIFO ordering among survivors.
    for (uint32_t out = 0; out < ports; ++out) {
        std::vector<uint64_t> last_seen(ports, 0);
        std::vector<bool> first(ports, false);
        for (auto &[t, pkt] : sinks[out]->arrivals) {
            const uint32_t in = pkt->flow.src;
            const uint64_t seq = pkt->flow.sport;
            if (first[in]) {
                EXPECT_GT(seq, last_seen[in])
                    << "reordering on pair (" << in << "," << out << ")";
            }
            last_seen[in] = seq;
            first[in] = true;
        }
    }

    // Buffer accounting fully drained.
    EXPECT_EQ(sw->bufferUsed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, SwitchProperties,
    testing::Values(
        SwitchCase{"voq", 6, BufferPolicy::Partitioned, 4096, true, 1},
        SwitchCase{"voq", 6, BufferPolicy::Partitioned, 4096, false, 2},
        SwitchCase{"voq", 6, BufferPolicy::Partitioned, 65536, true, 3},
        SwitchCase{"voq", 6, BufferPolicy::Shared, 16384, true, 4},
        SwitchCase{"voq", 6, BufferPolicy::Shared, 262144, false, 5},
        SwitchCase{"voq", 6, BufferPolicy::SharedDynamic, 16384, true, 6},
        SwitchCase{"voq", 6, BufferPolicy::SharedDynamic, 262144, true, 7},
        SwitchCase{"oq", 6, BufferPolicy::Partitioned, 4096, false, 8},
        SwitchCase{"oq", 6, BufferPolicy::Partitioned, 65536, true, 9},
        SwitchCase{"oq", 6, BufferPolicy::Shared, 65536, false, 10},
        // Queue bitmaps three 64-bit words wide.
        SwitchCase{"voq", 130, BufferPolicy::Partitioned, 65536, true, 11}),
    caseName);

} // namespace
} // namespace switchm
} // namespace diablo
