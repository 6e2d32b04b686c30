/**
 * @file
 * Design-space exploration — the reason DIABLO exists: every switch
 * parameter is runtime-configurable, so radical designs can be compared
 * under identical full-stack workloads without re-synthesis.
 *
 * This example sweeps a 2x2x2 design space for the ToR switch under a
 * mixed workload (a latency-sensitive UDP echo sharing the rack with a
 * TCP bulk transfer):
 *   - cut-through vs store-and-forward forwarding (the fabric-latency
 *     axis);
 *   - per-port partitioned vs shared-dynamic buffering;
 *   - shallow vs deep packet memory.
 *
 *   $ ./build/examples/switch_design_space
 */

#include <cstdio>

#include "apps/incast.hh"
#include "sim/cluster.hh"

using namespace diablo;
using namespace diablo::time_literals;

namespace {

struct Outcome {
    double echo_p99_us;
    double bulk_mbps;
    uint64_t drops;
};

Task<>
echoServer(os::Kernel &k)
{
    os::Thread &t = k.createThread("echo");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    co_await k.sysBind(t, static_cast<int>(fd), 9);
    while (true) {
        os::RecvedMessage m;
        long n = co_await k.sysRecvFrom(t, static_cast<int>(fd), &m);
        if (n < 0) {
            co_return;
        }
        co_await k.sysSendTo(t, static_cast<int>(fd), m.from, m.from_port,
                             static_cast<uint64_t>(n), nullptr);
    }
}

Task<>
echoClient(os::Kernel &k, net::NodeId dst, SampleSet &rtt, bool &done)
{
    os::Thread &t = k.createThread("echo-cli");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    for (int i = 0; i < 400; ++i) {
        const SimTime start = k.sim().now();
        co_await k.sysSendTo(t, static_cast<int>(fd), dst, 9, 128,
                             nullptr);
        os::RecvedMessage m;
        long n = co_await k.sysRecvFrom(t, static_cast<int>(fd), &m,
                                        50_ms);
        if (n > 0) {
            rtt.record((k.sim().now() - start).asMicros());
        }
        co_await k.sim().sleep(200_us);
    }
    done = true;
}

Outcome
evaluate(bool cut_through, bool shared, uint64_t buffer_bytes)
{
    Simulator sim;
    sim::ClusterParams cp = sim::ClusterParams::gige1us();
    cp.topo.servers_per_rack = 8;
    cp.topo.racks_per_array = 1;
    cp.topo.num_arrays = 1;
    cp.topo.rack_sw.cut_through = cut_through;
    cp.topo.rack_sw.buffer_policy =
        shared ? switchm::BufferPolicy::SharedDynamic
               : switchm::BufferPolicy::Partitioned;
    cp.topo.rack_sw.buffer_per_port_bytes = buffer_bytes;
    cp.topo.rack_sw.buffer_total_bytes = buffer_bytes * 8;
    sim::Cluster cluster(sim, cp);

    // Latency-sensitive pair: nodes 0 <-> 1.
    SampleSet rtt;
    bool echo_done = false;
    cluster.kernel(1).spawnProcess(echoServer(cluster.kernel(1)));
    cluster.kernel(0).spawnProcess(
        echoClient(cluster.kernel(0), 1, rtt, echo_done));

    // Bulk incast traffic: nodes 3..7 blast node 2.
    apps::IncastParams ip;
    ip.iterations = 8;
    apps::IncastApp bulk(cluster, ip, 2, {3, 4, 5, 6, 7});
    bulk.install();

    sim.run();
    return Outcome{rtt.percentile(99), bulk.result().goodputMbps(),
                   cluster.network().totalSwitchDrops()};
}

} // namespace

int
main()
{
    std::printf("ToR design sweep under a mixed rack workload (UDP echo "
                "+ 5-way incast):\n\n");
    std::printf("%-14s %-16s %-10s | %12s %12s %8s\n", "forwarding",
                "buffer policy", "bytes/port", "echo p99 us",
                "bulk Mbps", "drops");
    for (bool ct : {true, false}) {
        for (bool shared : {false, true}) {
            for (uint64_t bytes : {4096ULL, 65536ULL}) {
                Outcome o = evaluate(ct, shared, bytes);
                std::printf("%-14s %-16s %-10llu | %12.1f %12.1f %8llu\n",
                            ct ? "cut-through" : "store-forward",
                            shared ? "shared-dynamic" : "partitioned",
                            static_cast<unsigned long long>(bytes),
                            o.echo_p99_us, o.bulk_mbps,
                            static_cast<unsigned long long>(o.drops));
            }
        }
    }
    std::printf(
        "\nReadings: the echo flow's tail is protected from the bulk "
        "traffic by the\nVOQ switch's input-side buffering regardless "
        "of policy; buffer depth decides\nwhether the incast collapses; "
        "shared-dynamic pools help at small sizes but\ntheir thresholds "
        "cap a single hot input below a deep private partition;\n"
        "cut-through shaves the store-and-forward serialization from "
        "every hop\n(visible in the echo p99).\n");
    return 0;
}
