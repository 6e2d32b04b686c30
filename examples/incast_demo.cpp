/**
 * @file
 * TCP Incast demo: watch application-level throughput collapse as the
 * number of synchronized senders grows past what a shallow-buffered
 * switch can absorb — and see exactly why, from the simulator's
 * instrumentation (drops, retransmissions, RTO events).
 *
 *   $ ./build/examples/incast_demo [max_servers] [buffer_bytes]
 */

#include <cstdio>
#include <cstdlib>

#include "apps/incast.hh"
#include "core/log.hh"

using namespace diablo;

int
main(int argc, char **argv)
{
    const uint32_t max_servers = argc > 1 ? atoi(argv[1]) : 16;
    const uint64_t buffer = argc > 2 ? atoll(argv[2]) : 4096;

    std::printf("TCP Incast: 256 KB blocks from N servers to 1 client "
                "through a 1 Gbps\nToR switch with %llu-byte per-port "
                "buffers.\n\n",
                static_cast<unsigned long long>(buffer));
    std::printf("%8s %14s %10s %8s %12s %14s\n", "servers",
                "goodput Mbps", "drops", "RTOs", "retransmits",
                "worst iter ms");

    for (uint32_t n = 1; n <= max_servers; n *= 2) {
        // The same run as `diablo_run incast` with these keys.
        Config cfg;
        cfg.set("incast.servers", static_cast<uint64_t>(n));
        cfg.set("incast.iterations", 10);
        cfg.set("topo.rack.buffer_per_port_bytes", buffer);
        const auto p = apps::IncastExperimentParams::fromConfig(cfg);
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::IncastExperiment exp(ps, p);
        exp.run(true);
        if (exp.aborted()) {
            fatal("%u-server incast did not complete", n);
        }

        const apps::IncastResult &r = exp.result();
        sim::Cluster &cluster = exp.cluster();
        std::printf("%8u %14.1f %10llu %8llu %12llu %14.1f\n", n,
                    r.goodputMbps(),
                    static_cast<unsigned long long>(
                        cluster.network().totalSwitchDrops()),
                    static_cast<unsigned long long>(
                        cluster.totalTcpRtos()),
                    static_cast<unsigned long long>(
                        cluster.totalTcpRetransmits()),
                    r.iteration_us.max() / 1000.0);
    }

    std::printf(
        "\nWhat to look for: once the synchronized responses overflow "
        "the per-port\nbuffer, block tails are lost whole, fast "
        "retransmit has no duplicate ACKs\nto work with, and every "
        "recovery waits out TCP's 200 ms minimum RTO — the\nclassic "
        "incast throughput collapse (paper SS4.1).  Re-run with a "
        "deeper\nbuffer (e.g. 65536) to watch the collapse point move "
        "out.\n");
    return 0;
}
