/**
 * @file
 * Figure 8: "Real machines vs. simulated memcached servers" — the
 * single-rack validation.  Two memcached servers plus a growing number
 * of closed-loop clients in one 16-node rack: (a) per-server throughput
 * versus client count saturates; (b) mean client latency stays flat,
 * then rises once the servers saturate.
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

namespace {

struct Point {
    double server_kops;
    double mean_latency_us;
};

Point
runRack(uint32_t clients, bool udp, uint32_t workers)
{
    // Saturation sweep: clients blast back-to-back (no think time).
    apps::McExperimentParams p = apps::McExperimentParams::fromConfig(
        point(strprintf("topo.servers_per_rack=%u topo.racks_per_array=1 "
                        "topo.num_arrays=1 mc.udp=%s mc.workers=%u "
                        "mc.think_us=0",
                        2 + clients, udp ? "true" : "false", workers)));
    p.client.start_window = SimTime::ms(1);

    fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
    apps::McExperiment exp(ps, p);
    exp.run(true);
    const auto &r = exp.result();
    Point out;
    out.server_kops = static_cast<double>(r.requests_completed) /
                      r.elapsed.asSeconds() / 1000.0 / 2.0; // per server
    out.mean_latency_us = r.latency_us.mean();
    return out;
}

} // namespace

int
main()
{
    banner("Figure 8: single-rack validation (2 memcached servers)",
           "Fig. 8(a) throughput and 8(b) latency vs number of clients");

    const std::vector<uint32_t> clients = {1, 2, 4, 6, 8, 10, 12, 14};

    for (bool udp : {true, false}) {
        for (uint32_t workers : {4u, 8u}) {
            std::printf("\n--- %s, %u worker threads ---\n",
                        udp ? "UDP" : "TCP", workers);
            Table t({"clients", "per-server throughput (k req/s)",
                     "mean client latency (us)"});
            analysis::Series thr{"throughput", {}}, lat{"latency", {}};
            for (uint32_t c : clients) {
                Point pt = runRack(c, udp, workers);
                t.addRow({Table::cell("%u", c),
                          Table::cell("%.1f", pt.server_kops),
                          Table::cell("%.1f", pt.mean_latency_us)});
                thr.points.emplace_back(c, pt.server_kops);
                lat.points.emplace_back(c, pt.mean_latency_us);
            }
            t.print();
        }
    }

    std::printf(
        "\nshape targets (paper Fig. 8): throughput scales with few "
        "clients then\nsaturates; latency is low and linear with few "
        "clients, then grows as the\nservers saturate.  Absolute numbers "
        "differ (different simulated hardware);\nthe paper's goal — and "
        "ours — is reproducing the curve shapes.\n");
    return 0;
}
