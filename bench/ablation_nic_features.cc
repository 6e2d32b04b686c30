/**
 * @file
 * Ablation: NIC model features (SS3.3's "advanced features such as
 * Zero-copy, RX/TX interrupt mitigation and the NAPI polling
 * interface").  Quantifies each feature's effect:
 *  - interrupt mitigation (rx ITR) trades median latency for CPU;
 *  - zero-copy raises the CPU-bound TCP send ceiling.
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

int
main()
{
    banner("Ablation: NIC interrupt mitigation and zero-copy",
           "NIC model features from SS3.3");

    // --- interrupt mitigation vs memcached latency (496 nodes, UDP) ---
    Table t({"rx ITR (us)", "p50 (us)", "p99 (us)",
             "softirq rounds/node"});
    for (double itr_us : {0.0, 25.0, 100.0}) {
        const auto p = apps::McExperimentParams::fromConfig(
            point(strprintf("topo.num_arrays=1 nic.rx_itr_us=%g", itr_us)));
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::McExperiment exp(ps, p);
        exp.run(true);
        const SampleSet &lat = exp.result().latency_us;
        uint64_t softirqs = 0;
        for (uint32_t nid = 0; nid < exp.cluster().size(); ++nid) {
            softirqs += exp.cluster().kernel(nid).stats().softirq_rounds;
        }
        t.addRow({Table::cell("%.0f", itr_us),
                  Table::cell("%.1f", lat.percentile(50)),
                  Table::cell("%.1f", lat.percentile(99)),
                  Table::cell("%.0f", static_cast<double>(softirqs) /
                                          exp.cluster().size())});
    }
    t.print();
    std::printf("interrupt coalescing adds its full delay to the median "
                "of small-RPC\nworkloads while cutting interrupt/softirq "
                "load — the classic trade.\n\n");

    // --- zero-copy vs TCP send ceiling (1 server, 10 Gbps) ---
    Table z({"zero-copy", "single-flow goodput (Mbps)"});
    for (bool zc : {true, false}) {
        const auto p = apps::IncastExperimentParams::fromConfig(
            point(strprintf("incast.servers=1 topo.rack.port_gbps=10 "
                            "nic.zero_copy=%s", zc ? "true" : "false")));
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::IncastExperiment exp(ps, p);
        exp.run(true);
        if (exp.aborted()) {
            fatal("single-flow incast did not complete");
        }
        z.addRow({zc ? "on" : "off",
                  analysis::Table::cell("%.0f",
                                        exp.result().goodputMbps())});
    }
    z.print();
    std::printf("zero-copy (scatter/gather DMA) removes the per-byte "
                "user->kernel copy\nfrom the CPU-bound send path "
                "(paper: \"essential for any high-performance\n"
                "networking interface\").\n");
    return 0;
}
