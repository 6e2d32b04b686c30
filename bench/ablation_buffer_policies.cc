/**
 * @file
 * Ablation: switch packet-buffer architecture (the design axis DIABLO
 * makes runtime-configurable, SS3.3).  Runs the same 1 Gbps incast
 * workload across buffer policies and sizes — quantifying how much of
 * the TCP Incast story is the buffer organization itself.
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

int
main()
{
    banner("Ablation: buffer policy x size under incast (1 Gbps)",
           "design-space study enabled by runtime-configurable "
           "switch models");

    const uint32_t n = 12; // server count in the collapse region

    Table t({"policy", "per-port bytes", "goodput (Mbps)",
             "iterations > 100ms"});
    struct Row {
        const char *name; ///< the topo.rack.buffer_policy value
        uint64_t bytes;
    };
    const std::vector<Row> rows = {
        {"partitioned", 4096},
        {"partitioned", 16384},
        {"partitioned", 65536},
        {"partitioned", 1 << 20},
        {"shared", 16384},
        {"shared", 65536},
        {"shared_dynamic", 16384},
        {"shared_dynamic", 65536},
    };
    for (const auto &r : rows) {
        // Shared pools are sized for the full 16-port switch.
        const auto p = apps::IncastExperimentParams::fromConfig(point(
            strprintf("incast.servers=%u topo.rack.buffer_policy=%s "
                      "topo.rack.buffer_per_port_bytes=%llu "
                      "topo.rack.buffer_total_bytes=%llu",
                      n, r.name, static_cast<unsigned long long>(r.bytes),
                      static_cast<unsigned long long>(16 * r.bytes))));
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::IncastExperiment exp(ps, p);
        exp.run(true);
        if (exp.aborted()) {
            fatal("%s %llu-byte incast did not complete", r.name,
                  static_cast<unsigned long long>(r.bytes));
        }
        const apps::IncastResult &res = exp.result();
        int stalled = 0;
        for (double it_us : res.iteration_us.raw()) {
            if (it_us > 100000.0) {
                ++stalled;
            }
        }
        t.addRow({r.name, Table::cell("%llu",
                                      static_cast<unsigned long long>(
                                          r.bytes)),
                  Table::cell("%.1f", res.goodputMbps()),
                  Table::cell("%d/%zu", stalled,
                              res.iteration_us.count())});
    }
    t.print();

    std::printf("\ntakeaways: per-port partitions collapse earliest; "
                "shared pools with\ndynamic thresholds postpone collapse "
                "(the paper's hardware comparison);\ndeep buffers avoid "
                "RTO stalls entirely at this fan-in.\n");
    return 0;
}
