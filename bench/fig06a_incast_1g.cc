/**
 * @file
 * Figure 6(a): "Reproducing the goodput of TCP Incast ... 1 Gbps
 * shallow-buffer switch."
 *
 * Three series, mirroring the paper's comparison:
 *  - DIABLO model: the abstract VOQ switch with 4 KB per-port buffers
 *    (Nortel 5500-like), 1 us port-to-port latency — collapses faster
 *    than shared-buffer hardware, exactly as the paper observed;
 *  - hardware-like: shared-dynamic packet memory (Asante IC35516-class
 *    16-port shared pool), which collapses later and recovers higher;
 *  - ns2-like: simple output-queued drop-tail switch baseline.
 *
 * Shape targets (paper SS4.1): ~800-950 Mbps before collapse; fast
 * collapse for the shallow VOQ config; throughput recovery trend as the
 * server count keeps growing after collapse.
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

int
main()
{
    banner("Figure 6(a): TCP Incast goodput, 1 Gbps shallow buffers",
           "Fig. 6(a) - DIABLO vs shared-buffer hardware vs ns2-like");

    const std::vector<uint32_t> counts = {1, 2, 4, 6, 8, 12, 16, 20, 24};

    Table t({"servers", "DIABLO VOQ 4KB (Mbps)",
             "shared-buffer HW-like (Mbps)", "output-queue ns2-like "
             "(Mbps)"});
    std::vector<analysis::Series> series = {
        {"DIABLO VOQ 4KB/port", {}},
        {"shared-dynamic 48KB/port pool", {}},
        {"output-queue drop-tail 4KB", {}},
    };
    // Each series' keys over the 1 Gbps preset's 4 KB per-port VOQ
    // partitions; the shared pool is sized for the full 16-port switch.
    const char *series_keys[] = {
        "",
        "topo.rack.buffer_policy=shared_dynamic "
        "topo.rack.buffer_total_bytes=786432",
        "topo.switch_model=output_queue",
    };

    for (uint32_t n : counts) {
        std::vector<std::string> row = {Table::cell("%u", n)};
        for (size_t i = 0; i < series.size(); ++i) {
            const auto p = apps::IncastExperimentParams::fromConfig(
                point(strprintf("incast.servers=%u %s", n, series_keys[i])));
            fame::PartitionSet ps(
                sim::Cluster::partitionsRequired(p.cluster));
            apps::IncastExperiment exp(ps, p);
            exp.run(true);
            if (exp.aborted()) {
                fatal("%u-server incast did not complete", n);
            }
            const double mbps = exp.result().goodputMbps();
            row.push_back(Table::cell("%.1f", mbps));
            series[i].points.emplace_back(n, mbps);
        }
        t.addRow(row);
    }
    t.print();
    analysis::asciiPlot("goodput (Mbps) vs number of servers", series,
                        64, 16, false);

    std::printf(
        "\npaper anchors: ~800 Mbps before collapse on real hardware; the"
        "\nDIABLO VOQ model collapses faster than the shared-buffer"
        "\nhardware but captures the post-collapse recovery trend.\n");
    return 0;
}
