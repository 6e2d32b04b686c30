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

    const uint32_t iters = incastIterations();
    const std::vector<uint32_t> counts = {1, 2, 4, 6, 8, 12, 16, 20, 24};

    Table t({"servers", "DIABLO VOQ 4KB (Mbps)",
             "shared-buffer HW-like (Mbps)", "output-queue ns2-like "
             "(Mbps)"});
    analysis::Series s_voq{"DIABLO VOQ 4KB/port", {}};
    analysis::Series s_shared{"shared-dynamic 48KB/port pool", {}};
    analysis::Series s_oq{"output-queue drop-tail 4KB", {}};

    for (uint32_t n : counts) {
        auto voq = runIncast(n, switchm::BufferPolicy::Partitioned, 4096,
                             false, 4.0, false, iters);
        auto shared = runIncast(n, switchm::BufferPolicy::SharedDynamic,
                                49152, false, 4.0, false, iters);
        auto oq = runIncast(n, switchm::BufferPolicy::Partitioned, 4096,
                            false, 4.0, false, iters,
                            switchm::SwitchModelKind::OutputQueue);
        t.addRow({Table::cell("%u", n),
                  Table::cell("%.1f", voq.goodputMbps()),
                  Table::cell("%.1f", shared.goodputMbps()),
                  Table::cell("%.1f", oq.goodputMbps())});
        s_voq.points.emplace_back(n, voq.goodputMbps());
        s_shared.points.emplace_back(n, shared.goodputMbps());
        s_oq.points.emplace_back(n, oq.goodputMbps());
    }
    t.print();
    analysis::asciiPlot("goodput (Mbps) vs number of servers",
                        {s_voq, s_shared, s_oq}, 64, 16, false);

    std::printf(
        "\npaper anchors: ~800 Mbps before collapse on real hardware; the"
        "\nDIABLO VOQ model collapses faster than the shared-buffer"
        "\nhardware but captures the post-collapse recovery trend.\n");
    return 0;
}
