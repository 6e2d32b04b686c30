/**
 * @file
 * Simulator performance (paper SS5): the FAME host-performance model's
 * slowdown predictions (250-1000x band; ~50 minutes of wall clock per
 * simulated second for 4 GHz/10 Gbps targets; "perfect" scaling from
 * 500 to 2,000 nodes), the dSPARC host-multithreading utilization that
 * underlies them, and this software engine's own event rate.
 */

#include <chrono>

#include "bench/bench_util.hh"
#include "fame/partition.hh"
#include "fame/perf_model.hh"
#include "isa/assembler.hh"
#include "isa/pipeline.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

namespace {

/** Host-pipeline utilization for T threads of a memory-heavy program. */
double
pipelineUtilization(uint32_t threads)
{
    const char *prog = R"(
        addi r2, r0, 0
        addi r3, r0, 200
    loop:
        st   r2, 0(r5)
        ld   r4, 0(r5)
        addi r2, r2, 1
        blt  r2, r3, loop
        halt
    )";
    isa::TimingModel tm;
    isa::PipelineParams pp;
    pp.host_mem_stall_cycles = 16;
    isa::HostPipeline pipe(threads, 64, tm, pp);
    for (uint32_t t = 0; t < threads; ++t) {
        pipe.load(t, isa::assemble(prog));
    }
    pipe.runToCompletion();
    return pipe.utilization();
}

} // namespace

int
main()
{
    banner("Simulator performance: slowdown model + engine throughput",
           "SS5 - 50 min/target-second at 4 GHz; 250-1000x band; "
           "scaling");

    // --- FAME slowdown predictions ---
    fame::PerfModel pm(fame::HostPlatform::bee3());
    Table t({"target clock", "predicted slowdown",
             "wall clock per target second"});
    for (double ghz : {0.5, 1.0, 2.0, 4.0}) {
        double slow = pm.slowdown(ghz);
        t.addRow({Table::cell("%.1f GHz", ghz),
                  Table::cell("%.0fx", slow),
                  Table::cell("%.1f min", slow / 60.0)});
    }
    t.print();
    std::printf("paper anchors: ~50 min per target second at 4 GHz "
                "(%.1f min predicted);\n250-1000x band for lower-clock "
                "targets; software simulation ~two weeks\nfor 10 target "
                "seconds (model: %.1f days).\n\n",
                pm.slowdown(4.0) / 60.0,
                fame::PerfModel::softwareSlowdown(4.0, 3.0, 30) * 3000 *
                    10 / 86400.0);

    // --- host multithreading utilization (the mechanism) ---
    Table u({"threads/pipeline", "host pipeline utilization"});
    for (uint32_t threads : {1u, 4u, 16u, 32u}) {
        u.addRow({Table::cell("%u", threads),
                  Table::cell("%.0f%%",
                              100 * pipelineUtilization(threads))});
    }
    u.print();
    std::printf("host multithreading hides host-DRAM stalls (paper "
                "SS3.1); 32 threads\nsaturate the pipeline.\n\n");

    // --- scaling: simulation cost per node stays flat with scale ---
    Table s({"nodes", "sim events", "events/node",
             "host wall clock (s)"});
    double ev_per_node_500 = 0, ev_per_node_2k = 0;
    for (uint32_t nodes : {496u, 992u, 1984u}) {
        const auto p = apps::McExperimentParams::fromConfig(
            point(strprintf("topo.num_arrays=%u mc.requests=%u",
                            nodes / kArrayNodes,
                            std::min(requestsPerClient(), 100u))));
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::McExperiment exp(ps, p);
        auto t0 = std::chrono::steady_clock::now();
        exp.run(true);
        auto t1 = std::chrono::steady_clock::now();
        const double wall =
            std::chrono::duration<double>(t1 - t0).count();
        const uint64_t events = ps.totalExecutedEvents();
        const double per_node = static_cast<double>(events) / nodes;
        if (nodes == 496) {
            ev_per_node_500 = per_node;
        }
        if (nodes == 1984) {
            ev_per_node_2k = per_node;
        }
        s.addRow({Table::cell("%u", nodes),
                  Table::cell("%llu",
                              static_cast<unsigned long long>(events)),
                  Table::cell("%.0f", per_node),
                  Table::cell("%.1f", wall)});
    }
    s.print();
    std::printf("events per node at 2000 vs 500 nodes: %.2fx (paper: "
                "\"no performance\ndrop from simulating 500 nodes ... to "
                "2,000\" — per-node simulation cost\nstays flat)\n\n",
                ev_per_node_2k / ev_per_node_500);

    // --- the distributed engine's parallel speedup (FAME-style) ---
    {
        using namespace diablo::time_literals;
        auto buildLoad = [](fame::PartitionSet &ps) {
            for (size_t i = 0; i < ps.size(); ++i) {
                auto &ch = ps.makeChannel(i, (i + 1) % ps.size(), 5_us);
                // Heavy local work per partition plus cross traffic.
                for (int k = 0; k < 200; ++k) {
                    ps.partition(i).schedule(
                        SimTime::us(k), [&ps, i, &ch] {
                        volatile double x = 0;
                        for (int j = 0; j < 20000; ++j) {
                            x = x + j;
                        }
                        ch.post(ps.partition(i).now() + 5_us, [] {});
                    });
                }
            }
        };
        double wall_seq, wall_par;
        {
            fame::PartitionSet ps(4);
            buildLoad(ps);
            auto t0 = std::chrono::steady_clock::now();
            ps.runSequential(1_ms);
            wall_seq = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        }
        {
            fame::PartitionSet ps(4);
            buildLoad(ps);
            auto t0 = std::chrono::steady_clock::now();
            ps.runParallel(1_ms);
            wall_par = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        }
        std::printf("partitioned engine, 4 partitions: sequential %.3fs, "
                    "parallel %.3fs\n(speedup %.2fx with identical "
                    "results; the multi-FPGA analog)\n",
                    wall_seq, wall_par, wall_seq / wall_par);
    }
    return 0;
}
