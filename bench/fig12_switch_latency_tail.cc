/**
 * @file
 * Figure 12: "Client latency tail with different switch latencies" —
 * the 2000-node 10 Gbps memcached experiment with an additional 0 /
 * 50 / 100 ns of port-to-port latency at every switch level.
 *
 * Shape targets: the extra switch latency does not change the *shape*
 * of the tail curves and imposes no significant tax on regular non-tail
 * requests; the simulator is stable under small hardware tweaks (the
 * paper's error bars are tiny).
 */

#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;
using analysis::Table;

int
main()
{
    banner("Figure 12: tail vs added switch port-to-port latency",
           "Fig. 12 - +0/+50/+100 ns at 2000 nodes, 10 Gbps");

    Table t({"extra latency", "p50 (us)", "p95 (us)", "p99 (us)",
             "p99.9 (us)"});
    std::vector<double> p50s, p99s;

    for (int extra_ns : {0, 50, 100}) {
        apps::McExperimentParams p = apps::McExperimentParams::fromConfig(
            point("topo.rack.port_gbps=10"));
        for (switchm::SwitchParams *sw :
             {&p.cluster.topo.rack_sw, &p.cluster.topo.array_sw,
              &p.cluster.topo.dc_sw}) {
            sw->port_latency += SimTime::ns(extra_ns);
        }
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
        apps::McExperiment exp(ps, p);
        exp.run(true);
        const SampleSet &lat = exp.result().latency_us;
        t.addRow({Table::cell("+%d ns", extra_ns),
                  Table::cell("%.1f", lat.percentile(50)),
                  Table::cell("%.1f", lat.percentile(95)),
                  Table::cell("%.1f", lat.percentile(99)),
                  Table::cell("%.1f", lat.percentile(99.9))});
        p50s.push_back(lat.percentile(50));
        p99s.push_back(lat.percentile(99));

        analysis::printCdf(Table::cell("+%d ns tail (p96+)", extra_ns),
                           lat.tailCdf(96.0), 12);
    }
    t.print();

    std::printf("\nmedian shift +100 ns vs +0: %.1f us (paper: no "
                "significant tax on\nregular requests); p99 shift: "
                "%.1f us (paper: 253 us -> 364 us on its\nabsolute "
                "scale; shape preserved)\n",
                p50s.back() - p50s.front(), p99s.back() - p99s.front());
    return 0;
}
