/**
 * @file
 * Figure 9: "Client latency CDF on a 120-node real cluster vs. DIABLO"
 * — memcached 1.4.15 vs 1.4.17 at 120 nodes.
 *
 * Two pairs of series: the clean simulated cluster (like DIABLO's), and
 * a "physical-cluster-like" variant with background daemons enabled —
 * the paper notes its simulation is a more ideal environment than the
 * shared physical cluster, with fewer requests falling into the tail.
 */

#include <algorithm>

#include "apps/background_noise.hh"
#include "bench/bench_util.hh"

using namespace diablo;
using namespace diablo::bench;

namespace {

SampleSet
run120(int version, bool with_noise)
{
    apps::McExperimentParams p = apps::McExperimentParams::fromConfig(
        point(strprintf("topo.servers_per_rack=15 topo.racks_per_array=8 "
                        "topo.num_arrays=1 mc.servers=8 mc.udp=false "
                        "mc.version=%d", version)));
    p.client.preconnect = false; // version delta lives in the accept path

    fame::PartitionSet ps(sim::Cluster::partitionsRequired(p.cluster));
    apps::McExperiment exp(ps, p);
    if (with_noise) {
        apps::NoiseParams np;
        apps::installBackgroundNoiseEverywhere(exp.cluster(), np);
    }
    exp.run(true);
    return exp.result().latency_us;
}

} // namespace

int
main()
{
    banner("Figure 9: 120-node client latency CDF, memcached versions",
           "Fig. 9 - 1.4.15 vs 1.4.17, simulated vs physical-like");

    for (bool noise : {false, true}) {
        std::printf("\n=== %s ===\n",
                    noise ? "physical-cluster-like (background daemons)"
                          : "DIABLO-like (clean simulation)");
        for (int version : {1415, 1417}) {
            SampleSet lat = run120(version, noise);
            std::printf("memcached 1.4.%d: %s\n", version % 100,
                        analysis::latencySummary(lat).c_str());
            analysis::printCdf(
                analysis::Table::cell("1.4.%d latency (us), tail from "
                                      "p98", version % 100),
                lat.tailCdf(98.0), 16);

            const double frac_slow =
                1.0 - static_cast<double>(std::count_if(
                          lat.raw().begin(), lat.raw().end(),
                          [&](double v) {
                              return v < 10.0 * lat.percentile(50);
                          })) /
                          static_cast<double>(lat.count());
            std::printf("  fraction >10x median: %.3f%%   (paper: <0.1%% "
                        "of requests finish orders of magnitude slower)\n",
                        100.0 * frac_slow);
        }
    }

    std::printf("\nshape targets (paper Fig. 9): 1.4.17 has a slightly "
                "better tail than\n1.4.15; the clean simulation has "
                "fewer tail requests than the shared\nphysical "
                "cluster.\n");
    return 0;
}
