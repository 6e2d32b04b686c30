#ifndef DIABLO_BENCH_BENCH_UTIL_HH_
#define DIABLO_BENCH_BENCH_UTIL_HH_

/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses.
 *
 * Scale control: every memcached-style bench honours the DIABLO_SCALE
 * environment variable:
 *   quick (default) - reduced requests per client; minutes for the suite
 *   full            - more requests; tighter tails
 *   paper           - the paper's 30,000 requests per client
 *
 * Every simulation harness builds each point from diablo_run keys
 * (point() below) through the workload definitions in src/apps, and
 * runs it on the partitioned engine: a fame::PartitionSet sized by
 * sim::Cluster::partitionsRequired, driven by run(true).
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "apps/incast.hh"
#include "apps/mc_experiment.hh"
#include "analysis/report.hh"
#include "core/log.hh"

namespace diablo {
namespace bench {

/** Requests per client for the current DIABLO_SCALE. */
inline uint32_t
requestsPerClient()
{
    const char *s = std::getenv("DIABLO_SCALE");
    std::string scale = s ? s : "quick";
    if (scale == "paper") {
        return 30000;
    }
    if (scale == "full") {
        return 1500;
    }
    return 200;
}

/** Incast iterations for the current DIABLO_SCALE. */
inline uint32_t
incastIterations()
{
    const char *s = std::getenv("DIABLO_SCALE");
    std::string scale = s ? s : "quick";
    if (scale == "paper" || scale == "full") {
        return 40;
    }
    return 15;
}

/**
 * Nodes in one array of the default topology (16 racks of 31): the
 * paper's 500, 1,000 and 2,000-node scales are topo.num_arrays = 1, 2
 * and 4 of them.
 */
constexpr uint32_t kArrayNodes = 16 * 31;

/**
 * The Config of one figure point: the DIABLO_SCALE's mc.requests and
 * incast.iterations, then the space-separated diablo_run key=value
 * @p assignments, which win.  A point is an experiment params'
 * fromConfig of these keys, so a point whose every value has a key is
 * also the command line `diablo_run <workload> <the same keys>`.
 */
inline Config
point(const std::string &assignments)
{
    Config cfg;
    cfg.set("mc.requests", static_cast<uint64_t>(requestsPerClient()));
    cfg.set("incast.iterations",
            static_cast<uint64_t>(incastIterations()));
    std::istringstream in(assignments);
    std::string a;
    while (in >> a) {
        if (!cfg.parseAssignment(a)) {
            fatal("not a key=value assignment: '%s'", a.c_str());
        }
    }
    return cfg;
}

inline void
banner(const char *title, const char *paper_ref)
{
    std::printf("==========================================================\n");
    std::printf("%s\n", title);
    std::printf("Reproduces: %s\n", paper_ref);
    std::printf("Scale: DIABLO_SCALE=%s (requests/client=%u)\n",
                std::getenv("DIABLO_SCALE") ? std::getenv("DIABLO_SCALE")
                                            : "quick",
                requestsPerClient());
    std::printf("==========================================================\n");
}

} // namespace bench
} // namespace diablo

#endif // DIABLO_BENCH_BENCH_UTIL_HH_
