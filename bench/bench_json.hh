#ifndef DIABLO_BENCH_BENCH_JSON_HH_
#define DIABLO_BENCH_BENCH_JSON_HH_

/**
 * @file
 * JSON trajectory emitter for google-benchmark runs.
 *
 * Engine throughput is this project's headline number (the quantity
 * DIABLO's FPGAs improve by two orders of magnitude), so each
 * microbenchmark run is appended to a trajectory file — by default the
 * binary's own `BENCH_<area>.json` in the working directory (runMain's
 * @p fallback), overridable with the DIABLO_BENCH_JSON environment
 * variable — as one JSON object per run:
 *
 *   [
 *     { "label": "...", "unix_time": 1754550000,
 *       "benchmarks": [
 *         { "name": "BM_EventScheduleExecute",
 *           "items_per_second": 6.8e7,
 *           "real_ns_per_iter": 14.9,
 *           "iterations": 47316258 }, ... ] },
 *     ...
 *   ]
 *
 * Future PRs compare their numbers against the trajectory instead of
 * rediscovering the baseline.  An optional DIABLO_BENCH_LABEL names the
 * run (e.g. a git revision).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cpu_topology.hh"

namespace diablo {
namespace bench_json {

/** Collects per-benchmark results; append() writes the trajectory. */
class TrajectoryReporter : public benchmark::BenchmarkReporter {
  public:
    bool
    ReportContext(const Context &) override
    {
        return true;
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration) {
                continue; // skip aggregates
            }
            Entry e;
            e.name = run.benchmark_name();
            e.iterations = static_cast<uint64_t>(run.iterations);
            if (run.iterations > 0) {
                e.real_ns_per_iter = run.real_accumulated_time * 1e9 /
                                     static_cast<double>(run.iterations);
            }
            auto it = run.counters.find("items_per_second");
            if (it != run.counters.end()) {
                e.items_per_second = it->second.value;
            }
            // Carry every other user counter (e.g. allocs_per_packet)
            // so regression guards can check them from the trajectory.
            for (const auto &kv : run.counters) {
                if (kv.first != "items_per_second") {
                    e.counters.emplace_back(kv.first, kv.second.value);
                }
            }
            entries_.push_back(std::move(e));
        }
    }

    /**
     * Trajectory path: DIABLO_BENCH_JSON when set, else @p fallback,
     * each microbenchmark binary's own trajectory file.
     */
    static std::string
    defaultPath(const char *fallback)
    {
        const char *env = std::getenv("DIABLO_BENCH_JSON");
        return env && *env ? env : fallback;
    }

    /**
     * Append this run as one object to the JSON array in @p path,
     * creating the file if needed.  A run in which no benchmark ran
     * (e.g. a filter matching nothing) writes nothing.  Returns false
     * on I/O failure (the benchmark results were already printed;
     * losing the trajectory entry is not fatal).
     */
    bool
    append(const std::string &path) const
    {
        if (entries_.empty()) {
            return true;
        }
        std::ostringstream obj;
        obj << "  {\n";
        const char *label = std::getenv("DIABLO_BENCH_LABEL");
        if (label && *label) {
            obj << "    \"label\": \"" << escape(label) << "\",\n";
        }
        obj << "    \"unix_time\": "
            << static_cast<long long>(std::time(nullptr)) << ",\n"
            << "    \"benchmarks\": [\n";
        for (size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            obj << "      { \"name\": \"" << escape(e.name) << "\""
                << ", \"items_per_second\": " << e.items_per_second
                << ", \"real_ns_per_iter\": " << e.real_ns_per_iter
                << ", \"iterations\": " << e.iterations;
            for (const auto &kv : e.counters) {
                obj << ", \"" << escape(kv.first) << "\": " << kv.second;
            }
            obj << " }" << (i + 1 < entries_.size() ? ",\n" : "\n");
        }
        obj << "    ]\n  }";

        // Splice into the existing array (text-level append: strip the
        // trailing ']' and re-close), or start a fresh array.
        std::string existing;
        {
            std::ifstream in(path);
            if (in) {
                std::ostringstream ss;
                ss << in.rdbuf();
                existing = ss.str();
            }
        }
        const size_t close = existing.find_last_of(']');
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
            return false;
        }
        if (close == std::string::npos) {
            out << "[\n" << obj.str() << "\n]\n";
        } else {
            std::string head = existing.substr(0, close);
            while (!head.empty() &&
                   (head.back() == '\n' || head.back() == ' ')) {
                head.pop_back();
            }
            out << head << ",\n" << obj.str() << "\n]\n";
        }
        return static_cast<bool>(out);
    }

  private:
    struct Entry {
        std::string name;
        double items_per_second = 0;
        double real_ns_per_iter = 0;
        uint64_t iterations = 0;
        std::vector<std::pair<std::string, double>> counters;
    };

    static std::string
    escape(const std::string &s)
    {
        std::string r;
        r.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\') {
                r.push_back('\\');
            }
            r.push_back(c);
        }
        return r;
    }

    std::vector<Entry> entries_;
};

/**
 * Display reporter that forwards to two reporters — lets the trajectory
 * collector ride along with normal console output without requiring
 * --benchmark_out.
 */
class TeeReporter : public benchmark::BenchmarkReporter {
  public:
    TeeReporter(benchmark::BenchmarkReporter &a,
                benchmark::BenchmarkReporter &b)
        : a_(a), b_(b)
    {
    }

    bool
    ReportContext(const Context &context) override
    {
        const bool ra = a_.ReportContext(context);
        const bool rb = b_.ReportContext(context);
        return ra && rb;
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        a_.ReportRuns(runs);
        b_.ReportRuns(runs);
    }

    void
    Finalize() override
    {
        a_.Finalize();
        b_.Finalize();
    }

  private:
    benchmark::BenchmarkReporter &a_;
    benchmark::BenchmarkReporter &b_;
};

/**
 * Stamp every entry with the cores the benchmark may use (its affinity
 * mask, so a taskset'd run reports what it got) and whether this row
 * ran more workers than cores.  Trajectory comparisons (bench_guard, and
 * anyone eyeballing BENCH_fame.json) must not mix a threads:2 row from
 * a 1-core runner — where both workers timeshare one core and the
 * barrier parks immediately — with the same row from a real 2-core
 * host.  The counters ride into the JSON via TrajectoryReporter.
 */
inline void
annotate_multicore(benchmark::State &state, size_t workers)
{
    const size_t cores = allowedCpus().size();
    state.counters["workers"] =
        benchmark::Counter(static_cast<double>(workers));
    state.counters["cores"] =
        benchmark::Counter(static_cast<double>(cores));
    state.counters["oversubscribed"] =
        benchmark::Counter(workers > cores ? 1.0 : 0.0);
}

/**
 * The microbenchmarks' shared main: run the selected benchmarks with
 * console output, append the run to the trajectory file (@p fallback
 * unless DIABLO_BENCH_JSON names another) and warn when that fails.
 * Returns 1 on an unrecognized argument, else 0.
 */
inline int
runMain(int argc, char **argv, const char *fallback)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::ConsoleReporter console;
    TrajectoryReporter trajectory;
    TeeReporter tee(console, trajectory);
    benchmark::RunSpecifiedBenchmarks(&tee);
    const std::string path = TrajectoryReporter::defaultPath(fallback);
    if (!trajectory.append(path)) {
        std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
    benchmark::Shutdown();
    return 0;
}

} // namespace bench_json
} // namespace diablo

#endif // DIABLO_BENCH_BENCH_JSON_HH_
