#ifndef DIABLO_BENCHMARK_BENCH_TRACE_HH_
#define DIABLO_BENCHMARK_BENCH_TRACE_HH_

/**
 * @file
 * Host-time spans recorded by the benchmark around its own calls into
 * each simulator layer.
 *
 * A span has a name, a start, an end, the span that caused it, and the
 * host thread it ran on.  Spans stay in memory for the whole rep and are
 * written once, as Chrome trace-event JSON, after the rep finished, so
 * recording costs two clock reads and one vector push.  Spans are only
 * ever opened from the benchmark's own code: what happens inside one
 * engine window is invisible here and shows up as the window's duration.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace diablo {
namespace bench {

using Clock = std::chrono::steady_clock;

struct Span {
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1; ///< index in the same SpanLog; -1 for roots
    uint32_t tid = 0;    ///< 0 = rep thread, 1 = second rank thread
};

/**
 * Spans of one host thread, timed against a shared origin.  Each thread
 * writes only its own log; logs are merged after the threads joined.
 */
class SpanLog {
  public:
    explicit SpanLog(Clock::time_point origin, uint32_t tid = 0)
        : origin_(origin), tid_(tid)
    {
        spans_.reserve(1024);
    }

    Clock::time_point origin() const { return origin_; }

    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    /** Open a span starting now; returns its index. */
    int32_t
    open(const char *name, int32_t parent = -1)
    {
        return add(name, now(), -1, parent);
    }

    void close(int32_t id) { spans_[id].end_ns = now(); }

    /** Record an already-measured interval. */
    int32_t
    add(const char *name, int64_t start_ns, int64_t end_ns,
        int32_t parent = -1)
    {
        spans_.push_back(Span{name, start_ns, end_ns, parent, tid_});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    /** Append @p other's spans; its roots become children of @p parent. */
    void
    adopt(const SpanLog &other, int32_t parent)
    {
        const int32_t base = static_cast<int32_t>(spans_.size());
        for (Span s : other.spans_) {
            s.parent = s.parent < 0 ? parent : s.parent + base;
            spans_.push_back(s);
        }
    }

    const std::vector<Span> &spans() const { return spans_; }
    Span &at(int32_t id) { return spans_[id]; }

    double
    seconds(int32_t id) const
    {
        return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) *
               1e-9;
    }

  private:
    Clock::time_point origin_;
    uint32_t tid_;
    std::vector<Span> spans_;
};

/**
 * The spans as a Chrome trace-event document ("X" complete events, µs
 * timestamps), which Perfetto and chrome://tracing open directly.  Each
 * event's args carry its own index and its parent's, so the causal tree
 * survives even where two spans nest on different threads.
 */
std::string chromeTraceJson(const SpanLog &log, const std::string &process);

} // namespace bench
} // namespace diablo

#endif // DIABLO_BENCHMARK_BENCH_TRACE_HH_
