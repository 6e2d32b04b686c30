#include "bench_trace.hh"

#include "analysis/json_writer.hh"

namespace diablo {
namespace bench {

std::string
chromeTraceJson(const SpanLog &log, const std::string &process)
{
    analysis::JsonWriter w(false);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.beginArray("traceEvents");
    w.beginObject();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", 1);
    w.beginObject("args");
    w.field("name", process);
    w.endObject();
    w.endObject();
    const auto &spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("pid", 1);
        w.field("tid", s.tid);
        w.field("ts", static_cast<double>(s.start_ns) * 1e-3);
        w.field("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
        w.beginObject("args");
        w.field("id", static_cast<int64_t>(i));
        w.field("parent", static_cast<int64_t>(s.parent));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace bench
} // namespace diablo
