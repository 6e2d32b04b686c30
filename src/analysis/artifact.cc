#include "analysis/artifact.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "analysis/json_writer.hh"
#include "core/log.hh"

namespace diablo {
namespace analysis {

namespace {

uint64_t
doubleBits(double d)
{
    uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** FNV-1a over a string, for folding names into the chain. */
uint64_t
strHash(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h = (h ^ c) * 0x100000001b3ULL;
    }
    return h;
}

/**
 * Visit every ledger field of @p a in ledger order (shared by ledger()
 * and addLedger(), so the two can never disagree on the layout).
 */
template <typename Artifact, typename Fn>
void
forEachLedgerField(Artifact &a, Fn fn)
{
    fn(a.executed_events);
    for (auto &p : a.partition_rows) {
        fn(p.events);
        fn(p.pool_makes);
        fn(p.pool_recycles);
        fn(p.pool_heap_allocs);
        fn(p.pool_returns);
        fn(p.pool_high_water);
    }
    for (auto &g : a.groups) {
        for (auto &kv : g.counters) {
            fn(kv.second);
        }
    }
}

/** The ledger shape word: group names, counter names, row count. */
uint64_t
ledgerShape(const RunArtifact &a)
{
    uint64_t h = QuantileSketch::chainFingerprint(0, a.partition_rows.size());
    for (const RunArtifact::CounterGroup &g : a.groups) {
        h = QuantileSketch::chainFingerprint(h, strHash(g.name));
        for (const auto &kv : g.counters) {
            h = QuantileSketch::chainFingerprint(h, strHash(kv.first));
        }
    }
    return h;
}

} // namespace

LatencyDigest
LatencyDigest::of(const SampleSet &s)
{
    LatencyDigest d;
    d.count = s.count();
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (i * 8)) & 0xff)) * 0x100000001b3ULL;
        }
    };
    mix(d.count);
    for (double x : s.raw()) {
        mix(doubleBits(x));
    }
    d.fingerprint = h;
    if (d.count == 0) {
        return d;
    }
    d.mean = s.mean();
    d.min = s.min();
    d.max = s.max();
    d.p50 = s.percentile(50);
    d.p90 = s.percentile(90);
    d.p95 = s.percentile(95);
    d.p99 = s.percentile(99);
    return d;
}

LatencyDigest
LatencyDigest::of(const LatencyStat &s)
{
    LatencyDigest d;
    d.count = s.count();
    d.sketched = s.sketched();
    d.fingerprint = s.fingerprint();
    if (d.count == 0) {
        return d;
    }
    d.mean = s.mean();
    d.min = s.min();
    d.max = s.max();
    d.p50 = s.percentile(50);
    d.p90 = s.percentile(90);
    d.p95 = s.percentile(95);
    d.p99 = s.percentile(99);
    if (d.sketched) {
        d.relative_error = s.sketch().relativeError();
    }
    return d;
}

uint64_t
RunArtifact::fingerprint() const
{
    // Chain in declaration order with the same non-commutative mix the
    // seq≡par tests pin fold order with; any reordering or value change
    // in a deterministic field changes the digest.
    uint64_t fp = QuantileSketch::chainFingerprint(0, strHash(workload));
    fp = QuantileSketch::chainFingerprint(fp, nodes);
    fp = QuantileSketch::chainFingerprint(fp, doubleBits(elapsed_us));
    fp = QuantileSketch::chainFingerprint(fp, doubleBits(goodput_mbps));
    fp = QuantileSketch::chainFingerprint(fp, requests_completed);
    for (const auto &[name, d] : latencies) {
        fp = QuantileSketch::chainFingerprint(fp, strHash(name));
        fp = QuantileSketch::chainFingerprint(fp, d.fingerprint);
    }
    for (const CounterGroup &g : groups) {
        if (!g.deterministic) {
            continue;
        }
        fp = QuantileSketch::chainFingerprint(fp, strHash(g.name));
        for (const auto &[name, v] : g.counters) {
            fp = QuantileSketch::chainFingerprint(fp, strHash(name));
            fp = QuantileSketch::chainFingerprint(fp, v);
        }
    }
    // Pool makes/returns are event-driven and engine-independent; the
    // recycle/heap split and high water are wall-clock artifacts, and
    // per-partition event counts differ single-vs-sharded — excluded.
    for (const PartitionRow &p : partition_rows) {
        fp = QuantileSketch::chainFingerprint(fp, p.pool_makes);
        fp = QuantileSketch::chainFingerprint(fp, p.pool_returns);
    }
    return fp;
}

std::vector<uint64_t>
RunArtifact::ledger() const
{
    std::vector<uint64_t> l{ledgerShape(*this)};
    forEachLedgerField(*this, [&l](uint64_t v) { l.push_back(v); });
    return l;
}

bool
RunArtifact::addLedger(const std::vector<uint64_t> &l)
{
    if (l.size() != ledger().size() || l[0] != ledgerShape(*this)) {
        return false;
    }
    size_t i = 1;
    forEachLedgerField(*this, [&l, &i](uint64_t &v) { v += l[i++]; });
    return true;
}

std::string
RunArtifact::toJson() const
{
    JsonWriter w(/*pretty=*/true);
    w.beginObject();
    w.field("schema", kSchemaVersion);
    w.field("workload", workload);
    w.field("status", status);
    if (!interrupt_cause.empty()) {
        w.field("interrupt_cause", interrupt_cause);
    }
    w.beginObject("engine");
    w.field("name", engine);
    w.field("threads_requested", threads_requested);
    w.field("partitions", partitions);
    w.field("workers", workers);
    if (cores != 0) {
        w.field("cores", cores);
        w.field("oversubscribed", oversubscribed);
    }
    if (!worker_cpus.empty()) {
        w.beginArray("worker_cpus");
        for (int cpu : worker_cpus) {
            w.value(static_cast<int64_t>(cpu));
        }
        w.endArray();
    }
    w.field("executed_events", executed_events);
    w.field("quanta", quanta);
    w.endObject();

    w.beginObject("results");
    w.field("nodes", nodes);
    w.field("elapsed_us", elapsed_us);
    w.field("goodput_mbps", goodput_mbps);
    w.field("requests_completed", requests_completed);
    w.endObject();

    w.beginObject("latencies");
    for (const auto &[name, d] : latencies) {
        w.beginObject(name);
        w.field("count", d.count);
        w.field("mean_us", d.mean);
        w.field("min_us", d.min);
        w.field("max_us", d.max);
        w.field("p50_us", d.p50);
        w.field("p90_us", d.p90);
        w.field("p95_us", d.p95);
        w.field("p99_us", d.p99);
        w.field("sketched", d.sketched);
        if (d.sketched) {
            w.field("relative_error", d.relative_error);
        }
        w.fieldHex("fingerprint", d.fingerprint);
        w.endObject();
    }
    w.endObject();

    w.beginObject("counters");
    for (const CounterGroup &g : groups) {
        w.beginObject(g.name);
        for (const auto &[name, v] : g.counters) {
            w.field(name, v);
        }
        w.endObject();
    }
    w.endObject();

    w.beginArray("partitions");
    for (const PartitionRow &p : partition_rows) {
        w.beginObject();
        w.field("events", p.events);
        w.field("pool_makes", p.pool_makes);
        w.field("pool_recycles", p.pool_recycles);
        w.field("pool_heap_allocs", p.pool_heap_allocs);
        w.field("pool_returns", p.pool_returns);
        w.field("pool_high_water", p.pool_high_water);
        w.endObject();
    }
    w.endArray();

    if (has_mem) {
        w.beginObject("mem");
        w.field("peak_rss_mb", peak_rss_mb);
        w.field("materialized_nodes", materialized_nodes);
        w.field("lazy_servers", lazy_servers);
        w.field("arena_bytes_used", arena_bytes_used);
        w.field("arena_bytes_reserved", arena_bytes_reserved);
        w.endObject();
    }

    if (!telemetry_path.empty()) {
        w.beginObject("telemetry");
        w.field("path", telemetry_path);
        w.field("period_us", telemetry_period_us);
        w.field("samples", telemetry_samples);
        w.endObject();
    }

    w.fieldHex("fingerprint", fingerprint());

    w.beginObject("config");
    for (const std::string &k : config.keys()) {
        w.field(k, config.getString(k, ""));
    }
    w.endObject();

    w.endObject();
    return w.str();
}

void
RunArtifact::writeJson(const std::string &path) const
{
    atomicWriteFile(path, toJson());
}

RunArtifact::Validation
RunArtifact::validate(const std::string &path)
{
    Validation v;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
        v.error = strprintf("cannot read '%s': %s", path.c_str(),
                            std::strerror(errno));
        return v;
    }
    std::string doc;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) != 0) {
        doc.append(buf, n);
    }
    std::fclose(f);

    // Whole-document check: our pretty writer always produces
    // "{...}\n".  A partial write (possible only for debris predating
    // atomic writes, or a foreign writer) fails here.
    size_t end = doc.find_last_not_of(" \t\r\n");
    if (doc.empty() || doc[0] != '{' || end == std::string::npos ||
        doc[end] != '}') {
        v.error = strprintf("'%s' is not a complete JSON object "
                            "(truncated write?)", path.c_str());
        return v;
    }

    // The value text after the first @p pat, up to the separator that
    // ends a JSON value on our writer's lines; empty when absent.
    auto after = [&doc](const std::string &pat) {
        const size_t p = doc.find(pat);
        if (p == std::string::npos) {
            return std::string();
        }
        const size_t start = p + pat.size();
        return doc.substr(start, doc.find_first_of(",\n}", start) - start);
    };
    auto unquote = [](const std::string &s) {
        return s.size() >= 2 && s.front() == '"' && s.back() == '"'
                   ? s.substr(1, s.size() - 2)
                   : std::string();
    };

    uint64_t schema = 0;
    if (parseUint(after("\"schema\": "), &schema) != nullptr) {
        v.error = strprintf("'%s' has no schema field", path.c_str());
        return v;
    }
    if (schema != kSchemaVersion) {
        v.error = strprintf("'%s' has schema %llu, expected %d",
                            path.c_str(),
                            static_cast<unsigned long long>(schema),
                            kSchemaVersion);
        return v;
    }

    // Artifacts predating the status field were only ever written on
    // run completion, so absence means "ok".
    v.status = unquote(after("\"status\": "));
    if (v.status.empty()) {
        v.status = "ok";
    }

    // The run fingerprint is the only one at top-level indentation.
    v.fingerprint = unquote(after("\n  \"fingerprint\": "));
    if (v.fingerprint.empty()) {
        v.error = strprintf("'%s' has no run fingerprint", path.c_str());
        return v;
    }
    if (v.status != "ok") {
        v.error = strprintf("'%s' is a partial artifact (status '%s')",
                            path.c_str(), v.status.c_str());
        return v;
    }

    // Headline results; the first latency digest is the headline one,
    // and a run may have none.
    const char *bad = nullptr;
    if (parseDouble(after("\"elapsed_us\": "), &v.elapsed_us) != nullptr) {
        bad = "elapsed_us";
    } else if (parseDouble(after("\"goodput_mbps\": "), &v.goodput_mbps) !=
               nullptr) {
        bad = "goodput_mbps";
    } else if (parseUint(after("\"requests_completed\": "),
                         &v.requests_completed) != nullptr) {
        bad = "requests_completed";
    } else if (doc.find("\"p99_us\": ") != std::string::npos &&
               parseDouble(after("\"p99_us\": "), &v.p99_us) != nullptr) {
        bad = "p99_us";
    }
    if (bad != nullptr) {
        v.error = strprintf("'%s' has no valid %s result", path.c_str(),
                            bad);
        return v;
    }
    v.ok = true;
    return v;
}

} // namespace analysis
} // namespace diablo
