#include "sim/telemetry.hh"

#include "analysis/json_writer.hh"
#include "core/log.hh"
#include "sim/cluster.hh"

namespace diablo {
namespace sim {

TelemetryProbe::TelemetryProbe(Cluster &cluster, SimTime period,
                               std::string path)
    : cluster_(cluster), period_(period), next_due_(period),
      path_(std::move(path))
{
    if (!(SimTime() < period_)) {
        fatal("TelemetryProbe: period must be positive");
    }
    out_ = std::fopen(path_.c_str(), "w");
    if (out_ == nullptr) {
        fatal("TelemetryProbe: cannot open '%s' for writing",
              path_.c_str());
    }
}

TelemetryProbe::~TelemetryProbe()
{
    if (out_ != nullptr) {
        std::fclose(out_);
    }
}

void
TelemetryProbe::flush()
{
    if (out_ != nullptr) {
        std::fflush(out_);
    }
}

bool
TelemetryProbe::driveTo(SimTime until,
                        const std::function<bool(SimTime)> &run)
{
    for (;;) {
        const SimTime sub = next_due_ < until ? next_due_ : until;
        if (!run(sub)) {
            return false;
        }
        if (sub == next_due_) {
            sample(sub);
            next_due_ = next_due_ + period_;
        }
        if (sub == until) {
            return true;
        }
    }
}

void
TelemetryProbe::sample(SimTime t)
{
    AppStats app;
    if (sampler_) {
        sampler_(app);
    }

    uint64_t events = 0;
    for (const Simulator *p : cluster_.partitions()) {
        events += p->executedEvents();
    }

    uint64_t pool_makes = 0, pool_returns = 0;
    for (const Cluster::PoolStats &p : cluster_.poolStats()) {
        pool_makes += p.makes;
        pool_returns += p.returns;
    }
    const uint64_t materialized = cluster_.materializedServers();

    const double interval_s = period_.asSeconds();
    const uint64_t d_bytes = app.bytes - last_bytes_;
    const double goodput =
        interval_s > 0.0
            ? static_cast<double>(d_bytes) * 8.0 / interval_s / 1e6
            : 0.0;

    analysis::JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.field("sample", samples_);
    w.field("t_us", t.asMicros());
    w.field("requests_completed", app.requests_completed);
    w.field("d_requests", app.requests_completed - last_requests_);
    w.field("bytes", app.bytes);
    w.field("goodput_mbps", goodput);
    w.field("p99_us", app.p99_us);
    w.field("events", events);
    w.field("d_events", events - last_events_);
    w.field("pool_makes", pool_makes);
    w.field("pool_returns", pool_returns);
    w.field("materialized", materialized);
    w.field("d_materialized", materialized - last_materialized_);
    w.endObject();

    const std::string &row = w.str();
    if (std::fwrite(row.data(), 1, row.size(), out_) != row.size() ||
        std::fputc('\n', out_) == EOF) {
        fatal("TelemetryProbe: short write to '%s'", path_.c_str());
    }
    std::fflush(out_); // live stream: rows must be visible mid-run

    ++samples_;
    last_requests_ = app.requests_completed;
    last_bytes_ = app.bytes;
    last_events_ = events;
    last_materialized_ = materialized;
}

} // namespace sim
} // namespace diablo
