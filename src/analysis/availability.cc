#include "analysis/availability.hh"

#include "analysis/report.hh"
#include "core/log.hh"

namespace diablo {
namespace analysis {

namespace {

/** splitmix64 finalizer: the mixing step of the fingerprint fold. */
uint64_t
mix(uint64_t h, uint64_t v)
{
    uint64_t x = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

uint64_t
mixString(uint64_t h, const std::string &s)
{
    h = mix(h, s.size());
    for (char c : s) {
        h = mix(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
    }
    return h;
}

} // namespace

void
AvailabilityReport::definePhase(const std::string &name, SimTime begin,
                                SimTime end)
{
    if (end < begin) {
        fatal("AvailabilityReport: phase '%s' ends before it begins",
              name.c_str());
    }
    Phase p;
    p.name = name;
    p.begin = begin;
    p.end = end;
    phases_.push_back(std::move(p));
}

void
AvailabilityReport::recordDelivery(SimTime at, uint64_t bytes)
{
    total_bytes_ += bytes;
    ++total_deliveries_;
    for (Phase &p : phases_) {
        if (at >= p.begin && at < p.end) {
            p.bytes += bytes;
            ++p.deliveries;
        }
    }
}

void
AvailabilityReport::setCounter(const std::string &name, uint64_t value)
{
    for (NamedCounter &c : counters_) {
        if (c.name == name) {
            c.value = value;
            return;
        }
    }
    counters_.push_back(NamedCounter{name, value});
}

double
AvailabilityReport::phaseGoodputMbps(size_t i) const
{
    const Phase &p = phases_[i];
    const double secs = (p.end - p.begin).toPs() / 1e12;
    if (secs <= 0) {
        return 0.0;
    }
    return static_cast<double>(p.bytes) * 8.0 / 1e6 / secs;
}

uint64_t
AvailabilityReport::counter(const std::string &name) const
{
    for (const NamedCounter &c : counters_) {
        if (c.name == name) {
            return c.value;
        }
    }
    return 0;
}

uint64_t
AvailabilityReport::fingerprint() const
{
    uint64_t h = 0x5D1AB10FA7157ULL;
    h = mix(h, phases_.size());
    for (const Phase &p : phases_) {
        h = mixString(h, p.name);
        h = mix(h, static_cast<uint64_t>(p.begin.toPs()));
        h = mix(h, static_cast<uint64_t>(p.end.toPs()));
        h = mix(h, p.bytes);
        h = mix(h, p.deliveries);
    }
    h = mix(h, counters_.size());
    for (const NamedCounter &c : counters_) {
        h = mixString(h, c.name);
        h = mix(h, c.value);
    }
    h = mix(h, total_bytes_);
    h = mix(h, total_deliveries_);
    return h;
}

std::string
AvailabilityReport::str() const
{
    Table t({"phase", "window_ms", "bytes", "deliveries", "goodput_mbps"});
    for (size_t i = 0; i < phases_.size(); ++i) {
        const Phase &p = phases_[i];
        t.addRow({p.name,
                  Table::cell("%.1f-%.1f", p.begin.toPs() / 1e9,
                              p.end.toPs() / 1e9),
                  Table::cell("%llu",
                              static_cast<unsigned long long>(p.bytes)),
                  Table::cell("%llu", static_cast<unsigned long long>(
                                          p.deliveries)),
                  Table::cell("%.2f", phaseGoodputMbps(i))});
    }
    std::string out = t.str();
    for (const NamedCounter &c : counters_) {
        out += strprintf("%-24s %llu\n", c.name.c_str(),
                         static_cast<unsigned long long>(c.value));
    }
    out += strprintf("fingerprint              %016llx\n",
                     static_cast<unsigned long long>(fingerprint()));
    return out;
}

} // namespace analysis
} // namespace diablo
