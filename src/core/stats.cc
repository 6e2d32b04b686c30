#include "core/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "core/log.hh"

namespace diablo {

void
RunningStats::record(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
    if (n_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
SampleSet::record(double x)
{
    samples_.push_back(x);
    sorted_valid_ = false;
}

double
SampleSet::mean() const
{
    if (samples_.empty()) {
        return 0.0;
    }
    double s = 0;
    for (double x : samples_) {
        s += x;
    }
    return s / static_cast<double>(samples_.size());
}

double
SampleSet::min() const
{
    ensureSorted();
    return sorted_.empty() ? 0.0 : sorted_.front();
}

double
SampleSet::max() const
{
    ensureSorted();
    return sorted_.empty() ? 0.0 : sorted_.back();
}

void
SampleSet::ensureSorted() const
{
    if (!sorted_valid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_valid_ = true;
    }
}

double
SampleSet::percentile(double p) const
{
    ensureSorted();
    if (sorted_.empty()) {
        return 0.0;
    }
    if (p <= 0) {
        return sorted_.front();
    }
    if (p >= 100) {
        return sorted_.back();
    }
    double idx = p / 100.0 * static_cast<double>(sorted_.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    double frac = idx - static_cast<double>(lo);
    if (lo + 1 >= sorted_.size()) {
        return sorted_.back();
    }
    return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

std::vector<SampleSet::CdfPoint>
SampleSet::cdf() const
{
    ensureSorted();
    std::vector<CdfPoint> out;
    out.reserve(sorted_.size());
    const double n = static_cast<double>(sorted_.size());
    for (size_t i = 0; i < sorted_.size(); ++i) {
        // Collapse runs of equal values into one point.
        if (i + 1 < sorted_.size() && sorted_[i + 1] == sorted_[i]) {
            continue;
        }
        out.push_back({sorted_[i], static_cast<double>(i + 1) / n});
    }
    return out;
}

std::vector<SampleSet::CdfPoint>
SampleSet::tailCdf(double p_lo) const
{
    auto full = cdf();
    std::vector<CdfPoint> out;
    const double cut = p_lo / 100.0;
    for (const auto &pt : full) {
        if (pt.cum >= cut) {
            out.push_back(pt);
        }
    }
    return out;
}

std::vector<SampleSet::PmfBin>
SampleSet::logPmf(int bins_per_decade) const
{
    ensureSorted();
    std::vector<PmfBin> out;
    if (sorted_.empty()) {
        return out;
    }
    double lo = std::max(sorted_.front(), 1e-12);
    double hi = std::max(sorted_.back(), lo * 1.0000001);
    int first = static_cast<int>(
        std::floor(std::log10(lo) * bins_per_decade));
    int last = static_cast<int>(
        std::ceil(std::log10(hi) * bins_per_decade));
    int nbins = last - first + 1;
    std::vector<uint64_t> counts(static_cast<size_t>(nbins), 0);
    for (double x : sorted_) {
        double v = std::max(x, 1e-12);
        int b = static_cast<int>(
            std::floor(std::log10(v) * bins_per_decade)) - first;
        b = std::clamp(b, 0, nbins - 1);
        counts[static_cast<size_t>(b)]++;
    }
    const double n = static_cast<double>(sorted_.size());
    for (int b = 0; b < nbins; ++b) {
        double e_lo = static_cast<double>(first + b) / bins_per_decade;
        double e_hi = static_cast<double>(first + b + 1) / bins_per_decade;
        out.push_back({std::pow(10.0, e_lo), std::pow(10.0, e_hi),
                       static_cast<double>(counts[static_cast<size_t>(b)]) /
                           n});
    }
    return out;
}

void
SampleSet::merge(const SampleSet &other)
{
    // Note which caches are valid before mutating: self-merge aliases
    // other.samples_ / other.sorted_ with our own storage.
    const bool keep_sorted =
        sorted_valid_ && other.sorted_valid_ && this != &other;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    if (keep_sorted) {
        const size_t mid = sorted_.size();
        sorted_.insert(sorted_.end(), other.sorted_.begin(),
                       other.sorted_.end());
        std::inplace_merge(sorted_.begin(),
                           sorted_.begin() + static_cast<ptrdiff_t>(mid),
                           sorted_.end());
        return; // cache stays valid: no re-sort on the next query
    }
    sorted_valid_ = false;
}

// --- QuantileSketch -----------------------------------------------------

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    // Byte-wise FNV-1a over the value's 8 bytes.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
doubleBits(double d)
{
    uint64_t u;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

} // namespace

void
QuantileSketch::validate() const
{
    if (!(cfg_.unit > 0.0) || cfg_.sub_bits == 0 || cfg_.sub_bits > 16 ||
        cfg_.octaves == 0 || cfg_.octaves > 40) {
        fatal("QuantileSketch: invalid config (unit=%g sub_bits=%u "
              "octaves=%u)",
              cfg_.unit, cfg_.sub_bits, cfg_.octaves);
    }
}

void
QuantileSketch::ensureBins()
{
    if (bins_.empty()) {
        bins_.assign(numBins(), 0);
    }
}

size_t
QuantileSketch::binIndex(uint64_t u) const
{
    const uint64_t sub = 1ull << cfg_.sub_bits;
    if (u < 2 * sub) {
        return static_cast<size_t>(u); // first bucket: exact units
    }
    const int msb = 63 - __builtin_clzll(u);
    const int b = msb - static_cast<int>(cfg_.sub_bits); // >= 1
    const uint64_t s = u >> b;                           // [sub, 2*sub)
    return (static_cast<size_t>(b) + 1) * sub + (s - sub);
}

double
QuantileSketch::binLo(size_t idx) const
{
    const uint64_t sub = 1ull << cfg_.sub_bits;
    if (idx < 2 * sub) {
        return cfg_.unit * static_cast<double>(idx);
    }
    const size_t b = idx / sub - 1;
    const uint64_t s = sub + idx % sub;
    return cfg_.unit * static_cast<double>(s << b);
}

double
QuantileSketch::binHi(size_t idx) const
{
    const uint64_t sub = 1ull << cfg_.sub_bits;
    if (idx < 2 * sub) {
        return cfg_.unit * static_cast<double>(idx + 1);
    }
    const size_t b = idx / sub - 1;
    const uint64_t s = sub + idx % sub;
    return cfg_.unit * static_cast<double>((s + 1) << b);
}

void
QuantileSketch::record(double x)
{
    ensureBins();
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    if (x < 0.0) {
        ++underflow_;
        return;
    }
    // Truncating quantization is exact in IEEE arithmetic for the
    // representable range — no libm, so bucket choice is bit-stable.
    const uint64_t u = static_cast<uint64_t>(x / cfg_.unit);
    const size_t idx = binIndex(u);
    if (idx >= bins_.size()) {
        ++overflow_;
        return;
    }
    ++bins_[idx];
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    if (!(cfg_ == other.cfg_)) {
        fatal("QuantileSketch::merge: config mismatch (unit %g vs %g, "
              "sub_bits %u vs %u, octaves %u vs %u) — merged sketches "
              "must share one bin layout",
              cfg_.unit, other.cfg_.unit, cfg_.sub_bits,
              other.cfg_.sub_bits, cfg_.octaves, other.cfg_.octaves);
    }
    if (other.count_ == 0) {
        return;
    }
    ensureBins();
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    if (!other.bins_.empty()) {
        for (size_t i = 0; i < bins_.size(); ++i) {
            bins_[i] += other.bins_[i];
        }
    }
}

double
QuantileSketch::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
QuantileSketch::percentile(double p) const
{
    if (count_ == 0) {
        return 0.0;
    }
    const double clamped = std::clamp(p, 0.0, 100.0);
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(count_)));
    rank = std::clamp<uint64_t>(rank, 1, count_);

    // The extreme ranks are tracked exactly, so return them exactly
    // rather than through bucket interpolation: p=0 is the observed
    // minimum, p=100 the observed maximum.
    if (rank == 1) {
        return min_;
    }
    if (rank == count_) {
        return max_;
    }

    uint64_t acc = underflow_;
    if (rank <= acc) {
        return min_; // negative samples: exact observed minimum
    }
    for (size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] == 0) {
            continue;
        }
        if (rank <= acc + bins_[i]) {
            const double frac =
                static_cast<double>(rank - acc) /
                static_cast<double>(bins_[i]);
            const double v =
                binLo(i) + (binHi(i) - binLo(i)) * frac;
            return std::clamp(v, min_, max_);
        }
        acc += bins_[i];
    }
    return max_; // overflow mass: exact observed maximum
}

uint64_t
QuantileSketch::fingerprint() const
{
    uint64_t h = kFnvOffset;
    h = fnvMix(h, doubleBits(cfg_.unit));
    h = fnvMix(h, cfg_.sub_bits);
    h = fnvMix(h, cfg_.octaves);
    h = fnvMix(h, count_);
    h = fnvMix(h, underflow_);
    h = fnvMix(h, overflow_);
    h = fnvMix(h, doubleBits(min_));
    h = fnvMix(h, doubleBits(max_));
    h = fnvMix(h, doubleBits(sum_));
    for (size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] != 0) {
            h = fnvMix(h, i);
            h = fnvMix(h, bins_[i]);
        }
    }
    return h;
}

uint64_t
QuantileSketch::chainFingerprint(uint64_t chain, uint64_t fp)
{
    // splitmix64 of (chain ^ rotated fp): mixing the rotated operand
    // breaks commutativity, the avalanche breaks associativity.
    uint64_t z = chain ^ (fp << 1 | fp >> 63) ^ 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// --- LatencyStat --------------------------------------------------------

void
LatencyStat::enableSketch(const QuantileSketch::Config &cfg)
{
    if (SampleSet::count() != 0 || sketch_.count() != 0) {
        fatal("LatencyStat: enableSketch after samples were recorded");
    }
    mode_ = Mode::Sketch;
    sketch_ = QuantileSketch(cfg);
}

void
LatencyStat::record(double x)
{
    if (mode_ == Mode::Sketch) {
        sketch_.record(x);
    } else {
        SampleSet::record(x);
    }
}

void
LatencyStat::merge(const LatencyStat &other)
{
    if (mode_ != other.mode_) {
        fatal("LatencyStat::merge: raw/sketch mode mismatch");
    }
    if (mode_ == Mode::Sketch) {
        sketch_.merge(other.sketch_);
    } else {
        SampleSet::merge(other);
    }
}

size_t
LatencyStat::count() const
{
    return mode_ == Mode::Sketch
               ? static_cast<size_t>(sketch_.count())
               : SampleSet::count();
}

double
LatencyStat::mean() const
{
    return mode_ == Mode::Sketch ? sketch_.mean() : SampleSet::mean();
}

double
LatencyStat::min() const
{
    return mode_ == Mode::Sketch ? sketch_.min() : SampleSet::min();
}

double
LatencyStat::max() const
{
    return mode_ == Mode::Sketch ? sketch_.max() : SampleSet::max();
}

double
LatencyStat::percentile(double p) const
{
    return mode_ == Mode::Sketch ? sketch_.percentile(p)
                                 : SampleSet::percentile(p);
}

const SampleSet &
LatencyStat::samples() const
{
    if (mode_ == Mode::Sketch) {
        fatal("LatencyStat: raw samples were not retained in sketch "
              "mode (cdf/pmf/raw need the default raw mode)");
    }
    return *this;
}

const QuantileSketch &
LatencyStat::sketch() const
{
    if (mode_ != Mode::Sketch) {
        fatal("LatencyStat: sketch() on a raw-mode stat");
    }
    return sketch_;
}

uint64_t
LatencyStat::fingerprint() const
{
    if (mode_ == Mode::Sketch) {
        return sketch_.fingerprint();
    }
    uint64_t h = kFnvOffset;
    h = fnvMix(h, SampleSet::count());
    for (double x : raw()) {
        h = fnvMix(h, doubleBits(x));
    }
    return h;
}

} // namespace diablo
