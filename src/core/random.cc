#include "core/random.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

#include "core/log.hh"

namespace diablo {

namespace {

/** SplitMix64: used to expand seeds and hash labels. */
uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

uint64_t
hashBytes(const char *data, size_t n)
{
    // FNV-1a, then one splitmix round for avalanche.
    uint64_t h = 0xCBF29CE484222325ULL;
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<uint8_t>(data[i]);
        h *= 0x100000001B3ULL;
    }
    return splitmix64(h);
}

constexpr uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed) : seed_(seed)
{
    uint64_t sm = seed;
    for (auto &s : s_) {
        s = splitmix64(sm);
    }
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

Rng
Rng::fork(std::string_view label) const
{
    return Rng(seed_ ^ hashBytes(label.data(), label.size()));
}

Rng
Rng::fork(uint64_t id) const
{
    uint64_t sm = id + 0xA24BAED4963EE407ULL;
    return Rng(seed_ ^ splitmix64(sm));
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t lo, uint64_t hi)
{
    if (lo > hi) {
        panic("Rng::uniformInt: lo > hi");
    }
    const uint64_t range = hi - lo + 1;
    if (range == 0) {
        return next(); // full 64-bit range
    }
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + v % range;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    // -mean * ln(1 - U); 1-U avoids ln(0).
    return -mean * std::log(1.0 - uniform());
}

double
Rng::normal(double mean, double stddev)
{
    // Box-Muller without caching the second variate, so each call
    // consumes a fixed number of generator outputs (determinism under
    // interleaving).
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    return mean + stddev * z;
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::pareto(double xm, double alpha)
{
    return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
}

double
Rng::generalizedPareto(double location, double scale, double shape)
{
    double u = 1.0 - uniform();
    if (shape == 0.0) {
        return location - scale * std::log(u);
    }
    return location + scale * (std::pow(u, -shape) - 1.0) / shape;
}

namespace {

std::shared_ptr<const std::vector<double>>
zipfCdf(size_t n, double skew)
{
    // Keyed by the skew's bit pattern: two samplers share a table only
    // when they would have computed the identical one.  Entries are
    // weak, so a table lives exactly as long as some sampler uses it.
    static std::mutex mu;
    static std::map<std::pair<size_t, uint64_t>,
                    std::weak_ptr<const std::vector<double>>>
        cache;
    uint64_t skew_bits = 0;
    std::memcpy(&skew_bits, &skew, sizeof(skew_bits));
    std::lock_guard<std::mutex> lk(mu);
    std::weak_ptr<const std::vector<double>> &slot =
        cache[{n, skew_bits}];
    if (auto cdf = slot.lock()) {
        return cdf;
    }
    auto cdf = std::make_shared<std::vector<double>>(n);
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), skew);
        (*cdf)[i] = acc;
    }
    for (auto &v : *cdf) {
        v /= acc;
    }
    slot = cdf;
    return cdf;
}

} // namespace

ZipfSampler::ZipfSampler(size_t n, double skew)
{
    if (n == 0) {
        fatal("ZipfSampler: empty domain");
    }
    cdf_ = zipfCdf(n, skew);
}

size_t
ZipfSampler::sample(Rng &rng) const
{
    double u = rng.uniform();
    auto it = std::lower_bound(cdf_->begin(), cdf_->end(), u);
    if (it == cdf_->end()) {
        return cdf_->size() - 1;
    }
    return static_cast<size_t>(it - cdf_->begin());
}

} // namespace diablo
