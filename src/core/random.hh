#ifndef DIABLO_CORE_RANDOM_HH_
#define DIABLO_CORE_RANDOM_HH_

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * DIABLO supports "repeatable deterministic experiments"; to keep that
 * property in software we avoid std:: distributions (whose outputs are
 * implementation-defined) and implement both the generator (xoshiro256++)
 * and every distribution ourselves.  Each component derives its own
 * statistically independent stream from a master seed via fork(), so
 * adding a component never perturbs the draws seen by another.
 */

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace diablo {

/** xoshiro256++ generator with our own distribution implementations. */
class Rng {
  public:
    /**
     * Seed via SplitMix64 expansion of @p seed.  The seed is always
     * explicit: a defaulted seed let two components silently draw the
     * same stream, which destroys the independence fork() guarantees.
     * Derive per-component streams with fork("name") instead.
     */
    explicit Rng(uint64_t seed);

    /** Next raw 64-bit output. */
    uint64_t next();

    /**
     * Derive an independent child stream.  The child's seed mixes this
     * stream's seed with a hash of @p label, so streams are stable under
     * reordering of fork() calls with distinct labels.
     */
    Rng fork(std::string_view label) const;

    /** Derive an independent child stream keyed by an integer id. */
    Rng fork(uint64_t id) const;

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t uniformInt(uint64_t lo, uint64_t hi);

    /** Bernoulli trial with probability @p p of true. */
    bool bernoulli(double p);

    /** Exponential with the given mean. */
    double exponential(double mean);

    /** Standard normal via Box-Muller (deterministic, no cached spare). */
    double normal(double mean, double stddev);

    /** Log-normal with the given parameters of the underlying normal. */
    double lognormal(double mu, double sigma);

    /**
     * Pareto (type I): xm * U^(-1/alpha).  Heavy-tailed; used for the
     * Facebook key-value size model.
     */
    double pareto(double xm, double alpha);

    /** Generalized Pareto with location/scale/shape (Atikoglu et al.). */
    double generalizedPareto(double location, double scale, double shape);

    uint64_t seed() const { return seed_; }

  private:
    uint64_t seed_;
    uint64_t s_[4];
};

/**
 * Zipf-distributed integer sampler over [0, n).
 *
 * Precomputes the CDF, so sampling is O(log n); used for key
 * popularity in the memcached workload generator.  The CDF is
 * immutable and shared process-wide: every sampler with the same
 * (n, skew) holds the same table, so a 1,984-node array of clients
 * pays for one 160 KB table instead of one per client.
 */
class ZipfSampler {
  public:
    ZipfSampler(size_t n, double skew);

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    size_t sample(Rng &rng) const;

    size_t size() const { return cdf_->size(); }

  private:
    std::shared_ptr<const std::vector<double>> cdf_;
};

} // namespace diablo

#endif // DIABLO_CORE_RANDOM_HH_
