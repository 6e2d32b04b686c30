#ifndef DIABLO_CORE_STATS_HH_
#define DIABLO_CORE_STATS_HH_

/**
 * @file
 * Statistics collection: counters, sample sets with percentile/CDF/PMF
 * extraction, and log-binned histograms.
 *
 * DIABLO is "fully instrumented"; every model in this repo exposes its
 * behaviour through these types, and the bench harnesses turn them into
 * the paper's tables and figures.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace diablo {

/** Monotonically increasing event count. */
class Counter {
  public:
    Counter() = default;

    void inc(uint64_t by = 1) { value_ += by; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/**
 * Stores every recorded sample and answers distribution queries.
 *
 * Sorting is cached and invalidated on insert, so repeated percentile
 * queries after a run are cheap.
 */
class SampleSet {
  public:
    void record(double x);
    void reserve(size_t n) { samples_.reserve(n); }

    size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }
    double mean() const;
    double min() const;
    double max() const;

    /** p in [0, 100]; linear interpolation between order statistics. */
    double percentile(double p) const;

    /**
     * CDF evaluation points: for each sample value x (sorted), the
     * fraction of samples <= x.  Suitable for plotting the paper's
     * latency CDFs.
     */
    struct CdfPoint { double x; double cum; };
    std::vector<CdfPoint> cdf() const;

    /**
     * CDF restricted to the [p_lo, 100] percentile range, as used by the
     * paper's 95th-100th percentile tail plots (Figure 11).
     */
    std::vector<CdfPoint> tailCdf(double p_lo) const;

    /**
     * Probability mass over logarithmically spaced bins (base-10, with
     * @p bins_per_decade subdivisions), as in the paper's Figure 10 PMF.
     */
    struct PmfBin { double lo; double hi; double mass; };
    std::vector<PmfBin> logPmf(int bins_per_decade = 4) const;

    const std::vector<double> &raw() const { return samples_; }

    /**
     * Merge another sample set into this one.  When both sides' sorted
     * caches are valid the merged cache is produced with
     * std::inplace_merge and *stays* valid — folding K already-queried
     * per-client sets costs O(n·K) instead of a fresh O(n·K log n·K)
     * sort on the next percentile query.
     */
    void merge(const SampleSet &other);

    /** True when the next distribution query will not pay a sort. */
    bool sortedCacheValid() const { return sorted_valid_; }

  private:
    void ensureSorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_ = false;
};

/**
 * Fixed-memory deterministic quantile sketch (HDR-histogram style).
 *
 * Values are quantized to integer units of `cfg.unit` and counted in
 * log2 buckets subdivided into `1 << sub_bits` linear subbuckets, so
 * relative quantization error is bounded by 2^-sub_bits (1.6% at the
 * default 6) above the exact-resolution first bucket.  The whole sketch
 * is a flat array of counters: memory is fixed by the Config (≈15 KB at
 * the defaults), independent of how many samples are recorded — the
 * paper-scale replacement for retaining every sample in a SampleSet.
 *
 * Determinism: record() and merge() are pure integer-counter updates
 * (bucket indices are computed from the binary representation, no
 * libm), so merging per-partition sketches yields bit-identical bins
 * for any association of the same multiset, and fingerprint() is a
 * deterministic digest of configuration + bins + exact min/max/sum.
 * Fold *order* is made observable with chainFingerprint(), which the
 * seq≡par tests use to pin partition-ordered folds.
 */
class QuantileSketch {
  public:
    struct Config {
        /** Absolute resolution of the exact first bucket. */
        double unit = 0.125;
        /** log2(subbuckets per octave); relative error = 2^-sub_bits. */
        uint32_t sub_bits = 6;
        /** Octaves above the first bucket; caps the tracked range at
         *  unit * 2^(sub_bits + octaves + 1). */
        uint32_t octaves = 28;

        bool operator==(const Config &o) const
        {
            return unit == o.unit && sub_bits == o.sub_bits &&
                   octaves == o.octaves;
        }
    };

    QuantileSketch() = default;
    explicit QuantileSketch(const Config &cfg) : cfg_(cfg) { validate(); }

    void record(double x);

    /** Commutative counter merge; fatal when the configs differ. */
    void merge(const QuantileSketch &other);

    uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }
    double mean() const;
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * p in [0, 100].  Rank semantics: the value of the r-th smallest
     * recorded sample, r = clamp(ceil(p/100 * count), 1, count), linearly
     * interpolated inside its bucket and clamped to the exact observed
     * [min, max].  Deterministic: depends only on the bins.
     */
    double percentile(double p) const;

    /** Bound on relative quantization error above the first bucket. */
    double relativeError() const { return 1.0 / (1u << cfg_.sub_bits); }

    const Config &config() const { return cfg_; }

    /** Counter storage bytes (0 until the first record/merge). */
    size_t memoryBytes() const { return bins_.size() * sizeof(uint64_t); }

    /**
     * Deterministic digest of config + non-empty bins + count and the
     * bit patterns of min/max/sum.  Equal multisets of samples produce
     * equal fingerprints regardless of merge association.
     */
    uint64_t fingerprint() const;

    /**
     * Order-sensitive fold: chain' = mix(chain, fp).  Non-commutative
     * and non-associative by construction, so folding per-partition
     * fingerprints in partition order yields a digest that changes if
     * any engine reorders the fold — how the seq≡par tests catch a
     * non-deterministic aggregation path.
     */
    static uint64_t chainFingerprint(uint64_t chain, uint64_t fp);

  private:
    void validate() const;
    void ensureBins(); ///< lazy: an unused sketch owns no counters
    size_t numBins() const
    {
        return (static_cast<size_t>(cfg_.octaves) + 1)
               << cfg_.sub_bits;
    }
    size_t binIndex(uint64_t u) const;
    double binLo(size_t idx) const;
    double binHi(size_t idx) const;

    Config cfg_;
    std::vector<uint64_t> bins_;
    uint64_t count_ = 0;
    uint64_t underflow_ = 0; ///< negative values (clamped to min())
    uint64_t overflow_ = 0;  ///< beyond the top octave (clamped to max())
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * A latency accumulator that is either a raw SampleSet (the default —
 * retains every sample for figure-quality CDFs/PMFs at small scale) or
 * a fixed-memory QuantileSketch (paper-scale runs, where retaining
 * every sample and sorting at fold time are the measured scale
 * killers).  Publicly derives from SampleSet so raw-mode call sites
 * (cdf(), logPmf(), raw(), reference bindings) keep working unchanged;
 * the shadowing accessors dispatch on the mode.  Raw-only queries on a
 * sketched stat are fatal — the samples were never retained.
 */
class LatencyStat : public SampleSet {
  public:
    enum class Mode { Raw, Sketch };

    LatencyStat() = default;

    /** Switch to sketch mode; must be called before the first record. */
    void enableSketch(const QuantileSketch::Config &cfg =
                          QuantileSketch::Config());

    Mode mode() const { return mode_; }
    bool sketched() const { return mode_ == Mode::Sketch; }

    void record(double x);

    /** Mode must match on both sides (fatal otherwise). */
    void merge(const LatencyStat &other);

    size_t count() const;
    bool empty() const { return count() == 0; }
    double mean() const;
    double min() const;
    double max() const;
    double percentile(double p) const;

    /** Raw-mode view (fatal when sketched: samples were not retained). */
    const SampleSet &samples() const;

    /** Sketch-mode view (fatal in raw mode). */
    const QuantileSketch &sketch() const;

    /**
     * Deterministic digest: the sketch fingerprint when sketched, an
     * insertion-order hash of the raw samples otherwise.
     */
    uint64_t fingerprint() const;

  private:
    Mode mode_ = Mode::Raw;
    QuantileSketch sketch_;
};

} // namespace diablo

#endif // DIABLO_CORE_STATS_HH_
