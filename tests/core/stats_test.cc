#include <gtest/gtest.h>

#include <cmath>

#include "core/stats.hh"

namespace diablo {
namespace {

TEST(Counter, IncAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(RunningStats, Moments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.record(x);
    }
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i) {
        s.record(i);
    }
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, PercentileSingleSample)
{
    SampleSet s;
    s.record(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(99.9), 42.0);
}

TEST(SampleSet, PercentileEmpty)
{
    SampleSet s;
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(SampleSet, CdfMonotone)
{
    SampleSet s;
    for (double x : {5.0, 1.0, 3.0, 3.0, 2.0}) {
        s.record(x);
    }
    auto cdf = s.cdf();
    ASSERT_EQ(cdf.size(), 4u); // duplicate 3.0 collapsed
    double prev_x = -1, prev_c = 0;
    for (const auto &p : cdf) {
        EXPECT_GT(p.x, prev_x);
        EXPECT_GT(p.cum, prev_c);
        prev_x = p.x;
        prev_c = p.cum;
    }
    EXPECT_DOUBLE_EQ(cdf.back().cum, 1.0);
    // 3.0 covers samples 1,2,3,3 -> cum 0.8.
    EXPECT_DOUBLE_EQ(cdf[2].x, 3.0);
    EXPECT_DOUBLE_EQ(cdf[2].cum, 0.8);
}

TEST(SampleSet, TailCdf)
{
    SampleSet s;
    for (int i = 1; i <= 1000; ++i) {
        s.record(i);
    }
    auto tail = s.tailCdf(95.0);
    ASSERT_FALSE(tail.empty());
    EXPECT_GE(tail.front().cum, 0.95);
    EXPECT_DOUBLE_EQ(tail.back().cum, 1.0);
    EXPECT_GE(tail.front().x, 950.0);
}

TEST(SampleSet, LogPmfMassSumsToOne)
{
    SampleSet s;
    for (double x : {10.0, 20.0, 100.0, 5000.0, 30.0, 15.0}) {
        s.record(x);
    }
    auto pmf = s.logPmf(4);
    double total = 0;
    for (const auto &b : pmf) {
        EXPECT_LT(b.lo, b.hi);
        total += b.mass;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SampleSet, Merge)
{
    SampleSet a, b;
    a.record(1.0);
    b.record(3.0);
    b.record(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(SampleSet, MergeKeepsSortedCacheValid)
{
    SampleSet a, b;
    for (double x : {5.0, 1.0, 9.0}) {
        a.record(x);
    }
    for (double x : {4.0, 2.0, 8.0}) {
        b.record(x);
    }
    // Query both so the sorted caches exist, then merge: the fast path
    // must keep the cache valid and the order statistics exact.
    EXPECT_DOUBLE_EQ(a.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(b.percentile(50), 4.0);
    EXPECT_TRUE(a.sortedCacheValid());
    EXPECT_TRUE(b.sortedCacheValid());
    a.merge(b);
    EXPECT_TRUE(a.sortedCacheValid());
    EXPECT_EQ(a.count(), 6u);
    EXPECT_DOUBLE_EQ(a.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(a.percentile(100), 9.0);
    EXPECT_DOUBLE_EQ(a.percentile(50), 4.5);

    // An un-queried right-hand side cannot use the fast path but must
    // still merge correctly.
    SampleSet c, d;
    c.record(1.0);
    (void)c.percentile(50);
    d.record(0.5);
    EXPECT_FALSE(d.sortedCacheValid());
    c.merge(d);
    EXPECT_DOUBLE_EQ(c.percentile(0), 0.5);
    EXPECT_EQ(c.count(), 2u);
}

TEST(SampleSet, SelfMergeDoublesSamples)
{
    SampleSet a;
    a.record(1.0);
    a.record(3.0);
    (void)a.percentile(50);
    a.merge(a);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.percentile(100), 3.0);
}

TEST(QuantileSketch, PercentileWithinRelativeError)
{
    QuantileSketch s;
    for (int i = 1; i <= 10000; ++i) {
        s.record(static_cast<double>(i));
    }
    EXPECT_EQ(s.count(), 10000u);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 10000.0);
    EXPECT_NEAR(s.mean(), 5000.5, 1e-9);
    const double err = s.relativeError();
    for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
        const double exact = std::ceil(p / 100.0 * 10000.0);
        EXPECT_NEAR(s.percentile(p), exact, exact * 2.0 * err + 1.0)
            << "p=" << p;
    }
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 10000.0);
}

TEST(QuantileSketch, MergeMatchesSingleSketch)
{
    QuantileSketch a, b, whole;
    for (int i = 0; i < 5000; ++i) {
        const double x = 0.5 + i * 3.25;
        whole.record(x);
        (i % 2 ? a : b).record(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_EQ(a.fingerprint(), whole.fingerprint());
    EXPECT_DOUBLE_EQ(a.percentile(99), whole.percentile(99));
}

TEST(QuantileSketch, FingerprintAssociationInvariant)
{
    // Equal multisets must fingerprint equally for any merge
    // association/commutation...
    QuantileSketch ab, ba, a, b;
    for (double x : {1.0, 2.0, 400.0, 1e7}) {
        a.record(x);
    }
    for (double x : {3.0, 0.001, 900.0}) {
        b.record(x);
    }
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.fingerprint(), ba.fingerprint());

    // ...while the chained fold digest is order-sensitive: a parallel
    // engine that folded partitions in a different order is caught.
    const uint64_t fa = a.fingerprint();
    const uint64_t fb = b.fingerprint();
    uint64_t chain_ab = QuantileSketch::chainFingerprint(0, fa);
    chain_ab = QuantileSketch::chainFingerprint(chain_ab, fb);
    uint64_t chain_ba = QuantileSketch::chainFingerprint(0, fb);
    chain_ba = QuantileSketch::chainFingerprint(chain_ba, fa);
    EXPECT_NE(chain_ab, chain_ba);
}

TEST(QuantileSketch, OutOfRangeClampsToObservedExtremes)
{
    QuantileSketch s;
    s.record(-5.0);              // underflow
    s.record(1.0);
    s.record(1e30);              // beyond the top octave: overflow
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), 1e30);
    EXPECT_DOUBLE_EQ(s.percentile(0), -5.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 1e30);
}

TEST(QuantileSketch, MemoryIsFixedAndLazy)
{
    QuantileSketch s;
    EXPECT_EQ(s.memoryBytes(), 0u); // no counters until first record
    s.record(1.0);
    const size_t bytes = s.memoryBytes();
    EXPECT_GT(bytes, 0u);
    EXPECT_LT(bytes, 32u * 1024u);
    for (int i = 0; i < 100000; ++i) {
        s.record(i * 0.7);
    }
    EXPECT_EQ(s.memoryBytes(), bytes); // independent of sample count
}

TEST(LatencyStat, RawModeBehavesLikeSampleSet)
{
    LatencyStat s;
    EXPECT_EQ(s.mode(), LatencyStat::Mode::Raw);
    for (double x : {4.0, 1.0, 9.0, 2.0}) {
        s.record(x);
    }
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
    EXPECT_EQ(s.raw().size(), 4u);          // inherited raw-mode view
    EXPECT_EQ(s.samples().count(), 4u);
    // Reference binding to the base class keeps working (harness code
    // passes LatencyStat to SampleSet-taking helpers).
    const SampleSet &base = s;
    EXPECT_EQ(base.count(), 4u);
}

TEST(LatencyStat, SketchModeDispatchAndMerge)
{
    LatencyStat a, b;
    a.enableSketch();
    b.enableSketch();
    for (int i = 1; i <= 1000; ++i) {
        (i % 2 ? a : b).record(static_cast<double>(i));
    }
    a.merge(b);
    EXPECT_TRUE(a.sketched());
    EXPECT_EQ(a.count(), 1000u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 1000.0);
    EXPECT_NEAR(a.percentile(50), 500.0, 500.0 * 0.05);
    EXPECT_EQ(a.sketch().count(), 1000u);

    // Same multiset recorded into one sketched stat: same fingerprint.
    LatencyStat whole;
    whole.enableSketch();
    for (int i = 1; i <= 1000; ++i) {
        whole.record(static_cast<double>(i));
    }
    EXPECT_EQ(a.fingerprint(), whole.fingerprint());
}

} // namespace
} // namespace diablo
