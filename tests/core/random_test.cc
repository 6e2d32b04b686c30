#include <gtest/gtest.h>

#include <cmath>

#include "core/random.hh"

namespace diablo {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsStableAndIndependent)
{
    Rng master(7);
    Rng a1 = master.fork("nic");
    Rng a2 = master.fork("nic");
    Rng b = master.fork("switch");
    EXPECT_EQ(a1.next(), a2.next());
    EXPECT_NE(Rng(7).fork("nic").seed(), b.seed());
    // Forking doesn't consume master state.
    Rng master2(7);
    master2.fork("x");
    EXPECT_EQ(master.next(), master2.next());
}

TEST(Rng, ForkById)
{
    Rng master(7);
    EXPECT_EQ(master.fork(uint64_t{3}).seed(),
              master.fork(uint64_t{3}).seed());
    EXPECT_NE(master.fork(uint64_t{3}).seed(),
              master.fork(uint64_t{4}).seed());
}

TEST(Rng, UniformRange)
{
    Rng r(123);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanApproximatelyHalf)
{
    Rng r(99);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += r.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.uniformInt(3, 7);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 7u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 7);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += r.exponential(250.0);
    }
    EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, NormalMoments)
{
    Rng r(13);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double x = r.normal(10.0, 2.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ParetoIsHeavyTailedAndBounded)
{
    Rng r(17);
    double mx = 0;
    for (int i = 0; i < 100000; ++i) {
        double x = r.pareto(100.0, 1.5);
        ASSERT_GE(x, 100.0);
        mx = std::max(mx, x);
    }
    // With 100k draws and alpha=1.5, the max should far exceed xm.
    EXPECT_GT(mx, 10000.0);
}

TEST(Rng, GeneralizedParetoShapeZeroIsExponential)
{
    Rng r(19);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += r.generalizedPareto(0.0, 100.0, 0.0);
    }
    EXPECT_NEAR(sum / n, 100.0, 2.5);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        hits += r.bernoulli(0.3);
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedChoice)
{
    Rng r(29);
    std::vector<double> w = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        counts[r.weightedChoice(w)]++;
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(ZipfSampler, RankZeroMostPopular)
{
    Rng r(31);
    ZipfSampler z(1000, 0.99);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i) {
        counts[z.sample(r)]++;
    }
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[500]);
}

TEST(ZipfSampler, CoversDomain)
{
    Rng r(37);
    ZipfSampler z(4, 0.5);
    bool seen[4] = {false, false, false, false};
    for (int i = 0; i < 10000; ++i) {
        seen[z.sample(r)] = true;
    }
    for (bool s : seen) {
        EXPECT_TRUE(s);
    }
}

TEST(ZipfSampler, GoldenDraws)
{
    // Pins the first 1,000 draws of the memcached key-popularity
    // sampler, so sharing or rebuilding the CDF table can never shift
    // a single key choice.
    Rng r(20150314);
    ZipfSampler z(20000, 0.99);
    const size_t head[16] = {115, 217, 422, 605,  0,     683,  22, 11,
                             11,  52,  2010, 1106, 1300, 15230, 5459, 5};
    uint64_t fnv = 1469598103934665603ULL;
    uint64_t sum = 0;
    for (size_t i = 0; i < 1000; ++i) {
        const size_t s = z.sample(r);
        if (i < 16) {
            EXPECT_EQ(s, head[i]) << "draw " << i;
        }
        sum += s;
        fnv = (fnv ^ s) * 1099511628211ULL;
    }
    EXPECT_EQ(sum, 1696442u);
    EXPECT_EQ(fnv, 0xd6db4951afd04a25ULL);
}

TEST(ZipfSampler, EqualParametersShareDraws)
{
    // Samplers built from the same (n, skew) — the shared-table case —
    // and from a different skew must each behave as if built alone.
    ZipfSampler a(20000, 0.99);
    ZipfSampler b(20000, 0.99);
    ZipfSampler c(20000, 0.5);
    EXPECT_EQ(a.size(), 20000u);
    EXPECT_EQ(c.size(), 20000u);
    Rng ra(5), rb(5), rc(5);
    bool differs = false;
    for (int i = 0; i < 1000; ++i) {
        const size_t sa = a.sample(ra);
        EXPECT_EQ(sa, b.sample(rb));
        differs = differs || sa != c.sample(rc);
    }
    EXPECT_TRUE(differs);
}

} // namespace
} // namespace diablo
