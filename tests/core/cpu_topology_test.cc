/**
 * @file
 * The engine's CPU set and thread pinning: allowedCpus() follows the
 * calling thread's affinity mask, and the pin/save/restore round trip
 * the worker pool performs leaves the caller's mask as it found it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cpu_topology.hh"

namespace {

TEST(CpuTopologyTest, PinSaveRestoreRoundTrip)
{
#ifdef __linux__
    const diablo::SavedAffinity home = diablo::saveCurrentThreadAffinity();
    ASSERT_TRUE(home.valid);
    const int cpu = diablo::allowedCpus().front();
    EXPECT_TRUE(diablo::pinCurrentThreadToCpu(cpu));
    // Restoring must widen the mask back; a second save sees validity.
    diablo::restoreCurrentThreadAffinity(home);
    const diablo::SavedAffinity again = diablo::saveCurrentThreadAffinity();
    EXPECT_TRUE(again.valid);
    EXPECT_EQ(again.mask, home.mask);
    // Pinning to an absurd cpu id fails without changing the mask.
    EXPECT_FALSE(diablo::pinCurrentThreadToCpu(-1));
#else
    GTEST_SKIP() << "affinity control is Linux-only";
#endif
}

TEST(CpuTopologyTest, AllowedCpusFollowsTheThreadMask)
{
#ifdef __linux__
    const std::vector<int> all = diablo::allowedCpus();
    ASSERT_FALSE(all.empty());
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    const diablo::SavedAffinity home = diablo::saveCurrentThreadAffinity();
    ASSERT_TRUE(diablo::pinCurrentThreadToCpu(all.back()));
    EXPECT_EQ(diablo::allowedCpus(), (std::vector<int>{all.back()}));
    diablo::restoreCurrentThreadAffinity(home);
    EXPECT_EQ(diablo::allowedCpus(), all);
#else
    GTEST_SKIP() << "affinity control is Linux-only";
#endif
}

} // namespace
