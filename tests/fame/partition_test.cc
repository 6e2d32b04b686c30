#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <numeric>
#include <thread>

#include "core/cpu_topology.hh"
#include "core/random.hh"
#include "fame/partition.hh"
#include "fame/transport.hh"

namespace diablo {
namespace fame {
namespace {

using namespace diablo::time_literals;

/**
 * Synthetic distributed workload: each partition hosts a "node" that,
 * upon receiving a token, does deterministic local work and forwards
 * tokens to its neighbours after a per-hop latency.  The global
 * checksum is order-sensitive, so any divergence in event interleaving
 * between engines changes it.
 */
struct RingWorkload {
    explicit RingWorkload(PartitionSet &ps, SimTime hop_latency,
                          int fanout = 2)
        : ps(ps)
    {
        const size_t n = ps.size();
        counters.assign(n, 0);
        checksums.assign(n, 0);
        channels.resize(n);
        for (size_t i = 0; i < n; ++i) {
            channels[i] = &ps.makeChannel(i, (i + 1) % n, hop_latency);
        }
        this->fanout = fanout;
        this->hop = hop_latency;
    }

    void
    inject(size_t part, uint64_t token, int ttl)
    {
        ps.partition(part).schedule(SimTime(), [this, part, token, ttl] {
            onToken(part, token, ttl);
        });
    }

    void
    onToken(size_t part, uint64_t token, int ttl)
    {
        Simulator &sim = ps.partition(part);
        counters[part]++;
        // Order-sensitive mixing of arrival time and token value.
        checksums[part] =
            checksums[part] * 1000003 +
            static_cast<uint64_t>(sim.now().toPs()) + token;
        if (ttl <= 0) {
            return;
        }
        for (int f = 0; f < fanout; ++f) {
            const uint64_t child = token * 7 + static_cast<uint64_t>(f);
            const SimTime when = sim.now() + hop + SimTime::ns(child % 97);
            const size_t dst = (part + 1) % ps.size();
            channels[part]->post(when, [this, dst, child, ttl] {
                onToken(dst, child, ttl - 1);
            });
        }
    }

    uint64_t
    globalChecksum() const
    {
        uint64_t h = 0;
        for (size_t i = 0; i < checksums.size(); ++i) {
            h = h * 16777619 + checksums[i] + counters[i];
        }
        return h;
    }

    PartitionSet &ps;
    std::vector<PartitionSet::Channel *> channels;
    std::vector<uint64_t> counters;
    std::vector<uint64_t> checksums;
    int fanout = 2;
    SimTime hop;
};

uint64_t
runWorkload(size_t parts, bool parallel, int ttl)
{
    PartitionSet ps(parts);
    RingWorkload w(ps, 1_us);
    for (size_t i = 0; i < parts; ++i) {
        w.inject(i, 1000 + i, ttl);
    }
    if (parallel) {
        ps.runParallel(1_sec);
    } else {
        ps.runSequential(1_sec);
    }
    return w.globalChecksum();
}

TEST(PartitionSet, QuantumIsMinChannelLatency)
{
    PartitionSet ps(3);
    ps.makeChannel(0, 1, 5_us);
    ps.makeChannel(1, 2, 2_us);
    ps.makeChannel(2, 0, 9_us);
    EXPECT_EQ(ps.quantum(), 2_us);
}

TEST(PartitionSet, SequentialMatchesParallelExactly)
{
    // The determinism property DIABLO guarantees across FPGAs: the
    // distributed engine must produce bit-identical results.
    for (size_t parts : {2u, 4u, 7u}) {
        uint64_t seq = runWorkload(parts, false, 12);
        uint64_t par = runWorkload(parts, true, 12);
        EXPECT_EQ(seq, par) << parts << " partitions";
    }
}

TEST(PartitionSet, ParallelIsRepeatable)
{
    uint64_t a = runWorkload(4, true, 12);
    uint64_t b = runWorkload(4, true, 12);
    EXPECT_EQ(a, b);
}

TEST(PartitionSet, WorkloadActuallyCrossesPartitions)
{
    PartitionSet ps(4);
    RingWorkload w(ps, 1_us);
    w.inject(0, 5, 6);
    ps.runSequential(1_sec);
    // Tokens hop 0 -> 1 -> 2 -> 3 ...; every partition saw traffic.
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_GT(w.counters[i], 0u) << "partition " << i;
    }
    // Fanout 2, ttl 6: 1 + 2 + 4 + ... + 64 = 127 token arrivals.
    uint64_t total = std::accumulate(w.counters.begin(), w.counters.end(),
                                     uint64_t{0});
    EXPECT_EQ(total, 127u);
}

TEST(PartitionSet, CausalityViolationPanics)
{
    PartitionSet ps(2);
    auto &ch = ps.makeChannel(0, 1, 10_us);
    ps.partition(0).schedule(5_us, [&] {
        // Posting into the past of the destination (latency ignored).
        ch.post(SimTime::us(1), [] {});
    });
    // Let partition 1 advance past 1 us first.
    ps.partition(1).schedule(8_us, [] {});
    EXPECT_DEATH(ps.runSequential(SimTime::us(100)),
                 "causality violation");
}

TEST(PartitionSet, PostBelowLookaheadPanicsAtPostTimeNamingChannel)
{
    // The conservative contract is validated when the message is
    // posted, against the *source* clock, not later at drain time —
    // and the diagnostic names the offending channel.
    PartitionSet ps(2);
    auto &ch = ps.makeChannel(0, 1, 10_us, "tor0.up");
    ps.partition(0).schedule(5_us, [&] {
        // when = now + 3us < now + 10us lookahead: lies about latency
        // even though it is in the destination's future.
        ch.post(SimTime::us(8), [] {});
    });
    EXPECT_DEATH(ps.runSequential(SimTime::us(100)),
                 "channel tor0.up.*violates conservative contract");
}

TEST(PartitionSet, PostExactlyAtLookaheadIsAccepted)
{
    // when == now + min_latency is the tightest legal post (a
    // cut-through ChannelLink hits this bound exactly).
    PartitionSet ps(2);
    auto &ch = ps.makeChannel(0, 1, 10_us);
    int delivered = 0;
    ps.partition(0).schedule(5_us, [&] {
        ch.post(SimTime::us(15), [&delivered] { ++delivered; });
    });
    ps.runSequential(SimTime::us(100));
    EXPECT_EQ(delivered, 1);
}

TEST(PartitionSet, NoChannelQuantumDefault)
{
    PartitionSet ps(2); // no channels: explicit, documented default
    EXPECT_EQ(ps.quantum(), PartitionSet::kNoChannelQuantum);
}

TEST(PartitionSet, QuantumSkippingPreservesDeterminism)
{
    // Clustered workload — bursts at t=0 and t=50ms separated by ~50k
    // idle 1 us quanta, exactly the shape quantum skipping accelerates.
    // Sequential, parallel, and unskipped runs must agree event-for-event.
    auto run = [](bool parallel, bool skip) {
        PartitionSet ps(4);
        RingWorkload w(ps, 1_us);
        for (size_t i = 0; i < 4; ++i) {
            w.inject(i, 1 + i, 8);
        }
        for (size_t i = 0; i < 4; ++i) {
            ps.partition(i).schedule(SimTime::ms(50), [&w, i] {
                w.onToken(i, 900 + i, 8);
            });
        }
        ps.setSkipIdleQuanta(skip);
        if (parallel) {
            ps.runParallel(SimTime::ms(60));
        } else {
            ps.runSequential(SimTime::ms(60));
        }
        struct Result {
            uint64_t checksum;
            uint64_t executed;
            uint64_t quanta;
        };
        return Result{w.globalChecksum(), ps.totalExecutedEvents(),
                      ps.quantaExecuted()};
    };

    const auto seq = run(false, true);
    const auto par = run(true, true);
    EXPECT_EQ(seq.checksum, par.checksum);
    EXPECT_EQ(seq.executed, par.executed);
    EXPECT_EQ(seq.quanta, par.quanta);

    // Skipping changes wall-clock only: same results, far fewer quanta.
    const auto noskip = run(false, false);
    EXPECT_EQ(seq.checksum, noskip.checksum);
    EXPECT_EQ(seq.executed, noskip.executed);
    EXPECT_LT(seq.quanta, noskip.quanta / 100);
}

TEST(PartitionSet, IndependentPartitionsRunToHorizon)
{
    PartitionSet ps(3); // no channels
    // The three events run concurrently on different workers, so the
    // shared counter must be atomic (model state is per-partition; this
    // cross-partition counter exists only to observe the test).
    std::atomic<int> fired{0};
    for (size_t i = 0; i < 3; ++i) {
        ps.partition(i).schedule(SimTime::ms(2), [&fired] { ++fired; });
    }
    ps.runParallel(SimTime::ms(5));
    EXPECT_EQ(fired.load(), 3);
}

TEST(PartitionSet, WorkerPoolIsReusedAcrossRuns)
{
    // Repeated runParallel calls reuse the same pooled workers (a
    // sharded cluster measured in windows would otherwise spawn
    // partitions+1 threads per window) and produce the same results as
    // the equivalent sequence of sequential windows.
    auto run = [](bool parallel) {
        PartitionSet ps(4);
        RingWorkload w(ps, 1_us);
        for (size_t i = 0; i < 4; ++i) {
            w.inject(i, 1000 + i, 10);
        }
        for (int window = 1; window <= 5; ++window) {
            const SimTime until = SimTime::ms(window);
            if (parallel) {
                ps.runParallel(until);
            } else {
                ps.runSequential(until);
            }
        }
        return std::pair(w.globalChecksum(), ps.quantaExecuted());
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(PartitionSet, PerRunStatsAreDeltas)
{
    PartitionSet ps(2);
    RingWorkload w(ps, 1_us);
    w.inject(0, 7, 6);
    ps.runSequential(SimTime::ms(1));
    const uint64_t q1 = ps.lastRunQuanta();
    const uint64_t e1 = ps.lastRunTotalExecutedEvents();
    EXPECT_GT(q1, 0u);
    EXPECT_GT(e1, 0u);
    EXPECT_EQ(q1, ps.quantaExecuted());
    EXPECT_EQ(e1, ps.totalExecutedEvents());

    // Second, idle window: cumulative counters keep history, the
    // per-run deltas describe only the latest run.
    ps.runSequential(SimTime::ms(2));
    EXPECT_EQ(ps.lastRunQuanta(), ps.quantaExecuted() - q1);
    EXPECT_EQ(ps.lastRunTotalExecutedEvents(),
              ps.totalExecutedEvents() - e1);
}

TEST(PartitionSet, FusedWorkerCountsAreBitIdentical)
{
    // Partition fusion: the same 6-partition workload must produce the
    // same checksum, event count, and quantum count for every worker
    // cap — 1 (degenerate fusion, no barrier), fewer workers than
    // partitions, one per partition, and oversubscribed.  0 is the
    // hardware default.
    auto run = [](size_t threads) {
        PartitionSet ps(6);
        ps.setParallelism(threads);
        RingWorkload w(ps, 1_us);
        for (size_t i = 0; i < 6; ++i) {
            w.inject(i, 1000 + i, 10);
        }
        ps.runParallel(SimTime::ms(5));
        struct Result {
            uint64_t checksum;
            uint64_t executed;
            uint64_t quanta;
        };
        return Result{w.globalChecksum(), ps.totalExecutedEvents(),
                      ps.quantaExecuted()};
    };
    const auto ref = run(1);
    EXPECT_GT(ref.executed, 0u);
    for (size_t threads : {2u, 3u, 6u, 12u, 0u}) {
        const auto r = run(threads);
        EXPECT_EQ(ref.checksum, r.checksum) << threads << " threads";
        EXPECT_EQ(ref.executed, r.executed) << threads << " threads";
        EXPECT_EQ(ref.quanta, r.quanta) << threads << " threads";
    }
}

TEST(PartitionSet, FusionCapsWorkersAtPartitionCount)
{
    PartitionSet ps(3);
    ps.makeChannel(0, 1, 1_us);
    ps.partition(0).schedule(SimTime::us(1), [] {});
    // A request above the partition count is clamped at set time (a
    // 64-worker cap on a 3-partition set could never be honored), so
    // parallelism() reports what a run will actually use.
    ps.setParallelism(64);
    EXPECT_EQ(ps.parallelism(), 3u);
    ps.runParallel(SimTime::us(10));
    EXPECT_EQ(ps.lastRunWorkers(), 3u);
    ps.setParallelism(2);
    ps.runParallel(SimTime::us(20));
    EXPECT_EQ(ps.lastRunWorkers(), 2u);
}

TEST(PartitionSet, LaterShorterChannelLowersQuantum)
{
    PartitionSet ps(2);
    ps.makeChannel(0, 1, 10_us);
    EXPECT_EQ(ps.quantum(), 10_us);
    ps.makeChannel(1, 0, 3_us);
    EXPECT_EQ(ps.quantum(), 3_us);
    ps.makeChannel(0, 1, 5_us); // a longer one leaves it alone
    EXPECT_EQ(ps.quantum(), 3_us);
}

TEST(PartitionSet, RandomizedTopologyStressSeqParIdentical)
{
    // Randomized mini-fuzz over topology shape and traffic pattern:
    // random partition counts, per-channel latencies, bursty injection
    // times, and fanouts.  For each sampled topology the sequential
    // reference and the parallel engine at several worker caps must
    // stay bit-identical.  The generator is seeded, so a failure here
    // reproduces deterministically.
    Rng rng(0xD1AB10);
    for (int trial = 0; trial < 8; ++trial) {
        const size_t parts = rng.uniformInt(2, 6);
        const SimTime hop = SimTime::ns(
            static_cast<int64_t>(rng.uniformInt(300, 5000)));
        const int fanout = static_cast<int>(rng.uniformInt(1, 3));
        const int ttl = static_cast<int>(rng.uniformInt(4, 9));
        const uint32_t bursts = static_cast<uint32_t>(
            rng.uniformInt(1, 3));
        std::vector<uint64_t> burst_at_us;
        for (uint32_t b = 0; b < bursts; ++b) {
            burst_at_us.push_back(rng.uniformInt(0, 3000));
        }

        auto run = [&](bool parallel, size_t threads) {
            PartitionSet ps(parts);
            ps.setParallelism(threads);
            RingWorkload w(ps, hop, fanout);
            for (uint64_t at : burst_at_us) {
                for (size_t i = 0; i < parts; ++i) {
                    ps.partition(i).schedule(
                        SimTime::us(static_cast<int64_t>(at)),
                        [&w, i, at, ttl] {
                            w.onToken(i, at + i, ttl);
                        });
                }
            }
            if (parallel) {
                ps.runParallel(SimTime::ms(10));
            } else {
                ps.runSequential(SimTime::ms(10));
            }
            return std::pair(w.globalChecksum(),
                             ps.totalExecutedEvents());
        };

        const auto seq = run(false, 1);
        EXPECT_GT(seq.second, 0u) << "trial " << trial;
        for (size_t threads : {1u, 2u, 3u, 8u, 0u}) {
            const auto par = run(true, threads);
            EXPECT_EQ(seq, par)
                << "trial " << trial << ", parts=" << parts
                << ", threads=" << threads;
        }
    }
}

/**
 * All-to-all lockstep traffic: every partition ticks once per quantum
 * and each tick posts one message to every other partition, so in
 * every window every worker posts to every other worker.  Arrivals fold
 * into an order-sensitive per-partition sum.
 */
struct MeshWorkload {
    explicit MeshWorkload(PartitionSet &ps) : ps(ps)
    {
        const size_t n = ps.size();
        sums.assign(n, 0);
        out.resize(n);
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < n; ++j) {
                out[i].push_back(i == j ? nullptr
                                        : &ps.makeChannel(i, j, hop));
            }
            ps.partition(i).scheduleAt(SimTime::ns(static_cast<int64_t>(i)),
                                       [this, i] { tick(i, 0); });
        }
    }

    void
    tick(size_t i, uint64_t k)
    {
        Simulator &sim = ps.partition(i);
        for (size_t j = 0; j < out[i].size(); ++j) {
            if (j == i) {
                continue;
            }
            const uint64_t token = (k * 131 + i) * 131 + j;
            out[i][j]->post(sim.now() + hop + SimTime::ns(token % 7),
                            [this, j, token] { arrive(j, token); });
        }
        sim.schedule(hop, [this, i, k] { tick(i, k + 1); });
    }

    void
    arrive(size_t j, uint64_t token)
    {
        sums[j] = sums[j] * 1000003 +
                  static_cast<uint64_t>(ps.partition(j).now().toPs()) + token;
    }

    PartitionSet &ps;
    SimTime hop = 1_us;
    std::vector<std::vector<PartitionSet::Channel *>> out;
    std::vector<uint64_t> sums;
};

struct MeshOutcome {
    std::vector<uint64_t> sums;
    std::vector<uint64_t> executed;
    /** (lastRunQuanta, lastRunTotalExecutedEvents) of every run. */
    std::vector<std::pair<uint64_t, uint64_t>> runs;

    bool
    operator==(const MeshOutcome &o) const
    {
        return sums == o.sums && executed == o.executed && runs == o.runs;
    }
};

/**
 * The mesh on 13 partitions, one 50-window run per worker count from 2
 * to 13 on the same set (runSequential for every run when @p parallel
 * is false).  @p oversubscribed receives whether every parallel run
 * reported itself oversubscribed.
 */
MeshOutcome
runMesh(bool parallel, bool *oversubscribed = nullptr)
{
    constexpr size_t kParts = 13;
    PartitionSet ps(kParts);
    MeshWorkload w(ps);
    MeshOutcome out;
    bool all_over = true;
    SimTime until;
    for (size_t workers = 2; workers <= kParts; ++workers) {
        until = until + 50 * w.hop;
        if (parallel) {
            ps.setParallelism(workers);
            ps.runParallel(until);
            EXPECT_EQ(ps.lastRunWorkers(), workers);
            all_over = all_over && ps.lastRunOversubscribed();
        } else {
            ps.runSequential(until);
        }
        out.runs.emplace_back(ps.lastRunQuanta(),
                              ps.lastRunTotalExecutedEvents());
    }
    for (size_t i = 0; i < kParts; ++i) {
        out.executed.push_back(ps.partition(i).executedEvents());
    }
    out.sums = w.sums;
    if (oversubscribed != nullptr) {
        *oversubscribed = all_over;
    }
    return out;
}

TEST(PartitionSet, LockstepMeshMatchesSequentialAt2To13Workers)
{
    // Every worker posts to every other worker in every window, so each
    // window end hands messages across every pair of lanes while the
    // faster workers already post into the next window's buffers.  Any
    // lost or early-read publication, or a drain racing a post, changes
    // a sum, an event count or a run's window count.
    const MeshOutcome seq = runMesh(false);
    ASSERT_EQ(seq.runs.size(), 12u);
    for (size_t r = 0; r < seq.runs.size(); ++r) {
        // Each window runs 13 ticks and the 156 arrivals the previous
        // window's ticks posted; the first window has no arrivals.
        EXPECT_EQ(seq.runs[r].first, 50u);
        EXPECT_EQ(seq.runs[r].second, 50u * 13 * 13 - (r == 0 ? 156 : 0));
    }
    EXPECT_TRUE(seq == runMesh(true));
}

TEST(PartitionSet, LockstepMeshOnOneCpuParksAndMatchesSequential)
{
    // The same stress with the caller confined to one CPU, as under
    // `taskset -c <cpu>`: every run is oversubscribed, so every wait
    // parks at once instead of spinning.
    const MeshOutcome seq = runMesh(false);
    const SavedAffinity home = saveCurrentThreadAffinity();
    if (!pinCurrentThreadToCpu(allowedCpus().front())) {
        GTEST_SKIP() << "affinity control is unavailable";
    }
    bool oversubscribed = false;
    const MeshOutcome par = runMesh(true, &oversubscribed);
    restoreCurrentThreadAffinity(home);
    EXPECT_TRUE(oversubscribed);
    EXPECT_TRUE(seq == par);
}

TEST(PartitionSet, InvalidExplicitPinningIsFatal)
{
    // A cpu id the kernel will not pin to is a config error, not a
    // silent no-op: the run would quietly lose its placement guarantee.
    // One past the host's configured CPUs names no CPU at all.
    PartitionSet ps(2);
    const int bogus = static_cast<int>(sysconf(_SC_NPROCESSORS_CONF));
    EXPECT_DEATH(ps.setWorkerCpus({allowedCpus().front(), bogus}),
                 "kernel refuses to pin a thread to cpu");
}

TEST(PartitionSet, ExplicitPinningIsReportedPerRun)
{
    PartitionSet ps(4);
    ps.setParallelism(2);
    const int cpu = allowedCpus().front();
    // Both workers on one CPU: valid on any host, the run artifact must
    // report exactly what was applied, and one CPU for two workers is
    // oversubscribed whatever the caller's mask holds.
    ps.setWorkerCpus({cpu, cpu});
    for (size_t i = 0; i < 4; ++i) {
        ps.partition(i).schedule(SimTime::us(1), [] {});
    }
    ps.runParallel(SimTime::us(10));
    ASSERT_EQ(ps.lastRunWorkerCpus().size(), 2u);
    EXPECT_EQ(ps.lastRunWorkerCpus()[0], cpu);
    EXPECT_EQ(ps.lastRunWorkerCpus()[1], cpu);
    EXPECT_TRUE(ps.lastRunOversubscribed());
}

TEST(PartitionSet, PinningDisabledLeavesWorkersUnpinned)
{
    PartitionSet ps(4);
    ps.setParallelism(2);
    ps.setWorkerPinning(false);
    for (size_t i = 0; i < 4; ++i) {
        ps.partition(i).schedule(SimTime::us(1), [] {});
    }
    ps.runParallel(SimTime::us(10));
    for (int cpu : ps.lastRunWorkerCpus()) {
        EXPECT_EQ(cpu, -1);
    }
}

TEST(PartitionSet, OneCpuCallerRunsOversubscribedAndUnpinned)
{
    // What `taskset -c <cpu>` leaves a run: the caller's mask is the
    // engine's CPU set, so two workers share one CPU, park instead of
    // spinning, and nobody is pinned.
    const SavedAffinity home = saveCurrentThreadAffinity();
    const int cpu = allowedCpus().front();
    if (!pinCurrentThreadToCpu(cpu)) {
        GTEST_SKIP() << "affinity control is unavailable";
    }
    PartitionSet ps(4);
    ps.setParallelism(2);
    for (size_t i = 0; i < 4; ++i) {
        ps.partition(i).schedule(SimTime::us(1), [] {});
    }
    ps.runParallel(SimTime::us(10));
    const std::vector<int> after = allowedCpus();
    restoreCurrentThreadAffinity(home);
    EXPECT_EQ(ps.lastRunWorkers(), 2u);
    EXPECT_TRUE(ps.lastRunOversubscribed());
    EXPECT_EQ(ps.lastRunWorkerCpus(), (std::vector<int>{-1, -1}));
    EXPECT_EQ(after, (std::vector<int>{cpu}));
}

TEST(PartitionSet, PinnedCallerKeepsItsExplicitCpuSet)
{
    // The repo benchmark's 2-worker reps: the caller is pinned to its
    // first CPU and hands the workers both.  The explicit list is the
    // run's CPU set, so the barrier still spins.
    const std::vector<int> cpus = allowedCpus();
    if (cpus.size() < 2) {
        GTEST_SKIP() << "needs two CPUs";
    }
    const SavedAffinity home = saveCurrentThreadAffinity();
    ASSERT_TRUE(pinCurrentThreadToCpu(cpus[0]));
    PartitionSet ps(4);
    ps.setParallelism(2);
    ps.setWorkerCpus({cpus[0], cpus[1]});
    for (size_t i = 0; i < 4; ++i) {
        ps.partition(i).schedule(SimTime::us(1), [] {});
    }
    ps.runParallel(SimTime::us(10));
    const std::vector<int> after = allowedCpus();
    restoreCurrentThreadAffinity(home);
    EXPECT_FALSE(ps.lastRunOversubscribed());
    EXPECT_EQ(ps.lastRunWorkerCpus(), (std::vector<int>{cpus[0], cpus[1]}));
    EXPECT_EQ(after, (std::vector<int>{cpus[0]}));
}

TEST(PartitionSet, AutoPinningTakesTheAllowedCpusInOrder)
{
    const std::vector<int> cpus = allowedCpus();
    if (cpus.size() < 2) {
        GTEST_SKIP() << "needs two CPUs";
    }
    PartitionSet ps(4);
    ps.setParallelism(2);
    for (size_t i = 0; i < 4; ++i) {
        ps.partition(i).schedule(SimTime::us(1), [] {});
    }
    ps.runParallel(SimTime::us(10));
    EXPECT_FALSE(ps.lastRunOversubscribed());
    EXPECT_EQ(ps.lastRunWorkerCpus(), (std::vector<int>{cpus[0], cpus[1]}));
}

TEST(PartitionSet, UnpinnedPoolThreadRunsOnTheCallersMask)
{
    // A pool thread spawned by a pinned run must take the caller's
    // mask as its home, not worker 0's CPU: once pinning is off, the
    // worker runs wherever the caller may.  Each partition's event
    // records the mask of the thread executing it.
    const std::vector<int> cpus = allowedCpus();
    if (cpus.size() < 2) {
        GTEST_SKIP() << "needs two CPUs for a pinned first run";
    }
    PartitionSet ps(4);
    ps.setParallelism(2);
    std::vector<std::vector<int>> seen(4);
    auto schedule = [&](SimTime at) {
        for (size_t i = 0; i < 4; ++i) {
            ps.partition(i).schedule(at, [&seen, i] {
                seen[i] = allowedCpus();
            });
        }
    };
    schedule(SimTime::us(1));
    ps.runParallel(SimTime::us(10));
    ASSERT_GE(ps.lastRunWorkerCpus()[1], 0);
    ps.setWorkerPinning(false);
    schedule(SimTime::us(11));
    ps.runParallel(SimTime::us(20));
    EXPECT_EQ(allowedCpus(), cpus);
    size_t pool_parts = 0;
    for (size_t i = 0; i < 4; ++i) {
        if (ps.workerOfPartition(i) == 1) {
            ++pool_parts;
            EXPECT_EQ(seen[i], cpus) << "partition " << i;
        }
    }
    EXPECT_GT(pool_parts, 0u);
}

TEST(PartitionSet, SchedulingBetweenRunsRebuildsCalendars)
{
    // After a run drains to idle every lane's calendar queues its
    // partitions at "never".  Events scheduled directly into partitions
    // between runs must still execute in the next run — only the
    // run-entry rebuild re-queues the partitions that looked idle.
    auto run = [](bool parallel) {
        PartitionSet ps(3);
        ps.setParallelism(3);
        RingWorkload w(ps, 1_us);
        w.inject(0, 42, 6);
        if (parallel) {
            ps.runParallel(SimTime::ms(1));
        } else {
            ps.runSequential(SimTime::ms(1));
        }
        for (size_t i = 0; i < 3; ++i) {
            ps.partition(i).schedule(
                SimTime::ms(1) + SimTime::us(static_cast<int64_t>(i) + 1),
                [&w, i] { w.onToken(i, 7 + i, 4); });
        }
        if (parallel) {
            ps.runParallel(SimTime::ms(2));
        } else {
            ps.runSequential(SimTime::ms(2));
        }
        return std::pair(w.globalChecksum(), ps.totalExecutedEvents());
    };
    const auto seq = run(false);
    EXPECT_GT(seq.second, 0u);
    EXPECT_EQ(seq, run(true));
}

/**
 * Sparse workload for the next-event calendar: 256 partitions, each
 * with a ring channel and a chord channel, and at most four tokens
 * alive at once, so almost every partition is idle in any quantum.
 * Deliveries use the record path, so the same model also runs as a
 * coupled pair.  Every arrival schedules a decoy in its partition and
 * cancels it at once, so the cancel path runs wherever a token goes,
 * and once the token moves on that partition's queue is empty again.
 */
struct SparseWorkload {
    static constexpr size_t kParts = 256;

    struct TokenRec {
        uint64_t token;
        int32_t ttl;
        uint32_t pad = 0;
    };

    explicit SparseWorkload(PartitionSet &ps) : ps(ps)
    {
        visits.assign(kParts, 0);
        sums.assign(kParts, 0);
        decoys.assign(kParts, 0);
        for (size_t i = 0; i < kParts; ++i) {
            ring.push_back(&wire(i, (i + 1) % kParts, 1_us));
            chord.push_back(&wire(i, (i + 37) % kParts,
                                  2_us + SimTime::ns((i % 5) * 100)));
        }
    }

    PartitionSet::Channel &
    wire(size_t src, size_t dst, SimTime lat)
    {
        PartitionSet::Channel &ch = ps.makeChannel(src, dst, lat);
        ps.setChannelDecoder(
            ch, [this, dst](Simulator &, SimTime, const void *bytes,
                            uint32_t) -> EventFn {
                TokenRec rec;
                std::memcpy(&rec, bytes, sizeof(rec));
                return EventFn(
                    [this, dst, rec] { arrive(dst, rec.token, rec.ttl); });
            });
        return ch;
    }

    void
    arrive(size_t part, uint64_t token, int ttl)
    {
        Simulator &sim = ps.partition(part);
        ++visits[part];
        sums[part] = sums[part] * 1000003 +
                     static_cast<uint64_t>(sim.now().toPs()) + token;
        const EventId decoy =
            sim.schedule(3_us, [this, part] { ++decoys[part]; });
        sim.cancel(decoy);
        if (ttl <= 0) {
            return;
        }
        const uint64_t child =
            token * 6364136223846793005ULL + 1442695040888963407ULL;
        PartitionSet::Channel &ch =
            ((child >> 33) & 1) ? *chord[part] : *ring[part];
        const TokenRec rec{child, ttl - 1};
        const SimTime when =
            sim.now() + ch.minLatency() + SimTime::ns(child % 97);
        ps.postRecord(ch, when, &rec, sizeof(rec));
    }

    /** Schedule a token straight into @p part, outside any run. */
    void
    inject(size_t part, SimTime at, uint64_t token, int ttl)
    {
        ps.partition(part).scheduleAt(at, [this, part, token, ttl] {
            arrive(part, token, ttl);
        });
    }

    PartitionSet &ps;
    std::vector<PartitionSet::Channel *> ring;
    std::vector<PartitionSet::Channel *> chord;
    std::vector<uint64_t> visits;
    std::vector<uint64_t> sums;
    std::vector<uint64_t> decoys;
};

/** Run bounds of the sparse drive loop, and what happens between runs. */
struct SparsePlan {
    struct Inject {
        size_t part;
        SimTime at;
        uint64_t token;
        int ttl;
    };

    std::vector<SimTime> untils = {250_us, 600_us,  SimTime::ms(1),
                                   1600_us, 2500_us, SimTime::ms(3)};
    /** before[r]: tokens scheduled directly before run r. */
    std::vector<std::vector<Inject>> before;
    /** tomb[r]: partition given a cancelled-only event before run r. */
    std::vector<size_t> tomb;

    SparsePlan()
    {
        Rng rng(0x5CA1E);
        before.resize(untils.size());
        tomb.resize(untils.size());
        // Two long-lived tokens; each later run adds at most two short
        // ones that die well inside it, so <= 4 tokens are ever alive.
        before[0] = {{0, SimTime(), 11, 900}, {128, SimTime(), 23, 900}};
        for (size_t r = 0; r < untils.size(); ++r) {
            tomb[r] = rng.uniformInt(0, SparseWorkload::kParts - 1);
            if (r == 0) {
                continue;
            }
            const uint64_t k = rng.uniformInt(1, 2);
            for (uint64_t i = 0; i < k; ++i) {
                before[r].push_back(Inject{
                    rng.uniformInt(0, SparseWorkload::kParts - 1),
                    untils[r - 1] +
                        SimTime::us(static_cast<int64_t>(
                            rng.uniformInt(0, 150))),
                    1000 * r + i,
                    static_cast<int>(rng.uniformInt(10, 40))});
            }
        }
    }

    /** Apply the between-runs actions preceding run @p r. */
    void
    prepare(size_t r, PartitionSet &ps, SparseWorkload &w) const
    {
        for (const Inject &in : before[r]) {
            w.inject(in.part, in.at, in.token, in.ttl);
        }
        const SimTime from = r == 0 ? SimTime() : untils[r - 1];
        Simulator &sim = ps.partition(tomb[r]);
        sim.cancel(sim.scheduleAt(from + 20_us, [&w, p = tomb[r]] {
            ++w.decoys[p];
        }));
    }
};

struct SparseOutcome {
    std::vector<uint64_t> visits;
    std::vector<uint64_t> sums;
    std::vector<uint64_t> decoys;
    std::vector<uint64_t> executed;
    uint64_t total_executed = 0;
    uint64_t quanta = 0;

    bool
    operator==(const SparseOutcome &o) const
    {
        return visits == o.visits && sums == o.sums &&
               decoys == o.decoys && executed == o.executed &&
               total_executed == o.total_executed && quanta == o.quanta;
    }
};

enum class SparseEngine { Seq, Par, Stepped };

SparseOutcome
sparseOutcome(PartitionSet &ps, const SparseWorkload &w)
{
    SparseOutcome out;
    out.visits = w.visits;
    out.sums = w.sums;
    out.decoys = w.decoys;
    for (size_t i = 0; i < ps.size(); ++i) {
        out.executed.push_back(ps.partition(i).executedEvents());
    }
    out.total_executed = ps.totalExecutedEvents();
    out.quanta = ps.quantaExecuted();
    return out;
}

/**
 * One engine over the whole plan.  Stepped is the full-scan oracle:
 * one runSequential per quantum grid point, so every window starts
 * from a fresh calendar and the entry scan — it only makes sense with
 * skipping on, where a call with nothing due executes no window.
 */
SparseOutcome
runSparse(SparseEngine engine, size_t workers, bool skip)
{
    const SparsePlan plan;
    PartitionSet ps(SparseWorkload::kParts);
    ps.setParallelism(workers);
    ps.setSkipIdleQuanta(skip);
    SparseWorkload w(ps);
    const SimTime q = ps.quantum();
    SimTime stepped_to;
    for (size_t r = 0; r < plan.untils.size(); ++r) {
        plan.prepare(r, ps, w);
        const SimTime until = plan.untils[r];
        switch (engine) {
        case SparseEngine::Seq:
            ps.runSequential(until);
            break;
        case SparseEngine::Par:
            ps.runParallel(until);
            break;
        case SparseEngine::Stepped:
            while (stepped_to < until) {
                stepped_to = std::min(stepped_to + q, until);
                ps.runSequential(stepped_to);
            }
            break;
        }
    }
    return sparseOutcome(ps, w);
}

/** The same plan on two model copies coupled over in-process rings. */
SparseOutcome
runSparseCoupled(bool skip)
{
    const SparsePlan plan;
    const std::vector<uint32_t> owner = PartitionSet::lptAssign(
        std::vector<double>(SparseWorkload::kParts, 1.0), 2);
    auto pair = makeInProcTransportPair();
    PartitionSet set_a(SparseWorkload::kParts);
    PartitionSet set_b(SparseWorkload::kParts);
    SparseWorkload wa(set_a);
    SparseWorkload wb(set_b);
    PartitionSet *sets[2] = {&set_a, &set_b};
    SparseWorkload *loads[2] = {&wa, &wb};
    Transport *trs[2] = {pair.first.get(), pair.second.get()};
    for (uint32_t r = 0; r < 2; ++r) {
        sets[r]->setSkipIdleQuanta(skip);
        PartitionSet::CoupledOptions o;
        o.self_rank = r;
        o.owner_of = owner;
        o.peers = {{1 - r, trs[r]}};
        sets[r]->enableCoupled(o);
    }
    bool ok[2] = {true, true};
    auto drive = [&](uint32_t r) {
        for (size_t i = 0; i < plan.untils.size(); ++i) {
            plan.prepare(i, *sets[r], *loads[r]);
            ok[r] = sets[r]->runCoupled(plan.untils[i]) && ok[r];
        }
    };
    std::thread peer(drive, 1u);
    drive(0);
    peer.join();
    EXPECT_TRUE(ok[0] && ok[1]);
    EXPECT_EQ(set_a.quantaExecuted(), set_b.quantaExecuted());

    // Per-partition results come from the owner's copy, as the
    // multiprocess launcher merges them.
    SparseOutcome out;
    for (size_t i = 0; i < SparseWorkload::kParts; ++i) {
        const uint32_t r = owner[i];
        out.visits.push_back(loads[r]->visits[i]);
        out.sums.push_back(loads[r]->sums[i]);
        out.decoys.push_back(loads[r]->decoys[i]);
        out.executed.push_back(sets[r]->partition(i).executedEvents());
        out.total_executed += out.executed.back();
    }
    out.quanta = set_a.quantaExecuted();
    return out;
}

TEST(PartitionSet, SparseCalendarStressAllEnginesIdentical)
{
    // The calendar must advance exactly the partitions a full sweep
    // would: across sequential, parallel at 1-3 workers, a coupled
    // pair, and (skipping on) the per-quantum full-scan oracle, every
    // per-partition result, event count and quantum count agrees.
    for (bool skip : {true, false}) {
        const SparseOutcome ref = runSparse(SparseEngine::Seq, 1, skip);
        SCOPED_TRACE(skip ? "skip on" : "skip off");
        EXPECT_GT(ref.total_executed, 1000u);
        EXPECT_EQ(std::count(ref.decoys.begin(), ref.decoys.end(), 0u),
                  static_cast<long>(SparseWorkload::kParts));
        size_t visited = 0;
        for (uint64_t v : ref.visits) {
            visited += v != 0;
        }
        EXPECT_GT(visited, SparseWorkload::kParts / 2);
        if (skip) {
            // At most four tokens in flight, one hop per quantum each.
            EXPECT_LE(ref.total_executed, 4 * ref.quanta);
            EXPECT_TRUE(ref == runSparse(SparseEngine::Stepped, 1, skip))
                << "full-scan oracle";
        }
        for (size_t workers : {1u, 2u, 3u}) {
            EXPECT_TRUE(ref == runSparse(SparseEngine::Par, workers, skip))
                << workers << " workers";
        }
        EXPECT_TRUE(ref == runSparseCoupled(skip)) << "coupled pair";
    }
}

TEST(PartitionSet, NextPendingTimeSeesEventsAndChannelPosts)
{
    PartitionSet ps(3);
    auto &ch = ps.makeChannel(0, 2, 1_us);
    EXPECT_EQ(ps.nextPendingTime(), SimTime::max());
    ps.partition(1).schedule(7_us, [] {});
    EXPECT_EQ(ps.nextPendingTime(), 7_us);
    // A message posted outside a run waits in its channel, not a queue.
    ch.post(3_us, [] {});
    EXPECT_EQ(ps.nextPendingTime(), 3_us);
    ps.runSequential(10_us);
    EXPECT_EQ(ps.nextPendingTime(), SimTime::max());
    EXPECT_EQ(ps.totalExecutedEvents(), 2u);
}

/**
 * Post on @p ch (whose source is partition @p src) at @p at + 3 µs
 * before @p run, and again at @p at + 7 µs from an event inside it;
 * returns how many of the two were delivered.
 */
int
postAroundRun(PartitionSet &ps, size_t src, PartitionSet::Channel &ch,
              SimTime at, const std::function<void()> &run)
{
    int delivered = 0;
    ch.post(at + 3_us, [&delivered] { ++delivered; });
    ps.partition(src).scheduleAt(at + 5_us, [&ch, &delivered, at] {
        ch.post(at + 7_us, [&delivered] { ++delivered; });
    });
    run();
    return delivered;
}

TEST(PartitionSet, PostsOutsideARunSurviveAWorkerCountChange)
{
    // A post made between runs waits in its channel until the next run
    // registers it on its source's lane, whatever fusion that run uses.
    // Lost, it would also strand every later post on the channel (the
    // buffer never empties, so the channel never registers again).
    {
        SCOPED_TRACE("before any run, then 2 workers");
        PartitionSet ps(3);
        auto &ch = ps.makeChannel(0, 2, 1_us);
        ps.setParallelism(2);
        EXPECT_EQ(postAroundRun(ps, 0, ch, SimTime(),
                                [&ps] { ps.runParallel(10_us); }),
                  2);
        EXPECT_EQ(ps.nextPendingTime(), SimTime::max());
    }
    {
        SCOPED_TRACE("after 3 workers, then runSequential");
        PartitionSet ps(3);
        auto &ch = ps.makeChannel(1, 2, 1_us);
        ps.setParallelism(3);
        ps.runParallel(10_us);
        ASSERT_NE(ps.workerOfPartition(1), 0u);
        EXPECT_EQ(postAroundRun(ps, 1, ch, 10_us,
                                [&ps] { ps.runSequential(30_us); }),
                  2);
        EXPECT_EQ(ps.nextPendingTime(), SimTime::max());
    }
    {
        SCOPED_TRACE("coupled, before the first run and between two runs");
        // Rank 0 owns both ends of the channel; rank 1 owns partition 2
        // and only keeps the lockstep.
        const std::vector<uint32_t> owner = {0, 0, 1};
        auto pair = makeInProcTransportPair();
        PartitionSet ps(3);
        PartitionSet peer(3);
        auto &ch = ps.makeChannel(0, 1, 1_us);
        peer.makeChannel(0, 1, 1_us);
        PartitionSet *sets[2] = {&ps, &peer};
        Transport *trs[2] = {pair.first.get(), pair.second.get()};
        for (uint32_t r = 0; r < 2; ++r) {
            PartitionSet::CoupledOptions o;
            o.self_rank = r;
            o.owner_of = owner;
            o.peers = {{1 - r, trs[r]}};
            sets[r]->enableCoupled(o);
        }
        bool ok[2] = {true, true};
        std::thread follower([&peer, &ok] {
            ok[1] = peer.runCoupled(10_us) && peer.runCoupled(30_us);
        });
        EXPECT_EQ(postAroundRun(ps, 0, ch, SimTime(),
                                [&] { ok[0] = ps.runCoupled(10_us); }),
                  2);
        EXPECT_EQ(postAroundRun(ps, 0, ch, 10_us,
                                [&] {
                                    ok[0] = ps.runCoupled(30_us) && ok[0];
                                }),
                  2);
        follower.join();
        EXPECT_TRUE(ok[0] && ok[1]);
        EXPECT_EQ(ps.nextPendingTime(), SimTime::max());
    }
}

TEST(PartitionSet, RunParallelReentryIsFatal)
{
    // Re-entering the parallel engine from inside an event would have
    // a worker drive the pool it is part of; it must die loudly.
    PartitionSet ps(2);
    ps.partition(0).schedule(SimTime::us(1), [&ps] {
        ps.runParallel(SimTime::ms(2));
    });
    EXPECT_DEATH(ps.runParallel(SimTime::ms(1)),
                 "runParallel re-entered");
}

} // namespace
} // namespace fame
} // namespace diablo
