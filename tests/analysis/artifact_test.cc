#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/artifact.hh"

namespace diablo {
namespace analysis {
namespace {

RunArtifact
sampleArtifact()
{
    RunArtifact a;
    a.workload = "incast";
    a.engine = "seq";
    a.nodes = 12;
    a.elapsed_us = 1500.0;
    a.goodput_mbps = 42.5;
    a.requests_completed = 3;

    LatencyStat lat;
    lat.record(100.0);
    lat.record(200.0);
    a.latencies.emplace_back("iteration_us", LatencyDigest::of(lat));

    auto &g = a.addGroup("network");
    g.counters = {{"switch_drops", 5}, {"forwarded", 1000}};

    RunArtifact::PartitionRow row;
    row.events = 999;
    row.pool_makes = 40;
    row.pool_returns = 40;
    row.pool_recycles = 39;
    row.pool_heap_allocs = 1;
    a.partition_rows.push_back(row);
    a.executed_events = 999;
    return a;
}

TEST(LatencyDigest, OfLatencyStatCarriesPercentilesAndFingerprint)
{
    LatencyStat s;
    for (int i = 1; i <= 100; ++i) {
        s.record(static_cast<double>(i));
    }
    LatencyDigest d = LatencyDigest::of(s);
    EXPECT_EQ(d.count, 100u);
    EXPECT_DOUBLE_EQ(d.min, 1.0);
    EXPECT_DOUBLE_EQ(d.max, 100.0);
    EXPECT_GE(d.p99, d.p50);
    EXPECT_FALSE(d.sketched);
    EXPECT_EQ(d.fingerprint, s.fingerprint());

    LatencyDigest empty = LatencyDigest::of(LatencyStat());
    EXPECT_EQ(empty.count, 0u);
}

TEST(LatencyDigest, OfSampleSetIsOrderSensitive)
{
    SampleSet fwd, rev;
    fwd.record(1.0);
    fwd.record(2.0);
    rev.record(2.0);
    rev.record(1.0);
    EXPECT_NE(LatencyDigest::of(fwd).fingerprint,
              LatencyDigest::of(rev).fingerprint);
    EXPECT_EQ(LatencyDigest::of(fwd).fingerprint,
              LatencyDigest::of(fwd).fingerprint);
}

TEST(RunArtifact, FingerprintIsStableAndSensitive)
{
    RunArtifact a = sampleArtifact();
    const uint64_t base = a.fingerprint();
    EXPECT_EQ(base, sampleArtifact().fingerprint()); // deterministic

    RunArtifact b = sampleArtifact();
    b.requests_completed = 4;
    EXPECT_NE(b.fingerprint(), base);

    RunArtifact c = sampleArtifact();
    c.groups[0].counters[0].second += 1;
    EXPECT_NE(c.fingerprint(), base);

    RunArtifact d = sampleArtifact();
    d.partition_rows[0].pool_makes += 1;
    EXPECT_NE(d.fingerprint(), base);
}

TEST(RunArtifact, FingerprintIgnoresWallClockArtifacts)
{
    RunArtifact a = sampleArtifact();
    const uint64_t base = a.fingerprint();

    // Engine internals and the pool recycle/heap split legitimately
    // differ run-to-run (and single-vs-sharded); they must not fold.
    a.engine = "par";
    a.threads_requested = 8;
    a.workers = 4;
    a.cores = 16;
    a.oversubscribed = true;
    a.worker_cpus = {0, 2, -1, 5};
    a.quanta = 123;
    a.executed_events += 1000;
    a.partition_rows[0].events += 1000;
    a.partition_rows[0].pool_recycles = 0;
    a.partition_rows[0].pool_heap_allocs = 40;
    a.partition_rows[0].pool_high_water = 40;
    a.telemetry_path = "x.jsonl";
    a.telemetry_samples = 17;
    a.has_mem = true;
    a.peak_rss_mb = 123.0;
    a.config.set("some.key", 1);
    EXPECT_EQ(a.fingerprint(), base);

    // A group explicitly marked non-deterministic is reported only.
    RunArtifact b = sampleArtifact();
    auto &g = b.addGroup("host", /*deterministic=*/false);
    g.counters = {{"cache_misses", 1234567}};
    EXPECT_EQ(b.fingerprint(), base);
}

TEST(RunArtifact, JsonCarriesEverySection)
{
    RunArtifact a = sampleArtifact();
    a.has_mem = true;
    a.peak_rss_mb = 64.0;
    a.telemetry_path = "run.telemetry.jsonl";
    a.telemetry_period_us = 1000.0;
    a.telemetry_samples = 5;
    a.config.set("incast.servers", 8);
    a.cores = 4;
    a.oversubscribed = false;
    a.worker_cpus = {0, -1};

    const std::string j = a.toJson();
    for (const char *needle :
         {"\"schema\": 1", "\"workload\": \"incast\"",
          "\"engine\":", "\"name\": \"seq\"", "\"results\":",
          "\"goodput_mbps\": 42.5", "\"requests_completed\": 3",
          "\"latencies\":", "\"iteration_us\":", "\"p99_us\":",
          "\"counters\":", "\"network\":", "\"switch_drops\": 5",
          "\"cores\": 4", "\"oversubscribed\": false",
          "\"worker_cpus\": [", "0,", "-1",
          "\"partitions\": [", "\"pool_makes\": 40", "\"mem\":",
          "\"telemetry\":", "\"samples\": 5", "\"fingerprint\": \"0x",
          "\"config\":", "\"incast.servers\": \"8\""}) {
        EXPECT_NE(j.find(needle), std::string::npos) << needle;
    }
    // The emitted fingerprint matches the computed one.
    char want[32];
    std::snprintf(want, sizeof(want), "\"0x%016llx\"",
                  static_cast<unsigned long long>(a.fingerprint()));
    EXPECT_NE(j.find(want), std::string::npos);
}

/** One engine process's measured fields, each distinct from @p base. */
RunArtifact
rankArtifact(uint64_t base)
{
    RunArtifact a = sampleArtifact();
    a.executed_events = base;
    a.materialized_nodes = base + 1;
    a.arena_bytes_used = base + 2;
    a.arena_bytes_reserved = base + 3;
    a.partition_rows.resize(2);
    a.partition_rows[0] = {base + 4, base + 5, base + 6,
                           base + 7, base + 8, base + 9};
    a.partition_rows[1].pool_returns = base + 10;
    a.groups[0].counters = {{"switch_drops", base + 11},
                            {"forwarded", base + 12}};
    auto &mp = a.addGroup("mp", /*deterministic=*/false);
    mp.counters = {{"sync_sent", base + 13}};
    return a;
}

TEST(RunArtifactLedger, AddLedgerSumsTwoRanksExactly)
{
    RunArtifact a = rankArtifact(100);
    const std::vector<uint64_t> la = a.ledger();
    const std::vector<uint64_t> lb = rankArtifact(1000).ledger();
    ASSERT_TRUE(a.addLedger(lb));

    const std::vector<uint64_t> sum = a.ledger();
    ASSERT_EQ(sum.size(), la.size());
    EXPECT_EQ(sum[0], la[0]); // the shape word is not a field
    for (size_t i = 1; i < sum.size(); ++i) {
        EXPECT_EQ(sum[i], la[i] + lb[i]) << "ledger word " << i;
    }
    EXPECT_EQ(a.executed_events, 1100u);
    EXPECT_EQ(a.arena_bytes_reserved, 1106u);
    EXPECT_EQ(a.partition_rows[0].events, 1108u);
    EXPECT_EQ(a.partition_rows[0].pool_high_water, 1118u);
    EXPECT_EQ(a.partition_rows[1].pool_returns, 1120u);
    EXPECT_EQ(a.partition_rows[1].events, 0u);
    EXPECT_EQ(a.groups[0].counters[1].second, 1124u);
    EXPECT_EQ(a.groups[1].counters[0].second, 1126u);
}

TEST(RunArtifactLedger, ShapeMismatchIsRejected)
{
    RunArtifact renamed = rankArtifact(1);
    renamed.groups[0].counters[1].first = "forwarded_bytes";
    RunArtifact fewer_groups = rankArtifact(1);
    fewer_groups.groups.pop_back();
    RunArtifact more_rows = rankArtifact(1);
    more_rows.partition_rows.emplace_back();
    RunArtifact more_counters = rankArtifact(1);
    more_counters.groups[1].counters.emplace_back("sync_recv", 1);
    std::vector<uint64_t> forged = rankArtifact(1).ledger();
    forged[0] ^= 1;

    RunArtifact a = rankArtifact(100);
    const std::vector<uint64_t> before = a.ledger();
    for (const std::vector<uint64_t> &l :
         {renamed.ledger(), fewer_groups.ledger(), more_rows.ledger(),
          more_counters.ledger(), forged, std::vector<uint64_t>()}) {
        EXPECT_FALSE(a.addLedger(l));
    }
    EXPECT_EQ(a.ledger(), before); // a rejected ledger changes nothing
}

TEST(RunArtifactLedger, PerRunConstantsAreNeverSummed)
{
    // Results, latencies, engine identity, quanta and config are one
    // value per run: merging another rank's ledger leaves them alone,
    // so the merged fingerprint sees them exactly once.
    RunArtifact a = rankArtifact(100);
    a.quanta = 77;
    a.partitions = 5;
    a.config.set("incast.racks", 4);
    RunArtifact b = rankArtifact(1000);
    b.nodes = 1;
    b.elapsed_us = 1.0;
    b.goodput_mbps = 1.0;
    b.requests_completed = 1;
    b.quanta = 1;
    b.latencies.clear();
    ASSERT_TRUE(a.addLedger(b.ledger()));

    const RunArtifact ref = sampleArtifact();
    EXPECT_EQ(a.nodes, ref.nodes);
    EXPECT_EQ(a.elapsed_us, ref.elapsed_us);
    EXPECT_EQ(a.goodput_mbps, ref.goodput_mbps);
    EXPECT_EQ(a.requests_completed, ref.requests_completed);
    ASSERT_EQ(a.latencies.size(), 1u);
    EXPECT_EQ(a.latencies[0].second.fingerprint,
              ref.latencies[0].second.fingerprint);
    EXPECT_EQ(a.quanta, 77u);
    EXPECT_EQ(a.partitions, 5u);
    EXPECT_EQ(a.config.getString("incast.racks", ""), "4");
}

TEST(RunArtifactValidate, AcceptsACompleteWrittenArtifact)
{
    const std::string path =
        testing::TempDir() + "diablo_validate_ok.json";
    RunArtifact a = sampleArtifact();
    a.writeJson(path);

    const RunArtifact::Validation v = RunArtifact::validate(path);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.status, "ok");
    char want[32];
    std::snprintf(want, sizeof(want), "0x%016llx",
                  static_cast<unsigned long long>(a.fingerprint()));
    EXPECT_EQ(v.fingerprint, want);
    std::remove(path.c_str());
}

TEST(RunArtifactValidate, AtomicWriteLeavesNoTempDebris)
{
    const std::string dir = testing::TempDir() + "diablo_atomic_dir";
    ASSERT_TRUE(mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
    const std::string path = dir + "/a.json";
    sampleArtifact().writeJson(path);
    // Overwrite in place: still valid, and the directory holds only
    // the final artifact (the temp name was renamed away).
    sampleArtifact().writeJson(path);
    EXPECT_TRUE(RunArtifact::validate(path).ok);
    DIR *d = opendir(dir.c_str());
    ASSERT_NE(d, nullptr);
    size_t entries = 0;
    while (struct dirent *e = readdir(d)) {
        if (e->d_name[0] != '.') {
            ++entries;
            EXPECT_EQ(std::string(e->d_name), "a.json");
        }
    }
    closedir(d);
    EXPECT_EQ(entries, 1u);
    std::remove(path.c_str());
    rmdir(dir.c_str());
}

TEST(RunArtifactValidate, RejectsInterruptedPartials)
{
    const std::string path =
        testing::TempDir() + "diablo_validate_partial.json";
    RunArtifact a = sampleArtifact();
    a.status = "interrupted";
    a.interrupt_cause = "SIGTERM";
    a.writeJson(path);

    const RunArtifact::Validation v = RunArtifact::validate(path);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.status, "interrupted");
    // The partial still carries its fingerprint-so-far and says why
    // it stopped.
    EXPECT_FALSE(v.fingerprint.empty());
    EXPECT_NE(v.error.find("interrupted"), std::string::npos);
    EXPECT_NE(a.toJson().find("\"interrupt_cause\": \"SIGTERM\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(RunArtifactValidate, RejectsTruncatedDebris)
{
    const std::string path =
        testing::TempDir() + "diablo_validate_trunc.json";
    RunArtifact a = sampleArtifact();
    a.writeJson(path);
    // Chop the file mid-way: simulates a non-atomic writer dying (or
    // a torn copy).  validate must flag it, not mis-parse it.
    const std::string doc = a.toJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(doc.data(), 1, doc.size() / 2, f);
    std::fclose(f);

    const RunArtifact::Validation v = RunArtifact::validate(path);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("not a complete JSON object"),
              std::string::npos)
        << v.error;
    std::remove(path.c_str());
}

TEST(RunArtifactValidate, RejectsMissingFileAndWrongSchema)
{
    const RunArtifact::Validation missing =
        RunArtifact::validate(testing::TempDir() + "diablo_nope.json");
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.error.find("cannot read"), std::string::npos);

    const std::string path =
        testing::TempDir() + "diablo_validate_schema.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\n  \"schema\": 999,\n  \"fingerprint\": \"0x0\"\n}\n",
               f);
    std::fclose(f);
    const RunArtifact::Validation v = RunArtifact::validate(path);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("schema"), std::string::npos) << v.error;
    std::remove(path.c_str());
}

} // namespace
} // namespace analysis
} // namespace diablo
