/**
 * @file
 * End-to-end tests of the operator CLI: diablo_run's JSON artifact and
 * argument validation, and a small diablo_sweep grid.  The binaries
 * under test are injected by CMake as DIABLO_RUN_BIN / DIABLO_SWEEP_BIN
 * (tools_test therefore depends on both targets being built).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>
#include <ostream>
#include <string>
#include <utility>

#include "tools/tool_test_util.hh"

namespace {

using diablo::test::fingerprintOf;
using diablo::test::runCmd;
using diablo::test::slurp;

std::string
tmpPath(const std::string &name)
{
    return diablo::test::tmpPath("diablo_cli_", name);
}

/** Tiny incast scenario shared by the artifact tests (fast: <1 s). */
const char kTinyIncast[] =
    " incast incast.servers=2 incast.iterations=2 incast.block_bytes=8192";

TEST(DiabloRunCli, JsonArtifactHasTheGoldenShape)
{
    const std::string json = tmpPath("artifact.json");
    const std::string cmd = std::string(DIABLO_RUN_BIN) + kTinyIncast +
                            " --json " + json + " > /dev/null 2>&1";
    ASSERT_EQ(runCmd(cmd), 0);

    const std::string doc = slurp(json);
    for (const char *needle :
         {"\"schema\": 1", "\"workload\": \"incast\"",
          "\"name\": \"single\"", "\"results\":", "\"goodput_mbps\":",
          "\"latencies\":", "\"iteration_us\":", "\"counters\":",
          "\"network\":", "\"datapath\":", "\"partitions\": [",
          "\"pool_makes\":", "\"mem\":", "\n  \"fingerprint\": \"0x",
          "\"config\":", "\"incast.servers\": \"2\""}) {
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
    }
    // No fault plan, no telemetry: those sections must be absent.
    EXPECT_EQ(doc.find("\"faults\":"), std::string::npos);
    EXPECT_EQ(doc.find("\"telemetry\":"), std::string::npos);
    std::remove(json.c_str());
}

TEST(DiabloRunCli, TelemetryStreamsAndIsRecordedInTheArtifact)
{
    const std::string json = tmpPath("telemetry.json");
    const std::string stream = json + ".telemetry.jsonl";
    const std::string cmd = std::string(DIABLO_RUN_BIN) + kTinyIncast +
                            " telemetry.period=10000 --json " + json +
                            " > /dev/null 2>&1";
    ASSERT_EQ(runCmd(cmd), 0);

    EXPECT_NE(slurp(json).find("\"telemetry\":"), std::string::npos);
    const std::string rows = slurp(stream);
    EXPECT_NE(rows.find("\"t_us\":"), std::string::npos);
    EXPECT_NE(rows.find("\"goodput_mbps\":"), std::string::npos);
    std::remove(json.c_str());
    std::remove(stream.c_str());
}

/** A diablo_run point whose fingerprints are pinned. */
struct ReferencePoint {
    const char *name;
    const char *args;
    const char *single_fp; ///< the default single-Simulator engine
    const char *seq_fp;    ///< the partitioned engines (seq == par == mp)
};

/** Failure messages name the point, not its bytes. */
void
PrintTo(const ReferencePoint &pt, std::ostream *os)
{
    *os << pt.name;
}

/**
 * Reference fingerprints.  A change meant to alter simulated results
 * updates these constants in its own diff; every other change must
 * leave them as they are.
 */
const ReferencePoint kReferencePoints[] = {
    {"incast4", " incast incast.servers=8 incast.racks=4 incast.iterations=5",
     "0x5ef1389274f1a4d6", "0xf5990eb8bbbaa6db"},
    {"incast4_trunk_fault",
     " incast incast.servers=8 incast.racks=4 incast.iterations=5"
     " fault.0.kind=trunk_down fault.0.at_us=200000 fault.0.rack=1"
     " fault.0.plane=0 fault.1.kind=trunk_up fault.1.at_us=900000"
     " fault.1.rack=1 fault.1.plane=0",
     "0x9c742a0d184c6dd5", "0xbfb2f5d35e5d839f"},
    {"incast2_output_queue",
     " incast incast.servers=8 incast.racks=2 incast.iterations=5"
     " topo.switch_model=output_queue",
     "0x5342991b0880058c", "0xdd587672cfa1a2dd"},
    {"memcached_udp",
     " memcached topo.num_arrays=1 topo.racks_per_array=2"
     " topo.servers_per_rack=4 mc.servers=2 mc.requests=20",
     "0x93070557eaaeadd1", "0x4b93db45033091c6"},
    {"memcached_tcp",
     " memcached topo.num_arrays=1 topo.racks_per_array=2"
     " topo.servers_per_rack=4 mc.servers=2 mc.requests=20 mc.udp=false",
     "0xa732c5d218d3f14f", "0xc0b71236608ce87f"},
    {"incast3_10g_epoll",
     " incast incast.servers=12 incast.racks=3 incast.iterations=5"
     " topo.rack.port_gbps=10 topo.array.port_gbps=10"
     " topo.rack.port_latency_ns=100 topo.array.port_latency_ns=100"
     " incast.epoll=true",
     "0x2c2687100fc37948", "0xf9cac8bd788fbc2f"},
};

// Each point runs as Points/DiabloRunCli.ReferenceFingerprints/<name>.
using DiabloRunCli = testing::TestWithParam<ReferencePoint>;

TEST_P(DiabloRunCli, ReferenceFingerprints)
{
    const ReferencePoint &pt = GetParam();
    for (const char *engine : {"single", "seq"}) {
        const std::string json =
            tmpPath(std::string(pt.name) + "_" + engine + ".json");
        const std::string cmd = std::string(DIABLO_RUN_BIN) + pt.args +
                                " --engine " + engine + " --json " + json +
                                " > /dev/null 2>&1";
        ASSERT_EQ(runCmd(cmd), 0) << engine;
        EXPECT_EQ(fingerprintOf(slurp(json)),
                  std::string(engine) == "seq" ? pt.seq_fp : pt.single_fp)
            << engine;
        std::remove(json.c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Points, DiabloRunCli, testing::ValuesIn(kReferencePoints),
    [](const testing::TestParamInfo<ReferencePoint> &info) {
        return std::string(info.param.name);
    });

TEST(DiabloRunCli, RejectsMalformedThreads)
{
    for (const char *bad : {"abc", "-3", "4x", ""}) {
        const std::string cmd = std::string(DIABLO_RUN_BIN) +
                                " incast --threads '" + bad +
                                "' > /dev/null 2>&1";
        EXPECT_EQ(runCmd(cmd), 2) << "'" << bad << "'";
    }
    // Flag=value spelling is covered too.
    const std::string cmd = std::string(DIABLO_RUN_BIN) +
                            " incast --threads=zzz > /dev/null 2>&1";
    EXPECT_EQ(runCmd(cmd), 2);
}

TEST(DiabloRunCli, RejectsKeysNothingReads)
{
    // A misspelt key, or another workload's, used to run the defaults
    // without a word: `nodes=248` ran the full 1,984-node array.
    const std::string log = tmpPath("unread.log");
    const std::pair<std::string, std::string> cases[] = {
        {" memcached nodes=248 mc.requests=2", "'nodes'"},
        {" memcached topo.num_arrays=1 mc.requests=2 incast.racks=2",
         "'incast.racks'"},
        {std::string(kTinyIncast) + " mc.requests=2", "'mc.requests'"},
    };
    for (const auto &[args, key] : cases) {
        SCOPED_TRACE(args);
        EXPECT_EQ(runCmd(std::string(DIABLO_RUN_BIN) + args + " > " + log +
                         " 2>&1"),
                  2);
        const std::string out = slurp(log);
        EXPECT_NE(out.find(key), std::string::npos) << out;
    }
    std::remove(log.c_str());
}

TEST(DiabloSweepCli, TwoPointEngineGridCrossChecks)
{
    const std::string dir = tmpPath("sweep");
    const std::string spec = tmpPath("sweep.spec");
    // diablo_sweep resumes into an existing --out directory, so a run
    // directory left behind could satisfy the checks below.
    runCmd("rm -rf " + dir);
    {
        std::ofstream out(spec);
        out << "sweep.name = cli_smoke\n"
            << "workload = incast\n"
            << "engine = seq,par   # fingerprint cross-check axis\n"
            << "incast.servers = 2\n"
            << "incast.iterations = 2\n"
            << "incast.block_bytes = 8192\n"
            << "sweep.jobs = 2\n";
    }
    const std::string cmd = std::string(DIABLO_SWEEP_BIN) + " " + spec +
                            " --out " + dir + " > " + dir + ".log 2>&1";
    ASSERT_EQ(runCmd(cmd), 0) << slurp(dir + ".log");

    const std::string report = slurp(dir + "/report.json");
    EXPECT_NE(report.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(report.find("\"engine_cross_checks\":"),
              std::string::npos);
    EXPECT_NE(report.find("\"match\": true"), std::string::npos);
    EXPECT_EQ(report.find("\"match\": false"), std::string::npos);

    // Per-run artifacts exist and fingerprint-match across engines.
    const std::string log = slurp(dir + ".log");
    EXPECT_NE(log.find("MATCH"), std::string::npos);
    EXPECT_EQ(log.find("MISMATCH"), std::string::npos);
    struct stat st;
    EXPECT_EQ(stat((dir + "/run000_engine_seq.json").c_str(), &st), 0);
    EXPECT_EQ(stat((dir + "/run001_engine_par.json").c_str(), &st), 0);
    runCmd("rm -rf " + dir + " " + dir + ".log " + spec);
}

TEST(DiabloSweepCli, SpecWithoutWorkloadFails)
{
    const std::string spec = tmpPath("bad.spec");
    {
        std::ofstream out(spec);
        out << "engine = seq\n";
    }
    const std::string out = tmpPath("bad_out");
    const std::string cmd = std::string(DIABLO_SWEEP_BIN) + " " + spec +
                            " --out " + out + " > /dev/null 2>&1";
    EXPECT_NE(runCmd(cmd), 0);
    runCmd("rm -rf " + out + " " + spec);
}

} // namespace
