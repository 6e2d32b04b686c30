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
#include <string>

#include "tools/tool_test_util.hh"

namespace {

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
