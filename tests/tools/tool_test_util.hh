#ifndef DIABLO_TESTS_TOOLS_TOOL_TEST_UTIL_HH_
#define DIABLO_TESTS_TOOLS_TOOL_TEST_UTIL_HH_

/**
 * @file
 * Shared helpers for the end-to-end tool tests: temp-file names, shell
 * and fork/exec runs of the binaries under test (DIABLO_RUN_BIN, which
 * CMake injects into tools_test), and whole-file reads.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace diablo {
namespace test {

/**
 * @p name in gtest's temp dir behind @p prefix; each test file keeps
 * its own prefix, so a leftover file names the suite that left it.
 */
inline std::string
tmpPath(const char *prefix, const std::string &name)
{
    return testing::TempDir() + prefix + name;
}

/** Run a shell command, returning its exit code (-1 on system error). */
inline int
runCmd(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    if (status < 0) {
        return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Spawn diablo_run (args appended after the binary) with output to
 *  @p log; returns the child pid. */
inline pid_t
spawnRun(const std::string &args, const std::string &log)
{
    const pid_t pid = fork();
    if (pid != 0) {
        return pid;
    }
    if (std::freopen(log.c_str(), "w", stdout) == nullptr ||
        dup2(fileno(stdout), fileno(stderr)) < 0) {
        std::_Exit(127);
    }
    std::vector<std::string> argv_s;
    argv_s.push_back(DIABLO_RUN_BIN);
    size_t pos = 0;
    while (pos < args.size()) {
        const size_t sp = args.find(' ', pos);
        const std::string tok =
            args.substr(pos, sp == std::string::npos ? std::string::npos
                                                     : sp - pos);
        if (!tok.empty()) {
            argv_s.push_back(tok);
        }
        if (sp == std::string::npos) {
            break;
        }
        pos = sp + 1;
    }
    std::vector<char *> argv;
    for (const std::string &a : argv_s) {
        argv.push_back(const_cast<char *>(a.c_str()));
    }
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    std::_Exit(127);
}

/** waitpid with EINTR retry; returns the exit code (128+sig if
 *  signalled). */
inline int
waitExit(pid_t pid)
{
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            ADD_FAILURE() << "waitpid: " << std::strerror(errno);
            return -1;
        }
    }
    return WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + WTERMSIG(status);
}

} // namespace test
} // namespace diablo

#endif // DIABLO_TESTS_TOOLS_TOOL_TEST_UTIL_HH_
