#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/config.hh"

namespace diablo {
namespace {

TEST(Config, SetGetTyped)
{
    Config c;
    c.set("a.b", int64_t{42});
    c.set("x", 2.5);
    c.set("flag", true);
    c.set("name", "rack0");
    EXPECT_EQ(c.getUint("a.b", 0), 42u);
    EXPECT_DOUBLE_EQ(c.getDouble("x", 0), 2.5);
    EXPECT_TRUE(c.getBool("flag", false));
    EXPECT_EQ(c.getString("name", ""), "rack0");
}

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getUint("missing", 7), 7u);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_FALSE(c.getBool("missing", false));
    EXPECT_EQ(c.getString("missing", "dft"), "dft");
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, IntAcceptsHex)
{
    Config c;
    c.set("addr", "0x1000");
    EXPECT_EQ(c.getUint("addr", 0), 0x1000u);
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("k", t);
        EXPECT_TRUE(c.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("k", f);
        EXPECT_FALSE(c.getBool("k", true)) << f;
    }
}

TEST(Config, ParseAssignment)
{
    Config c;
    EXPECT_TRUE(c.parseAssignment("switch.rack.buffer_bytes=4096"));
    EXPECT_EQ(c.getUint("switch.rack.buffer_bytes", 0), 4096u);
    EXPECT_FALSE(c.parseAssignment("notanassignment"));
    EXPECT_FALSE(c.parseAssignment("=value"));
    EXPECT_TRUE(c.parseAssignment("empty="));
    EXPECT_EQ(c.getString("empty", "x"), "");
}

TEST(Config, MergeOverrides)
{
    Config base, over;
    base.set("a", 1);
    base.set("b", 2);
    over.set("b", 20);
    over.set("c", 30);
    base.merge(over);
    EXPECT_EQ(base.getUint("a", 0), 1u);
    EXPECT_EQ(base.getUint("b", 0), 20u);
    EXPECT_EQ(base.getUint("c", 0), 30u);
}

TEST(Config, KeysSorted)
{
    Config c;
    c.set("zz", 1);
    c.set("aa", 2);
    c.set("mm", 3);
    auto ks = c.keys();
    ASSERT_EQ(ks.size(), 3u);
    EXPECT_EQ(ks[0], "aa");
    EXPECT_EQ(ks[1], "mm");
    EXPECT_EQ(ks[2], "zz");
}

TEST(Config, UnreadListsKeysNoGetterRead)
{
    Config c;
    c.set("mc.requests", 2);
    c.set("mc.udp", "false");
    c.set("nodes", 248);
    c.set("fault.0.kind", "server_crash");
    c.set("fault.0.nodes", 1);
    EXPECT_EQ(c.unread(""),
              (std::vector<std::string>{"fault.0.kind", "fault.0.nodes",
                                        "mc.requests", "mc.udp", "nodes"}));
    // has() is not a read, and a default for an absent key reads
    // nothing.
    EXPECT_TRUE(c.has("fault.0.kind"));
    EXPECT_EQ(c.getUint("mc.servers", 3), 3u);
    EXPECT_EQ(c.unread("fault."),
              (std::vector<std::string>{"fault.0.kind", "fault.0.nodes"}));
    // Every typed getter marks its key.
    EXPECT_EQ(c.getUint("mc.requests", 0), 2u);
    EXPECT_FALSE(c.getBool("mc.udp", true));
    EXPECT_EQ(c.getString("fault.0.kind", ""), "server_crash");
    EXPECT_EQ(c.unread(""),
              (std::vector<std::string>{"fault.0.nodes", "nodes"}));
    EXPECT_EQ(c.unread("mc."), std::vector<std::string>{});
    EXPECT_EQ(c.unread("fault."),
              std::vector<std::string>{"fault.0.nodes"});
}

TEST(Config, LargeInBoundsValuesStillParse)
{
    Config c;
    c.set("umax", "18446744073709551615");
    c.set("dbig", "1e308");
    EXPECT_EQ(c.getUint("umax", 0), UINT64_MAX);
    EXPECT_DOUBLE_EQ(c.getDouble("dbig", 0), 1e308);
}

TEST(ConfigDeathTest, UintRejectsNegative)
{
    // strtoull happily wraps "-1" to 2^64-1; the reader must not.
    Config c;
    c.set("k", "-1");
    EXPECT_DEATH(c.getUint("k", 0), "negative");
}

TEST(ConfigDeathTest, UintOverflowIsFatal)
{
    Config c;
    c.set("k", "18446744073709551616"); // UINT64_MAX + 1
    EXPECT_DEATH(c.getUint("k", 0), "out of uint64 range");
}

TEST(ConfigDeathTest, DoubleOverflowIsFatal)
{
    Config c;
    c.set("k", "1e999");
    EXPECT_DEATH(c.getDouble("k", 0), "overflows a double");
}

/** Write @p text to a temp file and return its path. */
std::string
tempFile(const char *name, const char *text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

TEST(ConfigFile, ReadsAssignmentsInFileOrder)
{
    const std::string path = tempFile(
        "config_ok.conf", "# header\n"
                          "\n"
                          "  zz.first = 0x10   # trailing comment\n"
                          "aa=two words\t\n"
                          "mm = a, b=c\n");
    std::vector<std::string> order;
    const Config c = Config::fromFile(path, &order);
    std::remove(path.c_str());
    EXPECT_EQ(order, (std::vector<std::string>{"zz.first", "aa", "mm"}));
    EXPECT_EQ(c.getUint("zz.first", 0), 16u);
    EXPECT_EQ(c.getString("aa", ""), "two words");
    EXPECT_EQ(c.getString("mm", ""), "a, b=c"); // first '=' splits
}

TEST(ConfigFileDeathTest, MalformedFilesNamePathAndLine)
{
    const std::string dup =
        tempFile("config_dup.conf", "a = 1\nb = 2\na = 3\n");
    EXPECT_DEATH(Config::fromFile(dup), "config_dup.conf:3: duplicate key 'a'");
    const std::string bare = tempFile("config_bare.conf", "a = 1\nb\n");
    EXPECT_DEATH(Config::fromFile(bare), "config_bare.conf:2: expected key");
    const std::string nokey = tempFile("config_nokey.conf", " = 1\n");
    EXPECT_DEATH(Config::fromFile(nokey), "config_nokey.conf:1: expected key");
    EXPECT_DEATH(Config::fromFile(testing::TempDir() + "config_none.conf"),
                 "cannot read");
    EXPECT_DEATH(Config::fromFile(testing::TempDir()), "cannot read");
    for (const std::string &p : {dup, bare, nokey}) {
        std::remove(p.c_str());
    }
}

TEST(FlagReader, ReadsBothSpellingsAndPositionals)
{
    const char *args[] = {"prog", "--out", "d", "--jobs=3", "x=1",
                          "--timeout", "0.5", "--dry-run", "--outer"};
    char **argv = const_cast<char **>(args);
    FlagReader f(9, argv, 1);
    uint64_t jobs = 0;
    double timeout = -1.0;
    std::vector<std::string> seen;
    while (f.more()) {
        if (const char *v = f.value("--out")) {
            seen.push_back(std::string("out:") + v);
        } else if (f.value("--jobs", &jobs, 1) ||
                   f.value("--timeout", &timeout)) {
            seen.push_back("number");
        } else if (f.take("--dry-run")) {
            seen.push_back("dry-run");
        } else {
            seen.push_back(f.next());
        }
    }
    EXPECT_EQ(seen, (std::vector<std::string>{"out:d", "number", "x=1",
                                              "number", "dry-run",
                                              "--outer"}));
    EXPECT_EQ(jobs, 3u);
    EXPECT_DOUBLE_EQ(timeout, 0.5);
}

TEST(FlagReaderDeathTest, MalformedValuesExitTwoNamingTheFlag)
{
    auto read = [](std::vector<const char *> args) {
        args.insert(args.begin(), "prog");
        FlagReader f(static_cast<int>(args.size()),
                     const_cast<char **>(args.data()), 1);
        uint64_t n = 0;
        double d = 0.0;
        while (f.more()) {
            if (!f.value("--jobs", &n, 1) && !f.value("--timeout", &d)) {
                f.next();
            }
        }
    };
    const auto two = testing::ExitedWithCode(2);
    EXPECT_EXIT(read({"--jobs", "four"}), two, "--jobs 'four'");
    EXPECT_EXIT(read({"--jobs=0"}), two, "--jobs must be at least 1");
    EXPECT_EXIT(read({"--jobs", "-1"}), two, "--jobs '-1' is negative");
    EXPECT_EXIT(read({"--timeout", "abc"}), two, "--timeout 'abc'");
    EXPECT_EXIT(read({"--timeout=-2"}), two, "--timeout '-2'");
    EXPECT_EXIT(read({"--timeout", "inf"}), two, "--timeout 'inf'");
    EXPECT_EXIT(read({"--jobs"}), two, "--jobs needs a value");
}

} // namespace
} // namespace diablo
