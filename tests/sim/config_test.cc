#include <gtest/gtest.h>

#include <utility>

#include "sim/cluster.hh"

namespace diablo {
namespace sim {
namespace {

TEST(ClusterConfig, ApplyConfigOverridesEveryLayer)
{
    Config cfg;
    cfg.set("topo.servers_per_rack", 8);
    cfg.set("topo.racks_per_array", 4);
    cfg.set("topo.num_arrays", 2);
    cfg.set("topo.rack.port_gbps", 10.0);
    cfg.set("topo.rack.buffer_policy", "shared_dynamic");
    cfg.set("cpu.freq_ghz", 2.0);
    cfg.set("cpu.cores", 2);
    cfg.set("kernel.version", "3.5.7");
    cfg.set("kernel.napi_budget", 32);
    cfg.set("tcp.mss", 536);
    cfg.set("tcp.min_rto_us", 100000.0);
    cfg.set("nic.zero_copy", false);
    cfg.set("seed", 777);

    ClusterParams p = ClusterParams::gige1us();
    p.applyConfig(cfg);

    EXPECT_EQ(p.topo.totalServers(), 64u);
    EXPECT_DOUBLE_EQ(p.topo.rack_sw.port_bw.asGbps(), 10.0);
    EXPECT_EQ(p.topo.rack_sw.buffer_policy,
              switchm::BufferPolicy::SharedDynamic);
    EXPECT_DOUBLE_EQ(p.cpu.freq_ghz, 2.0);
    EXPECT_EQ(p.cpu.cores, 2u);
    EXPECT_EQ(p.kernel_profile.name, "linux-3.5.7");
    EXPECT_EQ(p.kernel_profile.napi_budget, 32u);
    EXPECT_EQ(p.tcp.mss, 536u);
    EXPECT_EQ(p.tcp.min_rto, SimTime::ms(100));
    EXPECT_FALSE(p.nic.zero_copy);
    EXPECT_EQ(p.seed, 777u);
}

TEST(ClusterConfig, EmptyConfigKeepsPresets)
{
    // applyConfig reads every key over the current value: a config that
    // names none of them leaves both presets' switches and links intact
    // (the shared-dynamic 2 MB array/DC buffers of gige1us, the 10G /
    // 100 ns ports of tengig100ns).
    const Config empty;
    for (const ClusterParams &preset :
         {ClusterParams::gige1us(), ClusterParams::tengig100ns()}) {
        ClusterParams p = preset;
        p.applyConfig(empty);
        const std::pair<const switchm::SwitchParams *,
                        const switchm::SwitchParams *>
            levels[] = {{&p.topo.rack_sw, &preset.topo.rack_sw},
                        {&p.topo.array_sw, &preset.topo.array_sw},
                        {&p.topo.dc_sw, &preset.topo.dc_sw}};
        for (const auto &[got, want] : levels) {
            EXPECT_EQ(got->buffer_policy, want->buffer_policy);
            EXPECT_EQ(got->buffer_total_bytes, want->buffer_total_bytes);
            EXPECT_EQ(got->buffer_per_port_bytes,
                      want->buffer_per_port_bytes);
            EXPECT_DOUBLE_EQ(got->dynamic_alpha, want->dynamic_alpha);
            EXPECT_DOUBLE_EQ(got->port_bw.asGbps(), want->port_bw.asGbps());
            EXPECT_EQ(got->port_latency, want->port_latency);
        }
        EXPECT_DOUBLE_EQ(p.topo.host_bw.asGbps(),
                         preset.topo.host_bw.asGbps());
    }
    ClusterParams g = ClusterParams::gige1us();
    g.applyConfig(empty);
    EXPECT_EQ(g.topo.array_sw.buffer_policy,
              switchm::BufferPolicy::SharedDynamic);
    EXPECT_EQ(g.topo.dc_sw.buffer_total_bytes, 2u * 1024 * 1024);
    ClusterParams t = ClusterParams::tengig100ns();
    t.applyConfig(empty);
    EXPECT_DOUBLE_EQ(t.topo.array_sw.port_bw.asGbps(), 10.0);
    EXPECT_EQ(t.topo.rack_sw.port_latency, SimTime::ns(100));

    // A key that is named still overrides just that field.
    Config one;
    one.set("topo.array.dynamic_alpha", 1.0);
    g.applyConfig(one);
    EXPECT_DOUBLE_EQ(g.topo.array_sw.dynamic_alpha, 1.0);
    EXPECT_EQ(g.topo.array_sw.buffer_total_bytes, 2u * 1024 * 1024);
}

TEST(ClusterConfig, CommandLineStyleAssignments)
{
    // The flow a command-line front end would use: "key=value" tokens.
    Config cfg;
    EXPECT_TRUE(cfg.parseAssignment("topo.num_arrays=1"));
    EXPECT_TRUE(cfg.parseAssignment("topo.servers_per_rack=4"));
    EXPECT_TRUE(cfg.parseAssignment("topo.racks_per_array=2"));
    EXPECT_TRUE(cfg.parseAssignment("kernel.version=2.6.39.3"));

    ClusterParams p = ClusterParams::gige1us();
    p.applyConfig(cfg);
    Simulator sim;
    Cluster cluster(sim, p);
    EXPECT_EQ(cluster.size(), 8u);
    EXPECT_EQ(cluster.kernel(0).profile().name, "linux-2.6.39.3");
}

TEST(ClusterConfig, ProfileOverridesStackCosts)
{
    Config cfg;
    cfg.set("kernel.tcp_tx_per_packet_cycles", 12345);
    ClusterParams p = ClusterParams::gige1us();
    p.applyConfig(cfg);
    EXPECT_EQ(p.kernel_profile.tcp_tx_per_packet_cycles, 12345u);
}

TEST(ClusterConfig, SeedChangesRngStreams)
{
    ClusterParams a = ClusterParams::gige1us();
    a.topo.servers_per_rack = 2;
    a.topo.racks_per_array = 1;
    a.topo.num_arrays = 1;
    ClusterParams b = a;
    b.seed = a.seed + 1;

    Simulator s1, s2;
    Cluster c1(s1, a), c2(s2, b);
    EXPECT_NE(c1.rng().next(), c2.rng().next());
}

} // namespace
} // namespace sim
} // namespace diablo
