#include <gtest/gtest.h>

#include "topo/clos.hh"

namespace diablo {
namespace topo {
namespace {

ClosParams
smallParams()
{
    ClosParams p;
    p.servers_per_rack = 4;
    p.racks_per_array = 3;
    p.num_arrays = 2;
    return p;
}

TEST(ClosNetwork, Dimensions)
{
    Simulator sim;
    ClosNetwork net(sim, smallParams());
    EXPECT_EQ(net.totalServers(), 24u);
    EXPECT_EQ(net.numRackSwitches(), 6u);
    EXPECT_EQ(net.numArraySwitches(), 2u);
    EXPECT_TRUE(net.hasDcSwitch());
}

TEST(ClosNetwork, SingleRackHasOnlyTor)
{
    Simulator sim;
    ClosParams p;
    p.servers_per_rack = 16;
    p.racks_per_array = 1;
    p.num_arrays = 1;
    ClosNetwork net(sim, p);
    EXPECT_EQ(net.numRackSwitches(), 1u);
    EXPECT_EQ(net.numArraySwitches(), 0u);
    EXPECT_FALSE(net.hasDcSwitch());
    // ToR has exactly 16 ports (no uplink).
    EXPECT_EQ(net.rackSwitch(0).params().num_ports, 16u);
}

TEST(ClosNetwork, SingleArrayHasNoDcSwitch)
{
    Simulator sim;
    ClosParams p = smallParams();
    p.num_arrays = 1;
    ClosNetwork net(sim, p);
    EXPECT_EQ(net.numArraySwitches(), 1u);
    EXPECT_FALSE(net.hasDcSwitch());
    // Array switch has 3 ports (no uplink); ToR has 4+1.
    EXPECT_EQ(net.arraySwitch(0).params().num_ports, 3u);
    EXPECT_EQ(net.rackSwitch(0).params().num_ports, 5u);
}

TEST(ClosNetwork, LayoutHelpers)
{
    Simulator sim;
    ClosNetwork net(sim, smallParams()); // 4 per rack, 3 racks, 2 arrays
    EXPECT_EQ(net.rackOf(0), 0u);
    EXPECT_EQ(net.rackOf(3), 0u);
    EXPECT_EQ(net.rackOf(4), 1u);
    EXPECT_EQ(net.rackOf(23), 5u);
    EXPECT_EQ(net.arrayOf(11), 0u);
    EXPECT_EQ(net.arrayOf(12), 1u);
    EXPECT_EQ(net.indexInRack(6), 2u);
}

TEST(ClosNetwork, RouteSameRack)
{
    Simulator sim;
    ClosNetwork net(sim, smallParams());
    net::SourceRoute r = net.route(0, 2);
    EXPECT_EQ(r.hops(), 1u);
    EXPECT_EQ(r.hop(), 2);
}

TEST(ClosNetwork, RouteSameArray)
{
    Simulator sim;
    ClosNetwork net(sim, smallParams());
    // node 1 (rack 0) -> node 9 (rack 2, idx 1), same array 0.
    net::SourceRoute r = net.route(1, 9);
    EXPECT_EQ(r.hops(), 3u);
    EXPECT_EQ(r.hop(), 4); // ToR uplink port = servers_per_rack
    r.advance();
    EXPECT_EQ(r.hop(), 2); // array switch downlink to rack 2
    r.advance();
    EXPECT_EQ(r.hop(), 1); // ToR port of dst server
}

TEST(ClosNetwork, RouteCrossArray)
{
    Simulator sim;
    ClosNetwork net(sim, smallParams());
    // node 0 (array 0) -> node 17 (array 1, rack 4, local rack 1, idx 1).
    net::SourceRoute r = net.route(0, 17);
    EXPECT_EQ(r.hops(), 5u);
    EXPECT_EQ(r.hop(), 4); // ToR uplink
    r.advance();
    EXPECT_EQ(r.hop(), 3); // array uplink port = racks_per_array
    r.advance();
    EXPECT_EQ(r.hop(), 1); // DC switch port toward array 1
    r.advance();
    EXPECT_EQ(r.hop(), 1); // array 1 downlink to local rack 1
    r.advance();
    EXPECT_EQ(r.hop(), 1); // ToR port of dst
}

TEST(ClosNetwork, HopClasses)
{
    Simulator sim;
    ClosNetwork net(sim, smallParams());
    EXPECT_EQ(net.hopClass(0, 3), HopClass::Local);
    EXPECT_EQ(net.hopClass(0, 8), HopClass::OneHop);
    EXPECT_EQ(net.hopClass(0, 20), HopClass::TwoHop);
    EXPECT_EQ(hopClassName(HopClass::TwoHop), std::string("2-hop"));
}

TEST(ClosNetwork, RouteToSelfPanics)
{
    Simulator sim;
    ClosNetwork net(sim, smallParams());
    EXPECT_DEATH(net.route(5, 5), "route to self");
}

TEST(ClosParams, FromConfig)
{
    Config cfg;
    cfg.set("topo.servers_per_rack", 31);
    cfg.set("topo.racks_per_array", 16);
    cfg.set("topo.num_arrays", 4);
    cfg.set("topo.switch_model", "output_queue");
    cfg.set("topo.rack.port_gbps", 10.0);
    ClosParams p = ClosParams::fromConfig(cfg, "topo.");
    EXPECT_EQ(p.totalServers(), 1984u);
    EXPECT_EQ(p.switch_model, switchm::SwitchModelKind::OutputQueue);
    EXPECT_DOUBLE_EQ(p.rack_sw.port_bw.asGbps(), 10.0);
}

} // namespace
} // namespace topo
} // namespace diablo
