/**
 * @file
 * Unit and property tests for the two-stage shuffle-exchange
 * network: routing, unloaded latency, pipelining and contention.
 */

#include <gtest/gtest.h>

#include "mem/global_memory.hh"
#include "net/network.hh"

namespace
{

using namespace cedar;
using cedar::sim::Tick;

struct NetFixture : ::testing::Test
{
    mem::AddressMap map{32, 4};
    mem::GlobalMemory gmem{map};
    net::Network net{4, 8, gmem};
};

TEST_F(NetFixture, UnloadedLatencyMatchesFormula)
{
    // A single chunk of len words, idle: 6 hops, 4 port services of
    // len words, the module service.
    EXPECT_EQ(net.burst(0, 0, 0, 0, 1).unloaded,
              6 * net::Network::hop_latency + 4 * 1 +
                  mem::GlobalMemory::word_service);
    EXPECT_EQ(net.burst(0, 0, 0, 0, 4).unloaded,
              6 * net::Network::hop_latency + 4 * 4 +
                  mem::GlobalMemory::word_service);
    EXPECT_EQ(net::Network::rmw_unloaded,
              6 * net::Network::hop_latency + 4 * 1 +
                  mem::GlobalMemory::rmw_service);
}

TEST_F(NetFixture, SingleChunkSeesUnloadedLatency)
{
    const auto res = net.burst(1000, 0, 0, 0, 4);
    EXPECT_EQ(res.complete - 1000, res.unloaded);
    EXPECT_EQ(res.queueing(1000), 0u);
}

TEST_F(NetFixture, SameGroupSameClusterContends)
{
    // Two CEs of one cluster sending to the same group share the
    // stage-1 output port.
    const auto a = net.burst(0, 0, 0, 0, 4);
    const auto b = net.burst(0, 0, 1, 64, 4);
    EXPECT_GT(b.complete, a.complete);
    EXPECT_GT(b.queueing(0), 0u);
}

TEST_F(NetFixture, DifferentGroupsDoNotContend)
{
    const auto a = net.burst(0, 0, 0, 0, 4);
    const auto b = net.burst(0, 0, 1, 4, 4);
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(b.queueing(0), 0u);
}

TEST_F(NetFixture, CrossClusterMeetsAtStage2AndMemory)
{
    // Different clusters to the same 4 modules: stage-1 is private,
    // stage-2 input ports are per cluster, but the modules are
    // shared, so the second transfer queues there.
    const auto a = net.burst(0, 0, 0, 0, 4);
    const auto b = net.burst(0, 1, 0, 32, 4);
    EXPECT_GE(b.complete, a.complete);
    EXPECT_GT(b.queueing(0), 0u);
}

TEST_F(NetFixture, CrossClusterDifferentModulesIndependent)
{
    const auto a = net.burst(0, 0, 0, 0, 4);
    const auto b = net.burst(0, 1, 0, 4, 4);
    EXPECT_EQ(a.complete, b.complete);
}

TEST_F(NetFixture, RmwReturnsPreviousValue)
{
    auto r1 = net.rmw(0, 0, 0, 5, [](std::uint64_t v) { return v + 3; });
    auto r2 = net.rmw(0, 1, 0, 5, [](std::uint64_t v) { return v + 4; });
    EXPECT_EQ(r1.oldValue, 0u);
    EXPECT_EQ(r2.oldValue, 3u);
    EXPECT_EQ(gmem.peek(5), 7u);
}

TEST_F(NetFixture, RmwHotSpotSerializes)
{
    // Many CEs hammering one lock word: completions spread out by
    // at least the module's RMW service time each.
    Tick prev = 0;
    for (int ce = 0; ce < 8; ++ce) {
        const auto r =
            net.rmw(0, 0, ce, 17, [](std::uint64_t v) { return v + 1; });
        if (ce > 0) {
            EXPECT_GE(r.complete, prev + mem::GlobalMemory::rmw_service);
        }
        prev = r.complete;
    }
    EXPECT_EQ(gmem.peek(17), 8u);
}

TEST_F(NetFixture, WaitAccountingAggregates)
{
    EXPECT_EQ(net.totalWaitTicks(), 0u);
    net.burst(0, 0, 0, 0, 4);
    net.burst(0, 0, 1, 64, 4);
    EXPECT_GT(net.totalWaitTicks(), 0u);
    net.reset();
    gmem.reset();
    EXPECT_EQ(net.totalWaitTicks(), 0u);
}

TEST_F(NetFixture, ReturnPathIsPerCe)
{
    // Two CEs of a cluster to *different* groups only share their
    // cluster's return-B switch, but on distinct ports: no wait.
    const auto a = net.burst(0, 2, 3, 0, 4);
    const auto b = net.burst(0, 2, 4, 4, 4);
    EXPECT_EQ(a.complete, b.complete);
}

TEST_F(NetFixture, SaturationThroughputBoundedByMemory)
{
    // Offered load of 32 CEs streaming simultaneously: aggregate
    // throughput cannot exceed 8 words/cycle (32 modules at 1/4
    // word per cycle each).
    const unsigned words_per_ce = 256;
    Tick last = 0;
    for (int cl = 0; cl < 4; ++cl) {
        for (int ce = 0; ce < 8; ++ce) {
            sim::Addr base =
                static_cast<sim::Addr>(cl * 8 + ce) * words_per_ce;
            const auto r = net.burst(0, cl, ce, base, words_per_ce);
            last = std::max(last, r.complete);
        }
    }
    const double total_words = 32.0 * words_per_ce;
    const double min_time = total_words / 8.0;
    EXPECT_GE(static_cast<double>(last), min_time);
}

/** Property over paths: every burst completes after its issue plus
 *  the unloaded latency, never before. */
class NetLatencyProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(NetLatencyProperty, NeverFasterThanUnloaded)
{
    mem::AddressMap map{32, 4};
    mem::GlobalMemory gmem(map);
    net::Network net(4, 8, gmem);
    const auto [cluster, ce, addr] = GetParam();
    const auto r =
        net.burst(50, cluster, ce, static_cast<sim::Addr>(addr), 2);
    EXPECT_GE(r.complete - 50, r.unloaded);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, NetLatencyProperty,
    ::testing::Combine(::testing::Values(0, 1, 3),
                       ::testing::Values(0, 4, 7),
                       ::testing::Values(0, 5, 30, 63)));

/** The idle completions of four burst shapes on the paper geometry:
 *  a one-word burst, one full chunk, a chunk plus a word (the second
 *  chunk reaches the CE's returnB port first but is served after the
 *  first chunk's reservation there), and FLO52's unaligned 235-word
 *  stream. */
TEST(NetUnloaded, NamedShapesCompleteAtTheirIdleLatency)
{
    struct Case
    {
        sim::Addr addr;
        unsigned words;
        Tick complete;
    };
    static constexpr Case cases[] = {
        {0, 1, 20}, {0, 4, 32}, {0, 5, 33}, {1, 235, 263}};
    const mem::AddressMap map{32, 4};
    for (const bool fast : {true, false}) {
        for (const Case &c : cases) {
            mem::GlobalMemory gmem{map};
            net::Network net{4, 8, gmem};
            net.setFastPath(fast);
            const auto r = net.burst(100, 0, 0, c.addr, c.words);
            EXPECT_EQ(r.complete - 100, c.complete)
                << c.words << " words at " << c.addr << ", fast " << fast;
            EXPECT_EQ(r.unloaded, c.complete)
                << c.words << " words at " << c.addr << ", fast " << fast;
        }
    }
}

/** Exhaustive: on an idle network, a burst of every shape (first
 *  module x 1..512 words) and an RMW complete exactly their
 *  unloaded latency after issue, with the fast path on and off. Each
 *  shape is issued three times, each after the previous completed,
 *  so with the path on the third replays a learned pattern. */
TEST(NetUnloaded, IdleAccessCompletesAtItsUnloadedLatency)
{
    struct Geometry
    {
        unsigned modules, group, clusters, ces;
    };
    const auto inc = [](std::uint64_t v) { return v + 1; };
    for (const Geometry g : {Geometry{32, 4, 4, 8}, Geometry{8, 4, 2, 4}}) {
        const mem::AddressMap map{g.modules, g.group};
        for (const bool fast : {true, false}) {
            mem::GlobalMemory gmem{map};
            net::Network net{g.clusters, g.ces, gmem};
            net.setFastPath(fast);
            const int reps = fast ? 3 : 1;
            Tick t = 0;
            std::uint64_t bad = 0;
            for (unsigned m = 0; m < g.modules; ++m) {
                for (unsigned words = 1; words <= 512; ++words) {
                    for (int rep = 0; rep < reps; ++rep) {
                        const auto r = net.burst(t, 0, 0, m, words);
                        if (r.complete - t != r.unloaded && bad++ < 5)
                            ADD_FAILURE()
                                << g.modules << "/" << g.group << " fast "
                                << fast << ": " << words << " words from "
                                << "module " << m << " complete after "
                                << r.complete - t << ", unloaded "
                                << r.unloaded;
                        t = r.complete;
                    }
                }
            }
            EXPECT_EQ(bad, 0u) << g.modules << "/" << g.group;
            EXPECT_EQ(net.fastStats().hits(),
                      fast ? g.modules * 512u : 0u);
            const auto r = net.rmw(t, 0, 0, 3, inc);
            EXPECT_EQ(r.complete - t, r.unloaded);
            EXPECT_EQ(r.unloaded, net::Network::rmw_unloaded);
        }
    }
}

TEST(Crossbar, PortStatsIndependent)
{
    net::Crossbar xb("x", 4);
    xb.port(0).serve(0, 10);
    xb.port(1).serve(0, 5);
    EXPECT_EQ(xb.totalBusyTicks(), 15u);
    EXPECT_EQ(xb.totalWaitTicks(), 0u);
    xb.reset();
    EXPECT_EQ(xb.totalBusyTicks(), 0u);
}

} // namespace
