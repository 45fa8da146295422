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
    // 6 hops, 4 port services of len words, module service.
    EXPECT_EQ(net.unloadedLatency(1),
              6 * net::Network::hop_latency + 4 * 1 +
                  mem::GlobalMemory::word_service);
    EXPECT_EQ(net.unloadedLatency(4),
              6 * net::Network::hop_latency + 4 * 4 +
                  mem::GlobalMemory::word_service);
    EXPECT_EQ(net.unloadedLatency(1, true),
              6 * net::Network::hop_latency + 4 * 1 +
                  mem::GlobalMemory::rmw_service);
}

TEST_F(NetFixture, SingleChunkSeesUnloadedLatency)
{
    const auto res = net.chunkAccess(1000, 0, 0, mem::Chunk{0, 4});
    EXPECT_EQ(res.complete - 1000, res.unloaded);
    EXPECT_EQ(res.queueing(1000), 0u);
}

TEST_F(NetFixture, SameGroupSameClusterContends)
{
    // Two CEs of one cluster sending to the same group share the
    // stage-1 output port.
    const auto a = net.chunkAccess(0, 0, 0, mem::Chunk{0, 4});
    const auto b = net.chunkAccess(0, 0, 1, mem::Chunk{64, 4});
    EXPECT_GT(b.complete, a.complete);
    EXPECT_GT(b.queueing(0), 0u);
}

TEST_F(NetFixture, DifferentGroupsDoNotContend)
{
    const auto a = net.chunkAccess(0, 0, 0, mem::Chunk{0, 4});
    const auto b = net.chunkAccess(0, 0, 1, mem::Chunk{4, 4});
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(b.queueing(0), 0u);
}

TEST_F(NetFixture, CrossClusterMeetsAtStage2AndMemory)
{
    // Different clusters to the same 4 modules: stage-1 is private,
    // stage-2 input ports are per cluster, but the modules are
    // shared, so the second transfer queues there.
    const auto a = net.chunkAccess(0, 0, 0, mem::Chunk{0, 4});
    const auto b = net.chunkAccess(0, 1, 0, mem::Chunk{32, 4});
    EXPECT_GE(b.complete, a.complete);
    EXPECT_GT(b.queueing(0), 0u);
}

TEST_F(NetFixture, CrossClusterDifferentModulesIndependent)
{
    const auto a = net.chunkAccess(0, 0, 0, mem::Chunk{0, 4});
    const auto b = net.chunkAccess(0, 1, 0, mem::Chunk{4, 4});
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
    net.chunkAccess(0, 0, 0, mem::Chunk{0, 4});
    net.chunkAccess(0, 0, 1, mem::Chunk{64, 4});
    EXPECT_GT(net.totalWaitTicks(), 0u);
    net.reset();
    gmem.reset();
    EXPECT_EQ(net.totalWaitTicks(), 0u);
}

TEST_F(NetFixture, ReturnPathIsPerCe)
{
    // Two CEs of a cluster to *different* groups only share their
    // cluster's return-B switch, but on distinct ports: no wait.
    const auto a = net.chunkAccess(0, 2, 3, mem::Chunk{0, 4});
    const auto b = net.chunkAccess(0, 2, 4, mem::Chunk{4, 4});
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

/** Property over geometry: every chunk access completes after its
 *  issue plus the unloaded latency, never before. */
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
    const auto r = net.chunkAccess(
        50, cluster, ce,
        mem::Chunk{static_cast<sim::Addr>(addr), 2});
    EXPECT_GE(r.complete - 50, r.unloaded);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, NetLatencyProperty,
    ::testing::Combine(::testing::Values(0, 1, 3),
                       ::testing::Values(0, 4, 7),
                       ::testing::Values(0, 5, 30, 63)));

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
