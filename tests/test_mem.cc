/**
 * @file
 * Unit tests for the global memory substrate: address interleaving
 * and the interleaved module array (its module serve, and atomics
 * through the network's RMW).
 */

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "mem/address_map.hh"
#include "mem/global_memory.hh"
#include "net/network.hh"

namespace
{

using namespace cedar;
using cedar::sim::Tick;

TEST(AddressMap, CedarGeometry)
{
    mem::AddressMap map(32, 4);
    EXPECT_EQ(map.numModules(), 32u);
    EXPECT_EQ(map.groupSize(), 4u);
    EXPECT_EQ(map.numGroups(), 8u);
}

TEST(AddressMap, ConsecutiveWordsHitConsecutiveModules)
{
    mem::AddressMap map(32, 4);
    for (sim::Addr a = 0; a < 100; ++a)
        EXPECT_EQ(map.module(a), a % 32);
}

TEST(AddressMap, GroupChangesEveryGroupSizeWords)
{
    mem::AddressMap map(32, 4);
    EXPECT_EQ(map.group(0), 0u);
    EXPECT_EQ(map.group(3), 0u);
    EXPECT_EQ(map.group(4), 1u);
    EXPECT_EQ(map.group(31), 7u);
    EXPECT_EQ(map.group(32), 0u); // wraps around the modules
}

/** The chunks a pipelined stream over [addr, addr+len) splits into,
 *  walked with AddressMap::chunkLen as the reservation chain does. */
std::vector<mem::Chunk>
chunkWalk(const mem::AddressMap &map, sim::Addr addr, unsigned len)
{
    std::vector<mem::Chunk> chunks;
    while (len > 0) {
        const unsigned take = map.chunkLen(addr, len);
        chunks.push_back({addr, take});
        addr += take;
        len -= take;
    }
    return chunks;
}

TEST(AddressMap, ChunkifyCoversRangeExactly)
{
    mem::AddressMap map(32, 4);
    const auto chunks = chunkWalk(map, 2, 11);
    unsigned total = 0;
    sim::Addr expect = 2;
    for (const auto &c : chunks) {
        EXPECT_EQ(c.addr, expect);
        EXPECT_LE(c.len, map.groupSize());
        // All words of a chunk stay in one group.
        EXPECT_EQ(map.group(c.addr), map.group(c.addr + c.len - 1));
        expect += c.len;
        total += c.len;
    }
    EXPECT_EQ(total, 11u);
}

TEST(AddressMap, AlignedChunkifyProducesFullChunks)
{
    mem::AddressMap map(32, 4);
    const auto chunks = chunkWalk(map, 8, 16);
    ASSERT_EQ(chunks.size(), 4u);
    for (const auto &c : chunks)
        EXPECT_EQ(c.len, 4u);
}

/** Property: the chunk walk is exact for arbitrary geometry and
 *  ranges. */
struct ChunkCase
{
    unsigned modules;
    unsigned group;
    sim::Addr addr;
    unsigned len;
};

/** Name a case by its geometry (m32_g4_a5_l64): test listings, and
 *  the test names CMake derives from them, then carry no raw bytes
 *  of the struct, padding included. */
void
PrintTo(const ChunkCase &c, std::ostream *os)
{
    *os << "m" << c.modules << "_g" << c.group << "_a" << c.addr << "_l"
        << c.len;
}

class ChunkifyProperty : public ::testing::TestWithParam<ChunkCase>
{
};

TEST_P(ChunkifyProperty, ExactCover)
{
    const auto p = GetParam();
    mem::AddressMap map(p.modules, p.group);
    sim::Addr next = p.addr;
    unsigned total = 0;
    for (const auto &c : chunkWalk(map, p.addr, p.len)) {
        EXPECT_EQ(c.addr, next);
        EXPECT_GE(c.len, 1u);
        EXPECT_LE(c.len, p.group);
        next += c.len;
        total += c.len;
    }
    EXPECT_EQ(total, p.len);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ChunkifyProperty,
    ::testing::Values(ChunkCase{32, 4, 0, 1}, ChunkCase{32, 4, 3, 2},
                      ChunkCase{32, 4, 5, 64}, ChunkCase{16, 8, 7, 33},
                      ChunkCase{8, 2, 1, 17}, ChunkCase{64, 4, 63, 128}));

constexpr Tick word_service = mem::GlobalMemory::word_service;
constexpr Tick rmw_service = mem::GlobalMemory::rmw_service;

TEST(GlobalMemory, SingleWordTakesServiceTime)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    const auto w = gm.serveWord(map.module(0), 100, word_service);
    EXPECT_FALSE(w.dead);
    EXPECT_EQ(w.done, 100 + word_service);
    EXPECT_EQ(w.start, 100u); // no wait
}

TEST(GlobalMemory, ChunkWordsServeInParallelAcrossModules)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    // 4 aligned words land on 4 distinct modules: same latency as 1.
    for (sim::Addr a = 0; a < 4; ++a)
        EXPECT_EQ(gm.serveWord(map.module(a), 0, word_service).done,
                  word_service);
}

TEST(GlobalMemory, SameModuleBackToBackQueues)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    gm.serveWord(map.module(0), 0, word_service);
    const auto w = gm.serveWord(map.module(32), 0, word_service);
    EXPECT_EQ(w.done, 2 * word_service); // same module
    EXPECT_GT(w.start, 0u);              // it waited
}

TEST(GlobalMemory, DifferentModulesDoNotInterfere)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    gm.serveWord(map.module(0), 0, word_service);
    const auto w = gm.serveWord(map.module(1), 0, word_service);
    EXPECT_EQ(w.done, word_service);
    EXPECT_EQ(w.start, 0u);
}

/** Atomics reach the memory through the network's RMW, the one path
 *  the machine issues them on. */
struct RmwFixture
{
    mem::AddressMap map{32, 4};
    mem::GlobalMemory gm{map};
    net::Network net{4, 8, gm};
};

TEST(GlobalMemory, RmwAppliesFunctionInServiceOrder)
{
    RmwFixture f;
    const auto r1 =
        f.net.rmw(0, 0, 0, 7, [](std::uint64_t v) { return v + 5; });
    const auto r2 =
        f.net.rmw(0, 0, 0, 7, [](std::uint64_t v) { return v * 2; });
    EXPECT_EQ(r1.oldValue, 0u);
    EXPECT_EQ(r2.oldValue, 5u);
    EXPECT_EQ(f.gm.peek(7), 10u);
}

TEST(GlobalMemory, RmwIsSlowerThanRead)
{
    RmwFixture f;
    const auto res = f.net.rmw(0, 0, 0, 3, [](std::uint64_t v) { return v; });
    EXPECT_EQ(f.gm.moduleServer(3).stats().busyTicks(), rmw_service);
    EXPECT_EQ(res.complete, net::Network::rmw_unloaded);
    const auto read = f.net.burst(1000, 0, 0, 3, 1);
    EXPECT_GT(res.complete, read.complete - 1000);
}

TEST(GlobalMemory, HotSpotSerializesOnOneModule)
{
    RmwFixture f;
    sim::Tick last = 0;
    for (int i = 0; i < 10; ++i) {
        const auto res = f.net.rmw(0, i / 8, i % 8, 11,
                                   [](std::uint64_t v) { return v + 1; });
        EXPECT_GT(res.complete, last);
        last = res.complete;
    }
    // The lock word's module serves the ten RMWs back to back, so
    // the last answer trails an idle RMW's by nine services.
    EXPECT_EQ(last, net::Network::rmw_unloaded + 9 * rmw_service);
    EXPECT_EQ(f.gm.moduleServer(11).stats().busyTicks(), 10 * rmw_service);
    EXPECT_EQ(f.gm.peek(11), 10u);
}

TEST(GlobalMemory, PokeAndPeek)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    EXPECT_EQ(gm.peek(99), 0u);
    gm.poke(99, 1234);
    EXPECT_EQ(gm.peek(99), 1234u);
}

TEST(GlobalMemory, WaitAndBusyAggregates)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    for (const sim::Addr base : {0, 32}) // the same 4 modules twice
        for (sim::Addr a = base; a < base + 4; ++a)
            gm.serveWord(map.module(a), 0, word_service);
    EXPECT_EQ(gm.totalBusyTicks(), 8 * word_service);
    EXPECT_EQ(gm.totalWaitTicks(), 4 * word_service);
}

TEST(GlobalMemory, ResetRestoresPristineState)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    gm.poke(5, 77);
    for (sim::Addr a = 0; a < 4; ++a)
        gm.serveWord(map.module(a), 0, word_service);
    gm.reset();
    EXPECT_EQ(gm.peek(5), 0u);
    EXPECT_EQ(gm.totalBusyTicks(), 0u);
}

} // namespace
