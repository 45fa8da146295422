/**
 * @file
 * Unit and property tests for the two-stage shuffle-exchange
 * network: routing, unloaded latency, pipelining and contention.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/global_memory.hh"
#include "net/fastpath.hh"
#include "net/network.hh"
#include "obs/resource.hh"
#include "obs/telemetry.hh"
#include "obs/tracer.hh"

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

/** Every port of class @p cls that served, as name -> serve count. */
std::map<std::string, std::uint64_t>
servedPorts(const net::Network &net, obs::ResourceClass cls)
{
    std::map<std::string, std::uint64_t> out;
    net.visitPorts([&](const net::PortSite &at, const sim::FifoServer &s) {
        if (at.cls == cls && s.stats().requests() != 0)
            out[at.name()] = s.stats().requests();
    });
    return out;
}

/** Hand-computed completions of the reservation chain on an idle
 *  32/4 memory behind a 4x8 network (hop 2, word service 4, RMW
 *  service 8), with and without module faults, fast path on and off.
 *  Unlike NetUnloaded, the expected ticks come from arithmetic, not
 *  from the chain's own idle probe. */
struct NetChainOracle : ::testing::TestWithParam<bool>
{
    mem::AddressMap map{32, 4};
    mem::GlobalMemory gmem{map};
    net::Network net{4, 8, gmem};

    NetChainOracle() { net.setFastPath(GetParam()); }
};

TEST_P(NetChainOracle, CleanFourWordBurstCompletesAfter32)
{
    // stage1 102->106, stage2 108->112, modules 114->118, returnA
    // 120->124, returnB 126->130, response at 132. Each repeat issues
    // on an idle machine again; the third replays with the path on.
    Tick t = 100;
    for (int rep = 0; rep < 3; ++rep) {
        const auto r = net.burst(t, 0, 0, 0, 4);
        EXPECT_EQ(r.complete - t, 32u) << "repeat " << rep;
        t = r.complete;
    }
    EXPECT_EQ(net.fastStats().hits(), GetParam() ? 1u : 0u);
}

TEST_P(NetChainOracle, DegradedModuleStretchesBurstAndRmw)
{
    gmem.injectModuleFault(1, mem::ModuleFault{0, sim::max_tick, 4});
    // Module 1 serves its word in 16 ticks, 114->130: returnA
    // 132->136, returnB 138->142, response at 144.
    const auto b = net.burst(100, 0, 0, 0, 4);
    EXPECT_EQ(b.complete - 100, 44u);
    EXPECT_EQ(b.unloaded, 32u);
    EXPECT_EQ(gmem.moduleServer(1).stats().busyTicks(), 16u);
    EXPECT_EQ(gmem.moduleServer(0).stats().busyTicks(), 4u);
    // An RMW there: stage1 1002->1003, stage2 1005->1006, module
    // 1008->1040 (8 x 4), returnA 1042->1043, returnB 1045->1046.
    const auto r =
        net.rmw(1000, 0, 0, 1, [](std::uint64_t v) { return v + 1; });
    EXPECT_EQ(r.complete - 1000, 48u);
    EXPECT_EQ(r.unloaded, net::Network::rmw_unloaded);
    EXPECT_EQ(gmem.peek(1), 1u);
    EXPECT_EQ(net.fastStats().hits(), 0u);
}

TEST_P(NetChainOracle, StuckWindowHoldsModuleUntilItCloses)
{
    gmem.injectModuleFault(1, mem::ModuleFault{0, 200, 0});
    // Module 1's word arrives at 114 and starts at 200: returnA
    // 206->210, returnB 212->216, response at 218.
    const auto b = net.burst(100, 0, 0, 0, 4);
    EXPECT_EQ(b.complete - 100, 118u);
    EXPECT_EQ(gmem.moduleServer(1).stats().waitTicks(), 86u);
    EXPECT_EQ(gmem.moduleServer(0).stats().waitTicks(), 0u);
    EXPECT_EQ(net.totalWaitTicks(), 86u);
}

TEST_P(NetChainOracle, DeadModuleSwallowsItsChunksReturn)
{
    gmem.injectModuleFault(1, mem::ModuleFault{});
    // Chunk 0 (modules 0-3) loses module 1's word and sends nothing
    // back; chunk 1 (module 4, group 1) returns normally.
    const auto b = net.burst(100, 0, 0, 0, 5);
    EXPECT_EQ(b.complete, sim::max_tick);
    EXPECT_EQ(gmem.moduleServer(1).stats().requests(), 0u);
    EXPECT_EQ(gmem.moduleServer(4).stats().requests(), 1u);
    const std::map<std::string, std::uint64_t> ret_a{
        {"returnA.group1.port0", 1}};
    const std::map<std::string, std::uint64_t> ret_b{
        {"returnB.cluster0.port0", 1}};
    EXPECT_EQ(servedPorts(net, obs::ResourceClass::return_a_port), ret_a);
    EXPECT_EQ(servedPorts(net, obs::ResourceClass::return_b_port), ret_b);
}

TEST_P(NetChainOracle, ModuloGeometryWrapsChunksAroundTheModules)
{
    // 12 modules in groups of 3, so AddressMap takes its modulo path.
    // 7 words from module 10: chunks {10,11} (group 3), {0,1,2}
    // (group 0), {3,4} (group 1), issued at +0, +2 and +5. The last
    // chunk queues at returnB behind the second (free at +28) and
    // answers at +32.
    const mem::AddressMap map12{12, 3};
    mem::GlobalMemory gm{map12};
    net::Network n{2, 4, gm};
    n.setFastPath(GetParam());
    Tick t = 100;
    for (int rep = 0; rep < 3; ++rep) {
        const auto r = n.burst(t, 1, 2, 22, 7);
        EXPECT_EQ(r.complete - t, 32u) << "repeat " << rep;
        EXPECT_EQ(r.unloaded, 32u);
        t = r.complete;
    }
    const std::map<std::string, std::uint64_t> stage1{
        {"stage1.cluster1.port0", 3}, {"stage1.cluster1.port1", 3},
        {"stage1.cluster1.port3", 3}};
    EXPECT_EQ(servedPorts(n, obs::ResourceClass::stage1_port), stage1);
    for (unsigned m = 0; m < 12; ++m)
        EXPECT_EQ(gm.moduleServer(m).stats().requests(),
                  m >= 5 && m <= 9 ? 0u : 3u)
            << "module " << m;
    // Chunk lengths 2/3/2, summed over the three repeats.
    sim::Tick busy[4] = {};
    n.visitPorts([&](const net::PortSite &at, const sim::FifoServer &s) {
        if (at.cls == obs::ResourceClass::stage1_port)
            busy[at.port] += s.stats().busyTicks();
    });
    EXPECT_EQ(busy[0], 9u);
    EXPECT_EQ(busy[1], 6u);
    EXPECT_EQ(busy[2], 0u);
    EXPECT_EQ(busy[3], 6u);
    EXPECT_EQ(n.fastStats().hits(), GetParam() ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Idle, NetChainOracle, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "fast" : "slow";
                         });

/** One flow milestone: its stage, and when, for how long and where
 *  it was served. */
struct Milestone
{
    obs::FlowStage stage;
    Tick when;
    Tick dur;
    std::int32_t res;

    bool operator==(const Milestone &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Milestone &m)
{
    return os << static_cast<int>(m.stage) << "@" << m.when << "+" << m.dur
              << " res " << m.res;
}

/** One serve of a reserveChain walk. */
struct Serve
{
    obs::ResourceClass cls;
    unsigned idx;
    Tick s;
    Tick done;
};

/** A watched access's flow on a 32/4 memory behind a 4x8 network,
 *  fast path on and off, checked against a reserveChain walk over
 *  copies of the live servers it is about to touch. */
struct NetFlowOracle : ::testing::TestWithParam<bool>
{
    static constexpr unsigned clusters = 4;
    static constexpr unsigned ces = 8;
    static constexpr unsigned groups = 8; // 32 modules in groups of 4
    mem::AddressMap map{32, 4};
    mem::GlobalMemory gmem{map};
    net::Network net{clusters, ces, gmem};
    net::BurstPatternCache shapes{map};
    obs::Tracer tracer;
    std::vector<obs::TelemetryEvent> timeline;

    NetFlowOracle()
    {
        net.setFastPath(GetParam());
        tracer.setTimeline(&timeline);
        net.setTracer(&tracer);
    }

    /** A copy of the live server @p ref stands for at (@p cluster,
     *  @p ce). */
    sim::FifoServer
    live(const net::ServerRef &ref, int cluster, int ce) const
    {
        using C = obs::ResourceClass;
        if (ref.cls == C::memory_module)
            return gmem.moduleServer(ref.idx);
        const auto c = static_cast<unsigned>(cluster);
        const auto [owner, port] =
            ref.cls == C::stage1_port     ? std::pair{c, ref.idx}
            : ref.cls == C::return_b_port ? std::pair{c, unsigned(ce)}
                                          : std::pair{ref.idx, c};
        sim::FifoServer out;
        net.visitPorts([&](const net::PortSite &at, const sim::FifoServer &s) {
            if (at.cls == ref.cls && at.owner == owner && at.port == port)
                out = s;
        });
        return out;
    }

    /** Every serve, in serve order, of @p sh issued at @p start from
     *  (@p cluster, @p ce), walked over copies of the live servers. */
    std::vector<Serve>
    walk(const net::ShapeInfo &sh, Tick start, int cluster, int ce,
         Tick mem_service) const
    {
        std::vector<sim::FifoServer> copy;
        for (const net::ServerRef &ref : sh.servers)
            copy.push_back(live(ref, cluster, ce));
        std::vector<sim::FifoServer *> srv;
        for (sim::FifoServer &x : copy)
            srv.push_back(&x);
        std::vector<Serve> out;
        net::reserveChain(sh, srv.data(), nullptr, start, mem_service,
                          [&](obs::ResourceClass cls, std::uint32_t,
                              unsigned idx, Tick, Tick s, Tick done) {
                              out.push_back({cls, idx, s, done});
                          });
        return out;
    }

    /** @p v as the milestone a serve from (@p cluster, @p ce) marks. */
    static Milestone
    milestone(const Serve &v, int cluster, int ce)
    {
        const auto c = static_cast<std::int32_t>(cluster);
        const auto i = static_cast<std::int32_t>(v.idx);
        switch (v.cls) {
        case obs::ResourceClass::stage1_port:
            return {obs::FlowStage::stage1, v.done, v.done - v.s,
                    c * static_cast<std::int32_t>(groups) + i};
        case obs::ResourceClass::stage2_port:
            return {obs::FlowStage::stage2, v.done, v.done - v.s,
                    i * static_cast<std::int32_t>(clusters) + c};
        case obs::ResourceClass::memory_module:
            return {obs::FlowStage::module, v.done, v.done - v.s, i};
        default:
            return {obs::FlowStage::ret, v.done, v.done - v.s,
                    c * static_cast<std::int32_t>(ces) + ce};
        }
    }

    /** The serves at @p picks of @p serves as milestones. */
    static std::vector<Milestone>
    pick(const std::vector<Serve> &serves, std::vector<std::size_t> picks,
         int cluster, int ce)
    {
        std::vector<Milestone> out;
        for (const std::size_t i : picks)
            out.push_back(milestone(serves.at(i), cluster, ce));
        return out;
    }

    /** The milestones @p flow recorded, in record order. */
    std::vector<Milestone>
    recorded(std::uint32_t flow) const
    {
        std::vector<Milestone> out;
        for (const auto &e : timeline) {
            if (e.kind == obs::EventKind::flow && e.id == flow &&
                e.stage() != obs::FlowStage::issue &&
                e.stage() != obs::FlowStage::complete)
                out.push_back({e.stage(), e.when, e.dur, e.res});
        }
        return out;
    }
};

TEST_P(NetFlowOracle, MultiChunkBurstKeepsItsFirstAndLastChunk)
{
    // Nine words from module 6 from cluster 0 / CE 0: chunks {6,7}
    // (group 1), {8..11} (group 2) and {12,13,14} (group 3), behind
    // two unwatched bursts that leave horizons on its stage1 ports and
    // its modules. Each repeat starts on an idle machine, so with the
    // path on the third replays the watched burst from a pattern.
    const net::ShapeInfo &sh = shapes.shape(6, 9);
    ASSERT_EQ(sh.chain.size(), 3u);
    for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE(rep);
        const Tick t0 = 100000 * static_cast<Tick>(rep);
        net.burst(t0, 0, 1, 4, 64);
        net.burst(t0 + 3, 1, 0, 38, 16);
        const Tick start = t0 + 10;
        const std::vector<Serve> v =
            walk(sh, start, 0, 0, mem::GlobalMemory::word_service);
        // Chunk 0: stage1, stage2, 2 modules, returnA, returnB (0-5);
        // chunk 2: stage1 at 14, 3 modules ending at 18, returnB at 20.
        ASSERT_EQ(v.size(), 21u);
        const auto want = pick(v, {0, 1, 2, 5, 14, 15, 18, 20}, 0, 0);
        const std::uint64_t hits = net.fastStats().hits();
        const std::uint32_t flow = tracer.flowBegin(0, start);
        const auto r = net.burst(start, 0, 0, 6, 9, flow);
        EXPECT_EQ(recorded(flow), want);
        EXPECT_EQ(r.complete, v.back().done + net::Network::hop_latency);
        EXPECT_GT(r.queueing(start), 0u);
        EXPECT_EQ(net.fastStats().hits() - hits,
                  GetParam() && rep == 2 ? 1u : 0u);
    }
}

TEST_P(NetFlowOracle, OneChunkBurstAndRmwKeepEveryStage)
{
    for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE(rep);
        const Tick t0 = 100000 * static_cast<Tick>(rep);
        net.burst(t0, 2, 3, 8, 8);
        // Four words from module 8, one chunk: stage1, stage2, its
        // first and last module, returnB (5 milestones).
        const Tick start = t0 + 4;
        const auto v =
            walk(shapes.shape(8, 4), start, 2, 5,
                 mem::GlobalMemory::word_service);
        ASSERT_EQ(v.size(), 8u);
        std::uint32_t flow = tracer.flowBegin(21, start);
        net.burst(start, 2, 5, 8, 4, flow);
        EXPECT_EQ(recorded(flow), pick(v, {0, 1, 2, 5, 7}, 2, 5));

        // An RMW of word 9 from cluster 1 / CE 7: stage1, stage2, the
        // module for its RMW service, returnB (4 milestones).
        const Tick at = t0 + 6;
        const auto w = walk(shapes.shape(9, 1), at, 1, 7,
                            mem::GlobalMemory::rmw_service);
        ASSERT_EQ(w.size(), 5u);
        flow = tracer.flowBegin(15, at);
        net.rmw(at, 1, 7, 9, [](std::uint64_t x) { return x + 1; }, flow);
        const auto got = recorded(flow);
        EXPECT_EQ(got, pick(w, {0, 1, 2, 4}, 1, 7));
        EXPECT_EQ(got.at(2).dur, mem::GlobalMemory::rmw_service);
    }
    EXPECT_EQ(net.fastStats().hits(), GetParam() ? 2u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Watched, NetFlowOracle, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "fast" : "slow";
                         });

/** A network geometry: clusters of CEs in front of modules in
 *  groups. */
struct Geometry
{
    const char *name;
    unsigned clusters;
    unsigned ces;
    unsigned modules;
    unsigned group;
};

/** Every port's one identity: its class, switch and port on that
 *  switch, its name, and its position among its class's ports. Both
 *  geometries have more module groups than clusters, so a port whose
 *  switch and index were swapped would show. */
struct NetPortIdentity : ::testing::TestWithParam<Geometry>
{
    using C = obs::ResourceClass;
    const Geometry g = GetParam();
    const unsigned groups = g.modules / g.group;
    mem::AddressMap map{g.modules, g.group};
    mem::GlobalMemory gmem{map};
    net::Network net{g.clusters, g.ces, gmem};

    /** @p cls's index among the port classes, stage1 to returnB. */
    static unsigned
    row(C cls)
    {
        return static_cast<unsigned>(cls) -
               static_cast<unsigned>(C::stage1_port);
    }

    /** Per port class, each port's identity and serve count, in
     *  visit order. */
    std::array<std::vector<std::pair<net::PortSite, std::uint64_t>>, 4>
    ports() const
    {
        std::array<std::vector<std::pair<net::PortSite, std::uint64_t>>, 4>
            out;
        net.visitPorts([&](const net::PortSite &at, const sim::FifoServer &s) {
            out[row(at.cls)].emplace_back(at, s.stats().requests());
        });
        return out;
    }
};

TEST_P(NetPortIdentity, EachClassIsVisitedSwitchBySwitch)
{
    using Site = std::tuple<C, unsigned, unsigned>;
    const Site shape[] = {{C::stage1_port, g.clusters, groups},
                          {C::stage2_port, groups, g.clusters},
                          {C::return_a_port, groups, g.clusters},
                          {C::return_b_port, g.clusters, g.ces}};
    std::vector<Site> want;
    for (const auto &[cls, owners, ports] : shape)
        for (unsigned o = 0; o < owners; ++o)
            for (unsigned p = 0; p < ports; ++p)
                want.emplace_back(cls, o, p);
    std::vector<Site> got;
    net.visitPorts([&](const net::PortSite &at, const sim::FifoServer &) {
        got.emplace_back(at.cls, at.owner, at.port);
    });
    EXPECT_EQ(got, want);
}

TEST_P(NetPortIdentity, NamesSaySwitchAndPort)
{
    const auto n = [](const char *sw, unsigned o, unsigned p) {
        return std::string(sw) + std::to_string(o) + ".port" +
               std::to_string(p);
    };
    std::vector<std::string> want;
    for (unsigned c = 0; c < g.clusters; ++c)
        for (unsigned x = 0; x < groups; ++x)
            want.push_back(n("stage1.cluster", c, x));
    for (const char *sw : {"stage2.group", "returnA.group"})
        for (unsigned x = 0; x < groups; ++x)
            for (unsigned c = 0; c < g.clusters; ++c)
                want.push_back(n(sw, x, c));
    for (unsigned c = 0; c < g.clusters; ++c)
        for (unsigned ce = 0; ce < g.ces; ++ce)
            want.push_back(n("returnB.cluster", c, ce));
    std::vector<std::string> got;
    net.visitPorts([&](const net::PortSite &at, const sim::FifoServer &) {
        got.push_back(at.name());
    });
    EXPECT_EQ(got, want);
}

TEST_P(NetPortIdentity, MilestonesNameAPortThatServed)
{
    // 2 * group + 1 words from module group + 2 stream through three
    // groups: 2, 4 and 3 words on 32/4, 1, 3 and 3 on 12/3. The last
    // cluster's last CE issues them, three times on an idle machine;
    // the third replays with the fast path.
    obs::Tracer tracer;
    std::vector<obs::TelemetryEvent> timeline;
    tracer.setTimeline(&timeline);
    net.setTracer(&tracer);
    const unsigned cluster = g.clusters - 1;
    const unsigned ce = g.ces - 1;
    for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE(rep);
        const Tick start = 100000 * static_cast<Tick>(rep);
        const auto before = ports();
        const std::uint32_t flow = tracer.flowBegin(0, start);
        net.burst(start, static_cast<sim::ClusterId>(cluster),
                  static_cast<int>(ce), g.group + 2, 2 * g.group + 1, flow);
        const auto after = ports();
        unsigned named = 0;
        for (const auto &e : timeline) {
            if (e.kind != obs::EventKind::flow || e.id != flow)
                continue;
            const C cls = e.stage() == obs::FlowStage::stage1
                              ? C::stage1_port
                          : e.stage() == obs::FlowStage::stage2
                              ? C::stage2_port
                          : e.stage() == obs::FlowStage::ret
                              ? C::return_b_port
                              : C::NUM;
            if (cls == C::NUM)
                continue;
            const auto &a = after[row(cls)];
            ASSERT_GE(e.res, 0);
            ASSERT_LT(static_cast<std::size_t>(e.res), a.size());
            const auto &[site, served] = a[e.res];
            EXPECT_GT(served, before[row(cls)][e.res].second)
                << site.name() << " did not serve";
            // The issuing CE's own port: on its cluster's stage-1
            // switch, its cluster's input on a stage-2 switch, its own
            // returnB port.
            EXPECT_EQ(cls == C::stage2_port ? site.port : site.owner, cluster)
                << site.name();
            if (cls == C::return_b_port) {
                EXPECT_EQ(site.port, ce) << site.name();
            }
            ++named;
        }
        // stage1, stage2 and ret of the first chunk and of the last.
        EXPECT_EQ(named, 6u);
    }
    EXPECT_EQ(net.fastStats().hits(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, NetPortIdentity,
    ::testing::Values(Geometry{"c4x8", 4, 8, 32, 4},
                      Geometry{"c2x4", 2, 4, 12, 3}),
    [](const ::testing::TestParamInfo<Geometry> &i) {
        return std::string(i.param.name);
    });

} // namespace
