/**
 * @file
 * Tests for the paper's proposed-remedy extensions: chunked
 * self-scheduling of the xdoall index (hot-spot combining) and
 * vector prefetching.
 */

#include <gtest/gtest.h>

#include "apps/workload.hh"
#include "core/breakdown.hh"
#include "core/experiment.hh"
#include "hw/machine.hh"
#include "os/xylem.hh"
#include "rtl/runtime.hh"

namespace
{

using namespace cedar;
using apps::AppModel;
using apps::LoopKind;
using apps::LoopSpec;
using cedar::os::UserAct;

AppModel
xdoallApp(unsigned block, bool prefetch = false)
{
    AppModel app;
    // Not = "x": GCC 12 at -O3 flags that with a false -Wrestrict.
    app.name = std::string(1, 'x');
    app.steps = 4;
    LoopSpec l;
    l.kind = LoopKind::xdoall;
    l.outerIters = 192;
    l.computePerIter = 800;
    l.words = 64;
    l.burstLen = 64;
    l.regionWords = 1 << 15;
    l.pickupBlock = block;
    l.prefetch = prefetch;
    app.phases.push_back(l);
    return app;
}

TEST(ChunkedPickup, AllIterationsExecutedExactlyOnce)
{
    for (unsigned block : {1u, 3u, 8u, 64u}) {
        hw::Machine m{hw::CedarConfig::withProcs(32)};
        rtl::Runtime rt(m, xdoallApp(block));
        rt.run();
        EXPECT_EQ(rt.stats().bodiesExecuted, 4u * 192u)
            << "block " << block;
    }
}

TEST(ChunkedPickup, ReducesGlobalIndexTraffic)
{
    const auto count_rmws = [](unsigned block) {
        const auto r = core::runExperiment(xdoallApp(block), 32);
        return r.globalWords; // rmw words dominate index traffic here
    };
    // Larger blocks -> fewer global fetch&adds. (Data traffic is
    // identical, so the difference is all pick-up transactions.)
    EXPECT_GT(count_rmws(1), count_rmws(8));
}

TEST(ChunkedPickup, CutsPickupTimeOnBigMachines)
{
    const auto pick_pct = [](unsigned block) {
        const auto r = core::runExperiment(xdoallApp(block), 32);
        // Aggregate pick-up share across the machine.
        return r.fractionOfCt(
            r.totalAcct.inUser(UserAct::iter_pickup));
    };
    EXPECT_GT(pick_pct(1), pick_pct(16) * 1.3);
}

TEST(ChunkedPickup, BlockLargerThanLoopStillTerminates)
{
    hw::Machine m{hw::CedarConfig::withProcs(8)};
    rtl::Runtime rt(m, xdoallApp(10'000));
    rt.run();
    EXPECT_EQ(rt.stats().bodiesExecuted, 4u * 192u);
}

TEST(Prefetch, HidesLatencyOnUnloadedMachine)
{
    const auto base = core::runExperiment(xdoallApp(1, false), 1);
    const auto pf = core::runExperiment(xdoallApp(1, true), 1);
    EXPECT_LT(pf.ct, base.ct);
}

TEST(Prefetch, BoundedDownsideUnderSaturation)
{
    // Prefetch synchronises burst issue with slice starts, which
    // can make a saturated network burstier; any slowdown must stay
    // small while uncontended runs must strictly gain.
    for (unsigned procs : {1u, 8u, 32u}) {
        const auto base = core::runExperiment(xdoallApp(1, false), procs);
        const auto pf = core::runExperiment(xdoallApp(1, true), procs);
        EXPECT_LE(pf.ct, base.ct + base.ct / 10) << procs << " proc";
    }
}

TEST(Prefetch, GainShrinksAsMachineSaturates)
{
    // Latency can be hidden; saturated bandwidth cannot.
    auto gain = [](unsigned procs) {
        const auto base = core::runExperiment(xdoallApp(1, false), procs);
        const auto pf = core::runExperiment(xdoallApp(1, true), procs);
        return static_cast<double>(base.ct) / static_cast<double>(pf.ct);
    };
    EXPECT_GT(gain(1), gain(32) - 0.02);
}

TEST(PrefetchCe, ComputeBoundBurstIsFree)
{
    hw::Machine m{hw::CedarConfig::withProcs(1)};
    sim::Tick done = 0;
    // 8 words (latency ~40) under 10000 cycles of compute: the
    // burst is fully hidden.
    m.ce(0).computeWithPrefetch(10000, 0, 8, UserAct::iter_exec,
                                [&] { done = m.now(); });
    m.eq().run();
    EXPECT_EQ(done, 10000u);
    EXPECT_EQ(m.acct().ce(0).inUser(UserAct::iter_exec), 10000u);
}

TEST(PrefetchCe, MemoryBoundBurstDominates)
{
    hw::Machine m{hw::CedarConfig::withProcs(1)};
    sim::Tick done = 0;
    m.ce(0).computeWithPrefetch(10, 0, 256, UserAct::iter_exec,
                                [&] { done = m.now(); });
    m.eq().run();
    EXPECT_GT(done, 256u); // stream time, not compute time
}

TEST(PrefetchCe, ZeroWordsFallsBackToCompute)
{
    hw::Machine m{hw::CedarConfig::withProcs(1)};
    sim::Tick done = 0;
    m.ce(0).computeWithPrefetch(123, 0, 0, UserAct::serial,
                                [&] { done = m.now(); });
    m.eq().run();
    EXPECT_EQ(done, 123u);
}

} // namespace
