/**
 * @file
 * Tests for the Cedar Fortran runtime model: sync cells, loop
 * scheduling semantics, helper engine and the full Runtime on small
 * workloads.
 */

#include <gtest/gtest.h>

#include "apps/workload.hh"
#include "hw/machine.hh"
#include "os/xylem.hh"
#include "rtl/runtime.hh"
#include "rtl/sync.hh"

namespace
{

using namespace cedar;
using apps::AppModel;
using apps::LoopKind;
using apps::LoopSpec;
using apps::SerialSpec;
using cedar::os::UserAct;
using cedar::sim::Tick;

struct SyncFixture : ::testing::Test
{
    hw::Machine m{hw::CedarConfig::withProcs(32)};
};

TEST_F(SyncFixture, UpdateAppliesAtomically)
{
    rtl::SyncCell cell(m, m.allocSyncWord());
    std::uint64_t got = 99;
    cell.update(m.ce(0), [](std::uint64_t v) { return v + 5; },
                UserAct::iter_pickup, [&](std::uint64_t old) { got = old; });
    m.eq().run();
    EXPECT_EQ(got, 0u);
    EXPECT_EQ(cell.value(), 5u);
}

TEST_F(SyncFixture, WaiterWakesAfterUpdate)
{
    rtl::SyncCell cell(m, m.allocSyncWord());
    Tick woke_at = 0;
    cell.wait(m.ce(8), [](std::uint64_t v) { return v == 1; },
              UserAct::helper_wait, [&] { woke_at = m.now(); });
    EXPECT_EQ(cell.waiters(), 1u);
    m.eq().schedule(500, [&] {
        cell.update(m.ce(0), [](std::uint64_t) { return 1; },
                    UserAct::loop_setup, [](std::uint64_t) {});
    });
    m.eq().run();
    EXPECT_GT(woke_at, 500u);
    // The spin time was accounted to the waiter.
    EXPECT_GT(m.acct().ce(8).inUser(UserAct::helper_wait), 0u);
    EXPECT_EQ(cell.waiters(), 0u);
}

TEST_F(SyncFixture, AlreadySatisfiedWaitCostsOnePoll)
{
    rtl::SyncCell cell(m, m.allocSyncWord());
    cell.set(7);
    Tick woke_at = 0;
    cell.wait(m.ce(8), [](std::uint64_t v) { return v == 7; },
              UserAct::barrier_wait, [&] { woke_at = m.now(); });
    m.eq().run();
    EXPECT_GT(woke_at, 0u);
    EXPECT_LE(woke_at, m.costs().spin_wake_latency);
}

TEST_F(SyncFixture, UnsatisfiedPredicateKeepsWaiting)
{
    rtl::SyncCell cell(m, m.allocSyncWord());
    bool woke = false;
    cell.wait(m.ce(8), [](std::uint64_t v) { return v == 2; },
              UserAct::helper_wait, [&] { woke = true; });
    cell.update(m.ce(0), [](std::uint64_t) { return 1; },
                UserAct::loop_setup, [](std::uint64_t) {});
    m.eq().run();
    EXPECT_FALSE(woke);
    EXPECT_EQ(cell.waiters(), 1u);
}

TEST_F(SyncFixture, MultipleWaitersAllWakeStaggered)
{
    rtl::SyncCell cell(m, m.allocSyncWord());
    std::vector<Tick> wakes;
    for (int i = 0; i < 3; ++i) {
        cell.wait(m.ce(8 + 8 * i), [](std::uint64_t v) { return v != 0; },
                  UserAct::helper_wait, [&] { wakes.push_back(m.now()); });
    }
    cell.update(m.ce(0), [](std::uint64_t) { return 1; },
                UserAct::loop_setup, [](std::uint64_t) {});
    m.eq().run();
    ASSERT_EQ(wakes.size(), 3u);
    EXPECT_NE(wakes[0], wakes[1]); // staggered, not a thundering herd
}

// ----- whole-runtime tests on purpose-built tiny workloads -----

AppModel
tinyApp(LoopKind kind, unsigned steps = 3)
{
    AppModel app;
    app.name = "tiny";
    app.steps = steps;
    SerialSpec s;
    s.compute = 2000;
    s.pages = 1;
    app.phases.push_back(s);
    LoopSpec l;
    l.kind = kind;
    l.outerIters = kind == LoopKind::sdoall ? 8 : 64;
    l.innerIters = kind == LoopKind::sdoall ? 16 : 1;
    l.computePerIter = 400;
    l.words = 16;
    l.burstLen = 16;
    l.regionWords = 1 << 14;
    app.phases.push_back(l);
    return app;
}

struct RuntimeCase
{
    unsigned procs;
    LoopKind kind;
};

/** Name a case by its shape (p8_xdoall), so test listings and the
 *  test names CMake derives from them carry no raw struct bytes. */
void
PrintTo(const RuntimeCase &c, std::ostream *os)
{
    *os << "p" << c.procs << "_"
        << (c.kind == LoopKind::sdoall ? "sdoall" : "xdoall");
}

class RuntimeAcrossConfigs : public ::testing::TestWithParam<RuntimeCase>
{
};

TEST_P(RuntimeAcrossConfigs, CompletesWithSaneInvariants)
{
    const auto p = GetParam();
    hw::Machine m{hw::CedarConfig::withProcs(p.procs)};
    const auto app = tinyApp(p.kind);
    rtl::Runtime rt(m, app);
    rt.run();

    EXPECT_TRUE(rt.finished());
    const Tick ct = rt.completionTime();
    EXPECT_GT(ct, 0u);

    // Every loop posted, all bodies executed exactly once.
    EXPECT_EQ(rt.stats().loopsPosted, app.steps);
    const auto &l = std::get<LoopSpec>(app.phases[1]);
    const std::uint64_t bodies =
        static_cast<std::uint64_t>(l.outerIters) * l.innerIters *
        app.steps;
    EXPECT_EQ(rt.stats().bodiesExecuted, bodies);

    // Time conservation: ledger finalized, overshoot bounded by a
    // single op + overlay burst.
    EXPECT_TRUE(m.acct().finalized());
    EXPECT_LT(m.acct().overshoot(), 60000u);
    for (unsigned i = 0; i < m.numCes(); ++i) {
        const auto &a = m.acct().ce(i);
        EXPECT_LE(a.busyTicks(),
                  ct + m.acct().overshoot());
    }

    // Parallel-loop windows are recorded and bounded by CT.
    for (unsigned c = 0; c < m.numClusters(); ++c) {
        EXPECT_LE(rt.windows()[c].sxWall, ct);
        EXPECT_LE(rt.windows()[c].mcWall, ct);
    }
    EXPECT_GT(rt.windows()[0].sxWall, 0u);

    // Helpers joined on multicluster configurations.
    if (m.numClusters() > 1)
        EXPECT_GT(rt.stats().helperJoins, 0u);
    else
        EXPECT_EQ(rt.stats().helperJoins, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RuntimeAcrossConfigs,
    ::testing::Values(RuntimeCase{1, LoopKind::sdoall},
                      RuntimeCase{4, LoopKind::sdoall},
                      RuntimeCase{8, LoopKind::sdoall},
                      RuntimeCase{16, LoopKind::sdoall},
                      RuntimeCase{32, LoopKind::sdoall},
                      RuntimeCase{1, LoopKind::xdoall},
                      RuntimeCase{8, LoopKind::xdoall},
                      RuntimeCase{16, LoopKind::xdoall},
                      RuntimeCase{32, LoopKind::xdoall}));

TEST(Runtime, DeterministicForFixedSeed)
{
    const auto app = tinyApp(LoopKind::sdoall);
    auto run_once = [&] {
        hw::Machine m{hw::CedarConfig::withProcs(16)};
        rtl::Runtime rt(m, app);
        rt.run();
        return rt.completionTime();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Runtime, SeedChangesPerturbTiming)
{
    const auto app = tinyApp(LoopKind::sdoall);
    auto run_seeded = [&](std::uint64_t seed) {
        hw::Machine m{hw::CedarConfig::withProcs(16), seed};
        rtl::Runtime rt(m, app);
        rt.run();
        return rt.completionTime();
    };
    EXPECT_NE(run_seeded(1), run_seeded(2));
}

TEST(Runtime, MainClusterLoopRunsOnlyOnMainCluster)
{
    AppModel app;
    app.name = "mc";
    app.steps = 2;
    LoopSpec l;
    l.kind = LoopKind::mc_cdoall;
    l.outerIters = 32;
    l.computePerIter = 300;
    l.words = 8;
    l.regionWords = 1 << 14;
    app.phases.push_back(l);

    hw::Machine m{hw::CedarConfig::withProcs(32)};
    rtl::Runtime rt(m, app);
    rt.run();
    EXPECT_EQ(rt.stats().mcLoops, 2u);
    // Helper clusters never executed iterations.
    for (unsigned c = 1; c < 4; ++c) {
        EXPECT_EQ(m.acct().cluster(c).inUser(UserAct::iter_exec), 0u);
        EXPECT_EQ(m.acct().cluster(c).inUser(UserAct::mc_loop), 0u);
        EXPECT_EQ(rt.windows()[c].mcWall, 0u);
    }
    EXPECT_GT(m.acct().cluster(0).inUser(UserAct::mc_loop), 0u);
    EXPECT_GT(rt.windows()[0].mcWall, 0u);
}

TEST(Runtime, CdoacrossSerializesItsRegion)
{
    AppModel app;
    app.name = "across";
    app.steps = 1;
    LoopSpec l;
    l.kind = LoopKind::cdoacross;
    l.outerIters = 16;
    l.computePerIter = 100;
    l.serialRegion = 500;
    l.regionWords = 1 << 14;
    app.phases.push_back(l);

    hw::Machine m{hw::CedarConfig::withProcs(8)};
    rtl::Runtime rt(m, app);
    rt.run();
    // The serialised regions alone take 16 x 500 ticks end to end.
    EXPECT_GE(rt.completionTime(), 16u * 500u);
}

TEST(Runtime, XdoallPickupsGoThroughIndexLock)
{
    const auto app = tinyApp(LoopKind::xdoall, 1);
    hw::Machine m{hw::CedarConfig::withProcs(32)};
    rtl::Runtime rt(m, app);
    rt.run();
    // Every CE paid pick-up time (all compete for iterations).
    unsigned ces_with_pickup = 0;
    for (unsigned i = 0; i < m.numCes(); ++i) {
        if (m.acct().ce(i).inUser(UserAct::iter_pickup) > 0)
            ++ces_with_pickup;
    }
    EXPECT_EQ(ces_with_pickup, 32u);
}

TEST(Runtime, SdoallPickupOnlyOnLeads)
{
    const auto app = tinyApp(LoopKind::sdoall, 1);
    hw::Machine m{hw::CedarConfig::withProcs(32)};
    rtl::Runtime rt(m, app);
    rt.run();
    for (unsigned i = 0; i < m.numCes(); ++i) {
        const bool lead = i % 8 == 0;
        const auto t = m.acct().ce(i).inUser(UserAct::iter_pickup);
        if (lead)
            EXPECT_GT(t, 0u) << "lead " << i;
        else
            EXPECT_EQ(t, 0u) << "non-lead " << i;
    }
}

TEST(Runtime, HelperWaitOnlyOnHelperLeads)
{
    const auto app = tinyApp(LoopKind::sdoall, 2);
    hw::Machine m{hw::CedarConfig::withProcs(32)};
    rtl::Runtime rt(m, app);
    rt.run();
    EXPECT_EQ(m.acct().cluster(0).inUser(UserAct::helper_wait), 0u);
    for (unsigned c = 1; c < 4; ++c) {
        EXPECT_GT(m.acct()
                      .ce(c * 8)
                      .inUser(UserAct::helper_wait),
                  0u);
    }
}

TEST(Runtime, BarrierWaitOnlyOnMainLead)
{
    const auto app = tinyApp(LoopKind::sdoall, 2);
    hw::Machine m{hw::CedarConfig::withProcs(32)};
    rtl::Runtime rt(m, app);
    rt.run();
    for (unsigned i = 1; i < m.numCes(); ++i)
        EXPECT_EQ(m.acct().ce(i).inUser(UserAct::barrier_wait), 0u);
}

TEST(Runtime, TraceContainsThePaperInstrumentationPoints)
{
    const auto app = tinyApp(LoopKind::sdoall, 1);
    hw::Machine m{hw::CedarConfig::withProcs(16)};
    rtl::Runtime rt(m, app);
    rt.run();
    std::array<unsigned, static_cast<std::size_t>(hpm::EventId::NUM)>
        counts{};
    for (const auto &r : m.trace().records())
        ++counts[r.event];
    auto n = [&](hpm::EventId id) {
        return counts[static_cast<std::size_t>(id)];
    };
    EXPECT_EQ(n(hpm::EventId::sdoall_post), 1u);
    EXPECT_GT(n(hpm::EventId::helper_join), 0u);
    EXPECT_GT(n(hpm::EventId::pickup_enter), 0u);
    EXPECT_EQ(n(hpm::EventId::pickup_enter),
              n(hpm::EventId::pickup_exit));
    EXPECT_EQ(n(hpm::EventId::iter_start), n(hpm::EventId::iter_end));
    EXPECT_EQ(n(hpm::EventId::barrier_enter),
              n(hpm::EventId::barrier_exit));
    EXPECT_EQ(n(hpm::EventId::serial_enter),
              n(hpm::EventId::serial_exit));
    EXPECT_GT(n(hpm::EventId::wait_enter), 0u);
}

TEST(Runtime, EventLimitGuardsAgainstRunaway)
{
    const auto app = tinyApp(LoopKind::sdoall, 3);
    hw::Machine m{hw::CedarConfig::withProcs(16)};
    rtl::Runtime rt(m, app);
    const auto status = rt.run(/*event_limit=*/100);
    EXPECT_EQ(status, sim::RunStatus::EventLimit);
    EXPECT_EQ(rt.status(), sim::RunStatus::EventLimit);
    EXPECT_FALSE(rt.finished());
    // Progress stopped where the budget ran out, not at zero.
    EXPECT_EQ(rt.completionTime(), m.now());
}

} // namespace
