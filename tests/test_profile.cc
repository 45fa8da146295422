/**
 * @file
 * Tests for the per-loop-phase profiler.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/profile.hh"

namespace
{

using namespace cedar;
using apps::AppModel;
using apps::LoopKind;
using apps::LoopSpec;
using apps::SerialSpec;

AppModel
twoLoopApp()
{
    AppModel app;
    app.name = "profiled";
    app.steps = 3;
    SerialSpec s;
    s.compute = 5000;
    app.phases.push_back(s); // phase 0
    LoopSpec big;
    big.kind = LoopKind::sdoall;
    big.outerIters = 8;
    big.innerIters = 32;
    big.computePerIter = 2000;
    big.regionWords = 1 << 15;
    app.phases.push_back(big); // phase 1 (dominant)
    LoopSpec small;
    small.kind = LoopKind::xdoall;
    small.outerIters = 16;
    small.computePerIter = 300;
    small.regionWords = 1 << 14;
    app.phases.push_back(small); // phase 2
    LoopSpec mc;
    mc.kind = LoopKind::mc_cdoall;
    mc.outerIters = 8;
    mc.computePerIter = 400;
    mc.regionWords = 1 << 14;
    app.phases.push_back(mc); // phase 3
    return app;
}

core::RunResult
tracedRun(unsigned procs)
{
    core::RunOptions o;
    o.collectTrace = true;
    return core::runExperiment(twoLoopApp(), procs, o);
}

TEST(LoopProfile, FindsEveryLoopPhase)
{
    const auto r = tracedRun(16);
    const auto profile = core::profileLoopPhases(r);
    ASSERT_EQ(profile.size(), 3u); // serial phase is not a loop
    // All three loop phases present, with correct construct tags.
    bool saw1 = false, saw2 = false, saw3 = false;
    for (const auto &p : profile) {
        if (p.phaseIdx == 1) {
            saw1 = true;
            EXPECT_FALSE(p.isFlat);
            EXPECT_FALSE(p.isMainClusterOnly);
        }
        if (p.phaseIdx == 2) {
            saw2 = true;
            EXPECT_TRUE(p.isFlat);
        }
        if (p.phaseIdx == 3) {
            saw3 = true;
            EXPECT_TRUE(p.isMainClusterOnly);
        }
    }
    EXPECT_TRUE(saw1 && saw2 && saw3);
}

TEST(LoopProfile, CountsInvocationsAndBodies)
{
    const auto r = tracedRun(16);
    for (const auto &p : core::profileLoopPhases(r)) {
        EXPECT_EQ(p.invocations, 3u) << "phase " << p.phaseIdx;
        if (p.phaseIdx == 1) {
            EXPECT_EQ(p.bodies, 3u * 8u * 32u);
        }
        if (p.phaseIdx == 2) {
            EXPECT_EQ(p.bodies, 3u * 16u);
        }
    }
}

TEST(LoopProfile, DominantPhaseRanksFirst)
{
    const auto r = tracedRun(16);
    const auto profile = core::profileLoopPhases(r);
    EXPECT_EQ(profile.front().phaseIdx, 1u);
    EXPECT_GT(profile.front().wallPctOf(r.ct), 50.0);
}

TEST(LoopProfile, WallTimesBoundedByCt)
{
    const auto r = tracedRun(32);
    sim::Tick total = 0;
    for (const auto &p : core::profileLoopPhases(r)) {
        EXPECT_LE(p.wall, r.ct);
        EXPECT_LE(p.barrierWall, p.wall);
        total += p.wall;
    }
    EXPECT_LE(total, r.ct + r.ct / 20);
}

TEST(LoopProfile, PrintsATable)
{
    const auto r = tracedRun(16);
    std::ostringstream os;
    core::printLoopProfile(os, r, core::profileLoopPhases(r));
    EXPECT_NE(os.str().find("sdoall/cdoall"), std::string::npos);
    EXPECT_NE(os.str().find("xdoall"), std::string::npos);
}

TEST(LoopProfile, EmptyOnUntracedRun)
{
    const auto r = core::runExperiment(twoLoopApp(), 8);
    EXPECT_TRUE(core::profileLoopPhases(r).empty());
}

} // namespace
