/**
 * @file
 * Regression suite against the paper's published numbers.
 *
 * Runs the five Perfect application models at FULL size over the
 * whole configuration sweep (this is the slowest test binary) and
 * asserts that every reproduced quantity stays within its
 * calibration band of the paper's Tables 1-4. These tests pin the
 * reproduction: if a model change drifts a speedup curve or an
 * overhead share out of band, they fail.
 */

#include <gtest/gtest.h>

#include <map>

#include "apps/perfect.hh"
#include "core/breakdown.hh"
#include "core/concurrency.hh"
#include "core/contention.hh"
#include "core/experiment.hh"
#include "harness.hh"

namespace
{

using namespace cedar;
using cedar::os::UserAct;

class PaperBands : public ::testing::TestWithParam<const char *>
{
  protected:
    static const std::vector<core::RunResult> &
    sweep(const std::string &name)
    {
        static std::map<std::string, std::vector<core::RunResult>> cache;
        auto it = cache.find(name);
        if (it == cache.end()) {
            it = cache
                     .emplace(name, core::runSweep(
                                        apps::perfectAppByName(name)))
                     .first;
        }
        return it->second;
    }
};

TEST_P(PaperBands, SpeedupWithin30PercentOfPaperEverywhere)
{
    const auto &s = sweep(GetParam());
    const auto &paper = bench::paper_speedup.at(GetParam());
    for (std::size_t i = 1; i < s.size(); ++i) {
        const double sp = s[0].seconds() / s[i].seconds();
        EXPECT_NEAR(sp, paper[i], 0.30 * paper[i])
            << GetParam() << " at " << s[i].nprocs << " proc";
    }
}

TEST_P(PaperBands, ConcurrencyWithin30PercentOfPaperEverywhere)
{
    const auto &s = sweep(GetParam());
    const auto &paper = bench::paper_concurrency.at(GetParam());
    for (std::size_t i = 1; i < s.size(); ++i) {
        EXPECT_NEAR(s[i].machineConcurrency, paper[i], 0.30 * paper[i])
            << GetParam() << " at " << s[i].nprocs << " proc";
    }
}

TEST_P(PaperBands, ContentionGrowsAndStaysInBand)
{
    const auto &s = sweep(GetParam());
    const auto &paper = bench::paper_contention.at(GetParam());
    for (std::size_t i = 1; i < s.size(); ++i) {
        const auto e = core::estimateContention(s[i], s[0]);
        // Shape band: within 10 percentage points of the paper.
        EXPECT_NEAR(e.ovContPct, paper[i], 10.0)
            << GetParam() << " at " << s[i].nprocs << " proc";
    }
    // Growth direction 4 -> 32 processors.
    const auto e4 = core::estimateContention(s[1], s[0]);
    const auto e32 = core::estimateContention(s[4], s[0]);
    EXPECT_GT(e32.ovContPct, e4.ovContPct * 0.6);
}

TEST_P(PaperBands, OsOverheadInPaperBandAt32)
{
    const auto &s = sweep(GetParam());
    const auto os32 = core::ctBreakdownTotal(s[4]).osTotalPct();
    // Paper: 5-21% of completion time on the 4-cluster Cedar.
    EXPECT_GE(os32, 4.0) << GetParam();
    EXPECT_LE(os32, 22.0) << GetParam();
}

TEST_P(PaperBands, MainTaskParallelizationOverheadBandAt32)
{
    const auto &s = sweep(GetParam());
    const auto ovh =
        core::userBreakdown(s[4], 0).overheadPct(s[4].ct);
    // Paper: 10-25% for the main task on the 4-cluster Cedar.
    EXPECT_GE(ovh, 3.0) << GetParam();
    EXPECT_LE(ovh, 28.0) << GetParam();
}

TEST_P(PaperBands, HelperOverheadBandAt32)
{
    const auto &s = sweep(GetParam());
    double max_h = 0;
    for (unsigned c = 1; c < s[4].nClusters; ++c) {
        max_h = std::max(
            max_h, core::userBreakdown(s[4], c).overheadPct(s[4].ct));
    }
    // Paper: 15-44% for helper tasks on the 4-cluster Cedar.
    EXPECT_GE(max_h, 8.0) << GetParam();
    EXPECT_LE(max_h, 70.0) << GetParam();
}

TEST_P(PaperBands, KernelSpinBelowOnePercentBand)
{
    const auto &s = sweep(GetParam());
    for (const auto &r : s) {
        EXPECT_LT(core::ctBreakdownTotal(r).kspinPct, 2.0)
            << GetParam() << " at " << r.nprocs << " proc";
    }
}

TEST_P(PaperBands, BarrierWaitOnlyMattersOnMulticluster)
{
    const auto &s = sweep(GetParam());
    const auto b8 =
        core::userBreakdown(s[2], 0).pctOf(UserAct::barrier_wait,
                                           s[2].ct);
    const auto b32 =
        core::userBreakdown(s[4], 0).pctOf(UserAct::barrier_wait,
                                           s[4].ct);
    EXPECT_LT(b8, 0.5) << GetParam();
    EXPECT_GT(b32, b8) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Apps, PaperBands,
                         ::testing::Values("FLO52", "ARC2D", "MDG",
                                           "OCEAN", "ADM"));

TEST(PaperBandsCross, ContentionRankingMatchesTable4At32)
{
    // Paper Table 4 at 32 processors: FLO52 is the clear maximum.
    std::map<std::string, double> ov;
    for (const auto name : {"FLO52", "ARC2D", "MDG", "OCEAN", "ADM"}) {
        const auto sweep = core::runSweep(apps::perfectAppByName(name),
                                          {}, {1, 32});
        ov[name] =
            core::estimateContention(sweep[1], sweep[0]).ovContPct;
    }
    for (const auto name : {"ARC2D", "MDG", "OCEAN", "ADM"})
        EXPECT_GT(ov["FLO52"], ov[name]) << name;
}

TEST(PaperBandsCross, SpeedupRankingMatchesTable1At32)
{
    std::map<std::string, double> sp;
    for (const auto name : {"FLO52", "ARC2D", "MDG", "ADM"}) {
        const auto sweep = core::runSweep(apps::perfectAppByName(name),
                                          {}, {1, 32});
        sp[name] = sweep[0].seconds() / sweep[1].seconds();
    }
    // Paper: MDG > ARC2D > FLO52 ~ ADM.
    EXPECT_GT(sp["MDG"], sp["ARC2D"]);
    EXPECT_GT(sp["ARC2D"], sp["FLO52"]);
    EXPECT_GT(sp["ARC2D"], sp["ADM"]);
}

} // namespace
