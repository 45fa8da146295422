/**
 * @file
 * Regression suite against the paper's published numbers.
 *
 * Reads the paper generator's tables (paper.json, written by the
 * `paper_tables` ctest fixture from one full-scale run of every paper
 * point and ablation) and asserts that every reproduced quantity stays
 * within its calibration band of the paper's Tables 1-4, and that the
 * ablations keep the shapes EXPERIMENTS.md states. These tests pin
 * the reproduction: if a model change drifts a speedup curve or an
 * overhead share out of band, they fail. They run no experiment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "harness.hh"

namespace
{

using namespace cedar;
using tools::JsonValue;

/** paper.json's tables, parsed once per process. */
const JsonValue &
tables()
{
    static const JsonValue doc = [] {
        std::ifstream in(CEDAR_PAPER_JSON);
        if (!in)
            throw std::runtime_error("cannot read " CEDAR_PAPER_JSON);
        std::ostringstream text;
        text << in.rdbuf();
        auto v = JsonValue::parse(text.str());
        if (v.at("schema").asString() != "cedar-paper-v1")
            throw std::runtime_error(CEDAR_PAPER_JSON
                                     " is not cedar-paper-v1");
        return v;
    }();
    return doc.at("tables");
}

/** The rows of table @p id whose leading cells are @p labels. */
std::vector<const JsonValue *>
rows(const std::string &id, const std::vector<std::string> &labels)
{
    std::vector<const JsonValue *> out;
    for (const auto &row : tables().at(id).at("rows").asArray()) {
        const auto &cells = row.asArray();
        bool match = cells.size() >= labels.size();
        for (std::size_t i = 0; match && i < labels.size(); ++i)
            match = cells[i].asString() == labels[i];
        if (match)
            out.push_back(&row);
    }
    if (out.empty())
        throw std::runtime_error(id + ": no row " + labels.front());
    return out;
}

/** The index of column @p col of table @p id. */
std::size_t
column(const std::string &id, const std::string &col)
{
    const auto &cols = tables().at(id).at("columns").asArray();
    for (std::size_t c = 0; c < cols.size(); ++c) {
        if (cols[c].asString() == col)
            return c;
    }
    throw std::runtime_error(id + ": no column " + col);
}

/** The number in column @p col of the first such row. */
double
cell(const std::string &id, const std::vector<std::string> &labels,
     const std::string &col)
{
    return rows(id, labels).front()->asArray().at(column(id, col))
        .asNumber();
}

std::string
proc(std::size_t i)
{
    return std::to_string(bench::configs[i]) + " proc";
}

class PaperBands : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PaperBands, SpeedupWithin30PercentOfPaperEverywhere)
{
    const std::string app = GetParam();
    const auto &paper = bench::paper_speedup.at(app);
    for (std::size_t i = 1; i < bench::configs.size(); ++i) {
        const double sp = cell("table1", {app, "Speedup"}, proc(i));
        EXPECT_NEAR(sp, paper[i], 0.30 * paper[i])
            << app << " at " << proc(i);
    }
}

TEST_P(PaperBands, ConcurrencyWithin30PercentOfPaperEverywhere)
{
    const std::string app = GetParam();
    const auto &paper = bench::paper_concurrency.at(app);
    for (std::size_t i = 1; i < bench::configs.size(); ++i) {
        EXPECT_NEAR(cell("table1", {app, "Concurr"}, proc(i)), paper[i],
                    0.30 * paper[i])
            << app << " at " << proc(i);
    }
}

TEST_P(PaperBands, ContentionGrowsAndStaysInBand)
{
    const std::string app = GetParam();
    const auto &paper = bench::paper_contention.at(app);
    auto ov = [&](std::size_t i) {
        return cell("table4", {app, "Ov_cont (%)"}, proc(i));
    };
    for (std::size_t i = 1; i < bench::configs.size(); ++i) {
        // Shape band: within 10 percentage points of the paper.
        EXPECT_NEAR(ov(i), paper[i], 10.0) << app << " at " << proc(i);
    }
    // Growth direction 4 -> 32 processors.
    EXPECT_GT(ov(4), ov(1) * 0.6);
}

TEST_P(PaperBands, OsOverheadInPaperBandAt32)
{
    const std::string app = GetParam();
    const double os32 = cell("fig3", {app, "32 proc"}, "machine OS %");
    // Paper: 5-21% of completion time on the 4-cluster Cedar.
    EXPECT_GE(os32, 4.0) << app;
    EXPECT_LE(os32, 22.0) << app;
}

TEST_P(PaperBands, MainTaskParallelizationOverheadBandAt32)
{
    const std::string app = GetParam();
    const double ovh = cell("fig5_9", {app, "32 proc", "Main"}, "total %");
    // Paper: 10-25% for the main task on the 4-cluster Cedar.
    EXPECT_GE(ovh, 3.0) << app;
    EXPECT_LE(ovh, 28.0) << app;
}

TEST_P(PaperBands, HelperOverheadBandAt32)
{
    const std::string app = GetParam();
    const std::size_t total = column("fig5_9", "total %");
    double max_h = 0;
    for (const auto *row : rows("fig5_9", {app, "32 proc"})) {
        if (row->asArray().at(2).asString() != "Main")
            max_h = std::max(max_h, row->asArray().at(total).asNumber());
    }
    // Paper: 15-44% for helper tasks on the 4-cluster Cedar.
    EXPECT_GE(max_h, 8.0) << app;
    EXPECT_LE(max_h, 70.0) << app;
}

TEST_P(PaperBands, KernelSpinBelowOnePercentBand)
{
    const std::string app = GetParam();
    for (std::size_t i = 0; i < bench::configs.size(); ++i) {
        EXPECT_LT(cell("fig3", {app, proc(i)}, "machine spin %"), 2.0)
            << app << " at " << proc(i);
    }
}

TEST_P(PaperBands, BarrierWaitOnlyMattersOnMulticluster)
{
    const std::string app = GetParam();
    const double b8 = cell("fig5_9", {app, "8 proc", "Main"}, "barrier %");
    const double b32 =
        cell("fig5_9", {app, "32 proc", "Main"}, "barrier %");
    EXPECT_LT(b8, 0.5) << app;
    EXPECT_GT(b32, b8) << app;
}

INSTANTIATE_TEST_SUITE_P(Apps, PaperBands,
                         ::testing::Values("FLO52", "ARC2D", "MDG",
                                           "OCEAN", "ADM"));

TEST(PaperBandsCross, ContentionRankingMatchesTable4At32)
{
    // Paper Table 4 at 32 processors: FLO52 is the clear maximum.
    std::map<std::string, double> ov;
    for (const auto &name : bench::app_names)
        ov[name] = cell("table4", {name, "Ov_cont (%)"}, "32 proc");
    for (const auto name : {"ARC2D", "MDG", "OCEAN", "ADM"})
        EXPECT_GT(ov["FLO52"], ov[name]) << name;
}

TEST(PaperBandsCross, SpeedupRankingMatchesTable1At32)
{
    std::map<std::string, double> sp;
    for (const auto name : {"FLO52", "ARC2D", "MDG", "ADM"})
        sp[name] = cell("table1", {name, "Speedup"}, "32 proc");
    // Paper: MDG > ARC2D > FLO52 ~ ADM.
    EXPECT_GT(sp["MDG"], sp["ARC2D"]);
    EXPECT_GT(sp["ARC2D"], sp["FLO52"]);
    EXPECT_GT(sp["ARC2D"], sp["ADM"]);
}

// The ablations' shape criteria, as EXPERIMENTS.md states them.

TEST(PaperAblations, FlatBarrierCostsOverTwiceClustered)
{
    const double clustered = cell(
        "a1", {"4 clusters (bus + 4 updates)"}, "barrier (cycles)");
    const double flat =
        cell("a1", {"32 flat tasks (32 updates)"}, "barrier (cycles)");
    EXPECT_GT(flat, 2.0 * clustered);
}

TEST(PaperAblations, TrafficInFlightRaisesBothBarriers)
{
    const auto barrier = [](const char *scheme) {
        return cell("a1", {scheme}, "barrier (cycles)");
    };
    const double clustered = barrier("4 clusters (bus + 4 updates)");
    const double flat = barrier("32 flat tasks (32 updates)");
    const double clustered_bg = barrier("4 clusters + traffic");
    const double flat_bg = barrier("32 flat tasks + traffic");
    EXPECT_GT(clustered_bg, clustered);
    EXPECT_GT(flat_bg, flat);
    EXPECT_GT(flat_bg, clustered_bg);
}

TEST(PaperAblations, SdoallPickupStaysLowWhileXdoallGrows)
{
    for (std::size_t i = 0; i < bench::configs.size(); ++i) {
        EXPECT_LT(cell("a2", {proc(i)}, "sdoall pickup %"), 1.0)
            << proc(i);
        if (i > 0) {
            EXPECT_GT(cell("a2", {proc(i)}, "xdoall pickup %"),
                      cell("a2", {proc(i - 1)}, "xdoall pickup %"))
                << proc(i);
        }
    }
    EXPECT_GT(cell("a2", {"32 proc"}, "xdoall pickup %"),
              5.0 * cell("a2", {"32 proc"}, "sdoall pickup %"));
}

TEST(PaperAblations, FusionCutsBarrierWaitOfFlo52AndAdm)
{
    for (const std::string app : {"FLO52", "ADM"}) {
        EXPECT_LT(cell("a5", {app + "+fused"}, "barrier %"),
                  cell("a5", {app}, "barrier %"))
            << app;
    }
}

TEST(PaperAblations, CooperationCutsCtxTimeOfEveryApp)
{
    for (const auto &app : bench::app_names) {
        EXPECT_LT(cell("a6", {app}, "ctx % (coop)"),
                  cell("a6", {app}, "ctx % (baseline)"))
            << app;
    }
}

TEST(PaperAblations, ChunkedPickupFallsAtEveryBlockStep)
{
    const std::vector<std::string> blocks = {"1", "2", "4", "8", "16"};
    for (std::size_t i = 1; i < blocks.size(); ++i) {
        EXPECT_LT(cell("a7", {blocks[i]}, "pickup %"),
                  cell("a7", {blocks[i - 1]}, "pickup %"))
            << "block " << blocks[i];
    }
    EXPECT_GT(cell("a7", {"16"}, "speedup vs block 1"), 1.5);
}

TEST(PaperAblations, PrefetchGainShrinksWithScale)
{
    for (std::size_t i = 0; i < bench::configs.size(); ++i) {
        EXPECT_GT(cell("a8", {proc(i)}, "gain"), 1.0) << proc(i);
        if (i > 0) {
            EXPECT_LT(cell("a8", {proc(i)}, "gain"),
                      cell("a8", {proc(i - 1)}, "gain"))
                << proc(i);
        }
    }
}

} // namespace
