/**
 * @file
 * Tests for the cross-study analytics engine (core/summarize.hh):
 * merging study directories into a cedar-summary-v1 document, the
 * shard-union and kill-mid-study --resume byte-identity guarantees,
 * directory-order invariance, dedup-by-hash of overlapping studies,
 * the hash-conflict refusal, baseline regression deltas, and the
 * failure ledger.
 *
 * The fixtures drive a real 12-point study grid (2 machine shapes x
 * 3 seeds x 2 scales over the tiny inline app) through the study
 * engine, so the summaries under test are built from genuine
 * manifest + artifact trees.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hh"
#include "core/scenario.hh"
#include "core/study.hh"
#include "core/summarize.hh"
#include "sim/error.hh"

namespace
{

using namespace cedar;
namespace fs = std::filesystem;
using cedar::tools::JsonValue;
using sim::ConfigError;

/** Fresh empty directory under the test temp root, removed on exit. */
class TempDir
{
  public:
    TempDir()
    {
        static int counter = 0;
        path_ = fs::path(::testing::TempDir()) /
                ("cedar_summarize_" + std::to_string(::getpid()) +
                 "_" + std::to_string(counter++));
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    fs::path operator/(const std::string &leaf) const
    {
        return path_ / leaf;
    }

  private:
    fs::path path_;
};

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing file: " << p;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const fs::path &p, const std::string &content)
{
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os << content;
    ASSERT_TRUE(os.good()) << "cannot write " << p;
}

/** A fast-running scenario file body. @p extra appends raw text. */
std::string
tinyScenario(const std::string &name, const std::string &extra = "")
{
    return "[scenario]\nname = " + name +
           "\n\n[machine]\nclusters = 1\nces_per_cluster = 2\n"
           "modules = 4\ngroup_size = 2\nseed = 3\n\n"
           "[workload.inline]\napp tiny\nsteps 1\n"
           "serial compute=2000 pages=1\n"
           "xdoall iters=8 compute=300 words=8\n\n"
           "[run]\nscale = 1.0\n" +
           extra;
}

std::string
writeScn(const TempDir &dir, const std::string &file,
         const std::string &content)
{
    const fs::path p = dir / file;
    spit(p, content);
    return p.string();
}

core::StudyOptions
optsFor(const TempDir &out)
{
    core::StudyOptions o;
    o.outDir = out.str();
    return o;
}

/** The 12-point acceptance grid: 2 shapes x 3 seeds x 2 scales. */
std::vector<core::StudyEntry>
gridEntries(const TempDir &scns)
{
    const auto base =
        writeScn(scns, "base.scn", tinyScenario("grid"));
    const std::vector<core::GridAxis> axes = {
        core::parseGridAxis("machine.ces_per_cluster=2,4"),
        core::parseGridAxis("machine.seed=1,2,3"),
        core::parseGridAxis("run.scale=0.5,1.0"),
    };
    auto entries = core::expandScenarioGrid(base, axes);
    EXPECT_EQ(entries.size(), 12u);
    return entries;
}

/** Summary rendered both ways for byte-comparison. */
std::pair<std::string, std::string>
render(const std::vector<std::string> &dirs,
       const std::string &baseline = "")
{
    core::SummarizeOptions o;
    o.dirs = dirs;
    o.baselineDir = baseline;
    const core::Summary s = core::buildSummary(o);
    std::ostringstream json, md;
    core::writeSummaryJson(json, s);
    core::writeSummaryMarkdown(md, s);
    return {json.str(), md.str()};
}

// ------------------------------------------------------------------
// The 12-point grid acceptance summary
// ------------------------------------------------------------------

TEST(Summarize, TwelvePointGridProducesFullSummary)
{
    TempDir scns, full;
    const auto entries = gridEntries(scns);
    const auto rep = core::runStudy(entries, optsFor(full));
    ASSERT_EQ(rep.exitCode(), 0);

    const auto [json, md] = render({full.str()});
    const JsonValue doc = JsonValue::parse(json);
    EXPECT_EQ(doc.at("schema").asString(), "cedar-summary-v1");
    EXPECT_EQ(doc.at("counts").at("scenarios").asNumber(), 12);
    EXPECT_EQ(doc.at("counts").at("failures").asNumber(), 0);
    EXPECT_EQ(doc.at("counts").at("apps").asNumber(), 1);

    // One speedup row per (seed, scale) combination, each spanning
    // the two machine shapes, with speedup 1.0 at the smallest.
    const auto &speedup = doc.at("speedup").asArray();
    ASSERT_EQ(speedup.size(), 6u);
    for (const auto &row : speedup) {
        const auto &points = row.at("points").asArray();
        ASSERT_EQ(points.size(), 2u);
        EXPECT_EQ(points[0].at("nprocs").asNumber(), 2);
        EXPECT_EQ(points[1].at("nprocs").asNumber(), 4);
        EXPECT_DOUBLE_EQ(points[0].at("speedup").asNumber(), 1.0);
        EXPECT_GT(points[1].at("speedup").asNumber(), 0.0);
    }

    // League tables cover the contended classes; memory modules see
    // traffic in every run of this workload.
    bool sawModules = false;
    for (const auto &league : doc.at("class_leagues").asArray())
        if (league.at("class").asString() == "memory_module") {
            sawModules = true;
            EXPECT_FALSE(league.at("rows").asArray().empty());
        }
    EXPECT_TRUE(sawModules);
    EXPECT_FALSE(doc.at("hot_spots").asArray().empty());
    EXPECT_FALSE(doc.at("merged_wait_hists").asArray().empty());

    EXPECT_NE(md.find("# Cedar study summary"), std::string::npos);
    EXPECT_NE(md.find("## Speedup surface"), std::string::npos);
    EXPECT_NE(md.find("## Contention league tables"),
              std::string::npos);
    EXPECT_NE(md.find("### memory_module"), std::string::npos);
    // Every point appears by name in the speedup tables.
    for (const auto &e : entries)
        EXPECT_NE(md.find("| " + e.name + " |"), std::string::npos)
            << e.name;
}

// ------------------------------------------------------------------
// Shard-union, directory-order and resume byte-identity
// ------------------------------------------------------------------

TEST(Summarize, ShardUnionMatchesUnshardedByteForByte)
{
    TempDir scns, full, s0, s1;
    const auto entries = gridEntries(scns);
    ASSERT_EQ(core::runStudy(entries, optsFor(full)).exitCode(), 0);

    auto shard0 = optsFor(s0);
    shard0.shardIndex = 0;
    shard0.shardCount = 2;
    ASSERT_EQ(core::runStudy(entries, shard0).exitCode(), 0);
    auto shard1 = optsFor(s1);
    shard1.shardIndex = 1;
    shard1.shardCount = 2;
    ASSERT_EQ(core::runStudy(entries, shard1).exitCode(), 0);

    const auto whole = render({full.str()});
    const auto sharded = render({s0.str(), s1.str()});
    EXPECT_EQ(whole.first, sharded.first);
    EXPECT_EQ(whole.second, sharded.second);

    // Listing the shards in the other order changes nothing.
    const auto reversed = render({s1.str(), s0.str()});
    EXPECT_EQ(sharded.first, reversed.first);
    EXPECT_EQ(sharded.second, reversed.second);

    // Overlapping inputs dedup by content hash: the same study twice
    // is the same study once.
    const auto doubled = render({full.str(), full.str()});
    EXPECT_EQ(whole.first, doubled.first);
    EXPECT_EQ(whole.second, doubled.second);
}

TEST(Summarize, KillMidStudyThenResumeSummarizesIdentically)
{
    TempDir scns, uninterrupted, killed;
    const auto entries = gridEntries(scns);
    ASSERT_EQ(
        core::runStudy(entries, optsFor(uninterrupted)).exitCode(),
        0);

    // Complete a run, then reconstruct the on-disk state an instant
    // before one scenario finished: its journal records, artifacts
    // and cache entry gone (a kill -9 leaves at most a torn journal
    // tail, which the reader drops).
    const auto firstRep = core::runStudy(entries, optsFor(killed));
    ASSERT_EQ(firstRep.exitCode(), 0);
    const auto &lost = firstRep.rows[4];
    fs::remove(killed / (lost.name + ".json"));
    fs::remove(killed / (lost.name + ".metrics.json"));
    fs::remove(killed / "manifest.json");
    fs::remove_all(fs::path(killed.str()) / "cache" / lost.hash);
    std::istringstream journal(slurp(killed / "manifest.jsonl"));
    std::string filtered, line;
    while (std::getline(journal, line))
        if (line.find("\"scenario\":\"" + lost.name + "\"") ==
            std::string::npos)
            filtered += line + "\n";
    spit(killed / "manifest.jsonl", filtered);

    auto resumeOpts = optsFor(killed);
    resumeOpts.resume = true;
    const auto resumed = core::runStudy(entries, resumeOpts);
    EXPECT_EQ(resumed.ran, 1u);
    EXPECT_EQ(resumed.resumed, 11u);

    const auto ref = render({uninterrupted.str()});
    const auto after = render({killed.str()});
    EXPECT_EQ(ref.first, after.first);
    EXPECT_EQ(ref.second, after.second);
}

// ------------------------------------------------------------------
// Conflicts, failures, baseline
// ------------------------------------------------------------------

TEST(Summarize, SameNameDifferentContentRefusesToMerge)
{
    TempDir scnA, scnB, outA, outB;
    writeScn(scnA, "dup.scn", tinyScenario("dup"));
    writeScn(scnB, "dup.scn",
             tinyScenario("dup", "\n[machine]\nseed = 99\n"));
    ASSERT_EQ(core::runStudy(core::loadScenarioDir(scnA.str()),
                             optsFor(outA))
                  .exitCode(),
              0);
    ASSERT_EQ(core::runStudy(core::loadScenarioDir(scnB.str()),
                             optsFor(outB))
                  .exitCode(),
              0);
    core::SummarizeOptions o;
    o.dirs = {outA.str(), outB.str()};
    EXPECT_THROW(core::buildSummary(o), ConfigError);
}

TEST(Summarize, HostileCountIsAConfigErrorNamingTheFile)
{
    // A count no integer type can hold must never reach a
    // float-to-integer cast: the loader refuses it, naming the file.
    TempDir scns, out;
    writeScn(scns, "tiny.scn", tinyScenario("tiny"));
    ASSERT_EQ(core::runStudy(core::loadScenarioDir(scns.str()),
                             optsFor(out))
                  .exitCode(),
              0);
    const fs::path sum = fs::path(out.str()) / "tiny.json";
    std::string doc = slurp(sum);
    const std::string field = "\"nprocs\": 2";
    const auto at = doc.find(field);
    ASSERT_NE(at, std::string::npos) << doc;
    doc.replace(at, field.size(), "\"nprocs\": 1e300");
    spit(sum, doc);

    core::SummarizeOptions o;
    o.dirs = {out.str()};
    try {
        core::buildSummary(o);
        ADD_FAILURE() << "a 1e300 count was accepted";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(sum.string()), std::string::npos) << what;
        EXPECT_NE(what.find("1e+300"), std::string::npos) << what;
    }
}

TEST(Summarize, EmptyInputsRejected)
{
    EXPECT_THROW(core::buildSummary(core::SummarizeOptions{}),
                 ConfigError);
    TempDir empty;
    core::SummarizeOptions o;
    o.dirs = {empty.str()};
    EXPECT_THROW(core::buildSummary(o), ConfigError); // no manifest
}

TEST(Summarize, FailedScenariosLandInTheLedger)
{
    TempDir scns, out;
    writeScn(scns, "ok.scn", tinyScenario("ok"));
    writeScn(scns, "stuck.scn",
             tinyScenario("stuck",
                          "\n[costs]\ngm_timeout = 0\n"
                          "[run]\nwatchdog_events = 20000\n"
                          "[faults]\ninject = module:0:stuck\n"));
    core::runStudy(core::loadScenarioDir(scns.str()), optsFor(out));

    const auto [json, md] = render({out.str()});
    const JsonValue doc = JsonValue::parse(json);
    EXPECT_EQ(doc.at("counts").at("scenarios").asNumber(), 1);
    const auto &failures = doc.at("failures").asArray();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].at("name").asString(), "stuck");
    EXPECT_NE(md.find("## Failures"), std::string::npos);
    EXPECT_NE(md.find("| stuck |"), std::string::npos);
}

TEST(Summarize, BaselineAgainstItselfIsAllZeroDeltas)
{
    TempDir scns, full;
    const auto entries = gridEntries(scns);
    ASSERT_EQ(core::runStudy(entries, optsFor(full)).exitCode(), 0);

    const auto [json, md] = render({full.str()}, full.str());
    const JsonValue doc = JsonValue::parse(json);
    const auto &base = doc.at("baseline");
    EXPECT_EQ(base.at("scenarios").asNumber(), 12);
    const auto &deltas = base.at("deltas").asArray();
    ASSERT_EQ(deltas.size(), 12u);
    for (const auto &d : deltas) {
        EXPECT_DOUBLE_EQ(d.at("seconds_pct").asNumber(), 0.0);
        EXPECT_DOUBLE_EQ(d.at("d_concurrency").asNumber(), 0.0);
        EXPECT_DOUBLE_EQ(d.at("d_ground_truth_pct").asNumber(), 0.0);
    }
    EXPECT_EQ(doc.at("notes").asArray().size(), 0u);
    EXPECT_NE(md.find("## Baseline deltas"), std::string::npos);
}

} // namespace
