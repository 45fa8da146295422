/**
 * @file
 * Tests for the crash-safe study engine (core/study.hh): canonical
 * content hashing, atomic artifact writes, per-scenario fault
 * isolation (parse errors and watchdog-caught livelocks), the
 * content-addressed result cache (bit-identity, corruption
 * detection), deterministic sharding (union == full run), grid
 * expansion, and the flagship kill-mid-study --resume bit-identity
 * guarantee.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/scenario.hh"
#include "core/study.hh"
#include "sim/error.hh"

namespace
{

using namespace cedar;
namespace fs = std::filesystem;
using sim::ConfigError;

/** Fresh empty directory under the test temp root, removed on exit. */
class TempDir
{
  public:
    TempDir()
    {
        static int counter = 0;
        path_ = fs::path(::testing::TempDir()) /
                ("cedar_study_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++));
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
           "xdoall iters=8 compute=300 words=8\n" +
           extra;
}

/**
 * A scenario whose GM accesses hang forever (stuck module, no
 * timeout): only the livelock watchdog can end it, with RunStatus
 * Deadlock. The tight watchdog budget keeps the test fast.
 */
std::string
stuckScenario(const std::string &name)
{
    return tinyScenario(name,
                        "\n[costs]\ngm_timeout = 0\n"
                        "[run]\nwatchdog_events = 20000\n"
                        "[faults]\ninject = module:0:stuck\n");
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

const core::StudyRow &
rowNamed(const core::StudyReport &rep, const std::string &name)
{
    for (const auto &row : rep.rows)
        if (row.name == name)
            return row;
    ADD_FAILURE() << "no row named " << name;
    static core::StudyRow none;
    return none;
}

// ------------------------------------------------------------------
// Canonical hashing
// ------------------------------------------------------------------

TEST(StudyHash, StableAcrossReformatting)
{
    const auto spec =
        core::parseScenarioString(tinyScenario("hashme"));
    const auto reparsed =
        core::parseScenarioString(core::formatScenario(spec));
    EXPECT_EQ(core::canonicalHash(spec), core::canonicalHash(reparsed));
    // Comments and blank lines are not content.
    const auto commented = core::parseScenarioString(
        "# a comment\n\n" + tinyScenario("hashme"));
    EXPECT_EQ(core::canonicalHash(spec),
              core::canonicalHash(commented));
}

TEST(StudyHash, SensitiveToEveryKnob)
{
    const auto base =
        core::parseScenarioString(tinyScenario("hashme"));
    auto seed = base;
    seed.options.seed = 99;
    EXPECT_NE(core::canonicalHash(base), core::canonicalHash(seed));
    auto scale = base;
    scale.options.scale = 0.5;
    EXPECT_NE(core::canonicalHash(base), core::canonicalHash(scale));
    auto shape = base;
    shape.config.cesPerCluster = 4;
    EXPECT_NE(core::canonicalHash(base), core::canonicalHash(shape));
    auto coop = base;
    coop.config.costs.ctx_rtl_coop = true;
    EXPECT_NE(core::canonicalHash(base), core::canonicalHash(coop));
}

TEST(StudyHash, EqualHashesRunIdentically)
{
    // The hash keys the result cache, so a hit must equal a fresh
    // run: specs that hash equal run identically, whether a setting
    // came from the text or was made on the parsed spec.
    const std::string stuck = "[faults]\ninject = module:0:stuck\n";
    const auto text = core::parseScenarioString(tinyScenario(
        "hashme", "\n[machine]\nseed = 7\n[costs]\ngm_timeout = 30000\n" +
                      stuck));
    auto made = core::parseScenarioString(tinyScenario("hashme", "\n" + stuck));
    made.options.seed = 7;
    made.config.costs.gm_timeout = 30000;
    ASSERT_EQ(core::canonicalHash(text), core::canonicalHash(made));

    const auto a = core::runScenario(text);
    const auto b = core::runScenario(made);
    EXPECT_EQ(a.status, sim::RunStatus::Faulted);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.ct, b.ct);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.globalWords, b.globalWords);
    EXPECT_EQ(a.faultLog.events().size(), b.faultLog.events().size());
}

TEST(StudyHash, HexIsFixedWidth)
{
    EXPECT_EQ(core::hashHex(0), "0000000000000000");
    EXPECT_EQ(core::hashHex(0xdeadbeefULL), "00000000deadbeef");
    EXPECT_EQ(core::hashHex(~0ULL), "ffffffffffffffff");
}

// ------------------------------------------------------------------
// Atomic writes
// ------------------------------------------------------------------

TEST(AtomicWrite, WritesAndReplaces)
{
    TempDir dir;
    const fs::path p = dir / "doc.json";
    core::atomicWriteFile(p.string(), std::string("first\n"));
    EXPECT_EQ(slurp(p), "first\n");
    core::atomicWriteFile(p.string(), std::string("second\n"));
    EXPECT_EQ(slurp(p), "second\n");
}

TEST(AtomicWrite, FailedWriterPreservesOriginal)
{
    TempDir dir;
    const fs::path p = dir / "doc.json";
    core::atomicWriteFile(p.string(), std::string("intact\n"));
    EXPECT_THROW(
        core::atomicWriteFile(p.string(),
                              [](std::ostream &os) {
                                  os << "partial garbage";
                                  throw sim::SimError("disk on fire");
                              }),
        sim::SimError);
    EXPECT_EQ(slurp(p), "intact\n");
    // No temporary litter either.
    unsigned files = 0;
    for (const auto &e : fs::directory_iterator(dir.str()))
        (void)e, ++files;
    EXPECT_EQ(files, 1u);
}

// A symlink, device or FIFO is not the writer's to replace: the bytes
// go through it, and the node itself stays.
TEST(AtomicWrite, WritesThroughASymlink)
{
    TempDir dir;
    const fs::path target = dir / "target.json";
    const fs::path link = dir / "link.json";
    core::atomicWriteFile(target.string(), std::string("old\n"));
    fs::create_symlink(target, link);
    core::atomicWriteFile(link.string(), std::string("new\n"));
    EXPECT_TRUE(fs::is_symlink(link));
    EXPECT_EQ(slurp(target), "new\n");
}

TEST(AtomicWrite, WritesIntoAFifo)
{
    TempDir dir;
    const fs::path fifo = dir / "pipe";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    // A reader opened first keeps the writer's open from blocking,
    // and the payload fits in the pipe buffer.
    const int rd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
    ASSERT_GE(rd, 0);
    core::atomicWriteFile(fifo.string(), std::string("through\n"));
    EXPECT_TRUE(fs::is_fifo(fifo));
    char buf[32] = {};
    const auto n = ::read(rd, buf, sizeof buf);
    ::close(rd);
    EXPECT_EQ(std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0),
              "through\n");
}

// ------------------------------------------------------------------
// Loading: duplicate names and parse isolation
// ------------------------------------------------------------------

TEST(StudyLoad, DuplicateNamesRejectedNamingBothFiles)
{
    TempDir dir;
    writeScn(dir, "first.scn", tinyScenario("same"));
    writeScn(dir, "second.scn", tinyScenario("same"));
    try {
        core::loadScenarioDir(dir.str());
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("same"), std::string::npos) << what;
        EXPECT_NE(what.find("first.scn"), std::string::npos) << what;
        EXPECT_NE(what.find("second.scn"), std::string::npos) << what;
    }
}

TEST(StudyLoad, EmptyAndMissingDirectoriesRejected)
{
    TempDir dir;
    EXPECT_THROW(core::loadScenarioDir(dir.str()), ConfigError);
    EXPECT_THROW(core::loadScenarioDir(dir.str() + "/nowhere"),
                 ConfigError);
}

TEST(StudyLoad, MalformedFileBecomesFailedEntry)
{
    TempDir dir;
    writeScn(dir, "bad.scn", "[machine]\nprocs = seven\n");
    writeScn(dir, "good.scn", tinyScenario("good"));
    const auto entries = core::loadScenarioDir(dir.str());
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_FALSE(entries[0].parseError.empty());
    EXPECT_EQ(entries[0].name, "bad"); // file stem fallback
    EXPECT_FALSE(entries[0].spec.has_value());
    EXPECT_TRUE(entries[1].parseError.empty());
    EXPECT_EQ(entries[1].name, "good");
}

// ------------------------------------------------------------------
// Fault isolation
// ------------------------------------------------------------------

TEST(StudyRun, MalformedScenarioDoesNotAbortSiblings)
{
    TempDir scns, out;
    writeScn(scns, "bad.scn", "[nonsense]\n");
    writeScn(scns, "good.scn", tinyScenario("good"));
    const auto rep =
        core::runStudy(core::loadScenarioDir(scns.str()), optsFor(out));

    EXPECT_EQ(rowNamed(rep, "good").state, core::StudyState::done);
    EXPECT_TRUE(fs::exists(out / "good.json"));
    EXPECT_TRUE(fs::exists(out / "good.metrics.json"));

    const auto &bad = rowNamed(rep, "bad");
    EXPECT_EQ(bad.state, core::StudyState::failed);
    EXPECT_EQ(bad.status, "parse-error");
    EXPECT_FALSE(bad.error.empty());
    EXPECT_EQ(rep.exitCode(), 1);

    // The journal carries the diagnostic.
    const auto journal = slurp(out / "manifest.jsonl");
    EXPECT_NE(journal.find("\"rec\":\"failed\""), std::string::npos);
    EXPECT_NE(journal.find("parse-error"), std::string::npos);
}

TEST(StudyRun, LivelockCaughtByWatchdogWithBoundedRetries)
{
    TempDir scns, out;
    writeScn(scns, "healthy.scn", tinyScenario("healthy"));
    writeScn(scns, "stuck.scn", stuckScenario("stuck"));
    auto opts = optsFor(out);
    opts.retries = 1;
    const auto rep =
        core::runStudy(core::loadScenarioDir(scns.str()), opts);

    EXPECT_EQ(rowNamed(rep, "healthy").state, core::StudyState::done);
    const auto &stuck = rowNamed(rep, "stuck");
    EXPECT_EQ(stuck.state, core::StudyState::failed);
    EXPECT_EQ(stuck.status, "deadlock");
    EXPECT_EQ(stuck.attempts, 2u) << "retries = 1 means 2 attempts";
    // Lost progress (not a hard error): exit code 3.
    EXPECT_EQ(rep.exitCode(), 3);
    // A deadlocked result must never be cached.
    EXPECT_FALSE(
        fs::exists(fs::path(out.str()) / "cache" / stuck.hash));
}

TEST(StudyRun, MixedFailureStudyCompletesHealthySiblings)
{
    // The acceptance scenario: malformed + livelocking + healthy in
    // one study — healthy completes, both failures are recorded
    // with diagnostics, exit is non-zero.
    TempDir scns, out;
    writeScn(scns, "bad.scn", "not a scenario at all\n");
    writeScn(scns, "healthy.scn", tinyScenario("healthy"));
    writeScn(scns, "stuck.scn", stuckScenario("stuck"));
    const auto rep =
        core::runStudy(core::loadScenarioDir(scns.str()), optsFor(out));

    EXPECT_EQ(rowNamed(rep, "healthy").state, core::StudyState::done);
    EXPECT_TRUE(fs::exists(out / "healthy.json"));
    EXPECT_EQ(rowNamed(rep, "bad").state, core::StudyState::failed);
    EXPECT_EQ(rowNamed(rep, "stuck").state, core::StudyState::failed);
    EXPECT_FALSE(rowNamed(rep, "bad").error.empty());
    EXPECT_FALSE(rowNamed(rep, "stuck").error.empty());
    EXPECT_EQ(rep.failed, 2u);
    EXPECT_EQ(rep.exitCode(), 1) << "hard failure outranks exit 3";

    // Both failures land in the snapshot with their diagnostics.
    const auto snapshot = slurp(out / "manifest.json");
    EXPECT_NE(snapshot.find("\"failed\": 2"), std::string::npos)
        << snapshot;
}

// ------------------------------------------------------------------
// Result cache
// ------------------------------------------------------------------

TEST(StudyCache, SecondPassServesBitIdenticalArtifacts)
{
    TempDir scns, outA, outB;
    writeScn(scns, "a.scn", tinyScenario("a"));
    // A fault-injected (but completing) scenario goes through the
    // cache path too.
    writeScn(scns, "f.scn",
             tinyScenario("f",
                          "\n[faults]\ninject = module:1:degrade:2x\n"));
    const auto entries = core::loadScenarioDir(scns.str());

    const auto first = core::runStudy(entries, optsFor(outA));
    EXPECT_EQ(first.ran, 2u);
    EXPECT_EQ(first.exitCode(), 0);

    // Fresh output directory, shared cache: everything is a hit.
    auto optsB = optsFor(outB);
    optsB.cacheDir = outA.str() + "/cache";
    const auto second = core::runStudy(entries, optsB);
    EXPECT_EQ(second.ran, 0u);
    EXPECT_EQ(second.cached, 2u);
    for (const char *name : {"a", "f"}) {
        EXPECT_EQ(slurp(outA / (std::string(name) + ".json")),
                  slurp(outB / (std::string(name) + ".json")))
            << name;
        EXPECT_EQ(slurp(outA / (std::string(name) + ".metrics.json")),
                  slurp(outB / (std::string(name) + ".metrics.json")))
            << name;
    }
    EXPECT_EQ(slurp(outA / "manifest.json"),
              slurp(outB / "manifest.json"))
        << "deterministic snapshot must not depend on cache hits";
}

TEST(StudyCache, CorruptCacheEntryIsReRunNotServed)
{
    TempDir scns, out;
    writeScn(scns, "a.scn", tinyScenario("a"));
    const auto entries = core::loadScenarioDir(scns.str());
    const auto first = core::runStudy(entries, optsFor(out));
    ASSERT_EQ(first.ran, 1u);
    const std::string good = slurp(out / "a.json");

    // Flip bytes in the cached summary: the stored content hash no
    // longer matches, so the probe must miss.
    const fs::path cached = fs::path(out.str()) / "cache" /
                            first.rows[0].hash / "summary.json";
    spit(cached, "{\"schema\": \"cedar-scenario-v1\", \"evil\": 1}\n");

    TempDir outB;
    auto optsB = optsFor(outB);
    optsB.cacheDir = out.str() + "/cache";
    const auto second = core::runStudy(entries, optsB);
    EXPECT_EQ(second.cached, 0u);
    EXPECT_EQ(second.ran, 1u);
    EXPECT_EQ(slurp(outB / "a.json"), good);
}

TEST(StudyCache, UnparseableEntryIsACacheMiss)
{
    TempDir scns, out;
    writeScn(scns, "a.scn", tinyScenario("a"));
    const auto entries = core::loadScenarioDir(scns.str());
    const auto first = core::runStudy(entries, optsFor(out));
    ASSERT_EQ(first.ran, 1u);
    const std::string good = slurp(out / "a.json");

    // A torn entry.json, then one whose hash has the wrong type:
    // each is a miss that re-runs, never a study error.
    const fs::path entry = fs::path(out.str()) / "cache" /
                           first.rows[0].hash / "entry.json";
    for (const char *bad :
         {"{\"schema\": \"cedar-cache-v2\", \"ha",
          "{\"schema\": \"cedar-cache-v2\", \"hash\": 7}"}) {
        spit(entry, bad);
        TempDir outB;
        auto optsB = optsFor(outB);
        optsB.cacheDir = out.str() + "/cache";
        const auto second = core::runStudy(entries, optsB);
        EXPECT_EQ(second.cached, 0u) << bad;
        EXPECT_EQ(second.ran, 1u) << bad;
        EXPECT_EQ(second.exitCode(), 0) << bad;
        EXPECT_EQ(slurp(outB / "a.json"), good) << bad;
    }
}

TEST(StudyCache, PreviousSchemaEntryIsReRunNotServed)
{
    TempDir scns, out;
    writeScn(scns, "a.scn", tinyScenario("a"));
    const auto entries = core::loadScenarioDir(scns.str());
    const auto first = core::runStudy(entries, optsFor(out));
    ASSERT_EQ(first.ran, 1u);
    const std::string good = slurp(out / "a.json");

    // An entry that verifies in every other way but carries the
    // previous schema, whose results an older model computed under
    // the same hash, must miss.
    const fs::path entry = fs::path(out.str()) / "cache" /
                           first.rows[0].hash / "entry.json";
    const std::string current = "cedar-cache-v2";
    std::string meta = slurp(entry);
    const std::size_t at = meta.find(current);
    ASSERT_NE(at, std::string::npos);
    spit(entry, meta.replace(at, current.size(), "cedar-cache-v1"));

    TempDir outB;
    auto optsB = optsFor(outB);
    optsB.cacheDir = out.str() + "/cache";
    const auto second = core::runStudy(entries, optsB);
    EXPECT_EQ(second.cached, 0u);
    EXPECT_EQ(second.ran, 1u);
    EXPECT_EQ(slurp(outB / "a.json"), good);
}

TEST(StudyCache, PaperPointLadderBitIdenticalThroughCache)
{
    // The five paper machine points, expanded as a grid and pushed
    // through the cache path: cached artifacts must be bit-identical
    // to the fresh run at every point.
    TempDir scns, outA, outB;
    const auto base = writeScn(
        scns, "ladder.scn",
        "[machine]\nprocs = 1\n\n[run]\nscale = 0.05\n\n"
        "[workload.inline]\napp tiny\nsteps 1\n"
        "serial compute=2000 pages=1\n"
        "xdoall iters=16 compute=300 words=8\n");
    const auto entries = core::expandScenarioGrid(
        base, {core::parseGridAxis("machine.procs=1,4,8,16,32")});
    ASSERT_EQ(entries.size(), 5u);
    for (const auto &e : entries)
        EXPECT_TRUE(e.parseError.empty()) << e.parseError;

    const auto fresh = core::runStudy(entries, optsFor(outA));
    EXPECT_EQ(fresh.ran, 5u);
    EXPECT_EQ(fresh.exitCode(), 0);

    auto optsB = optsFor(outB);
    optsB.cacheDir = outA.str() + "/cache";
    const auto cached = core::runStudy(entries, optsB);
    EXPECT_EQ(cached.cached, 5u);
    for (const auto &row : fresh.rows) {
        EXPECT_EQ(slurp(outA / (row.name + ".json")),
                  slurp(outB / (row.name + ".json")))
            << row.name;
        EXPECT_EQ(slurp(outA / (row.name + ".metrics.json")),
                  slurp(outB / (row.name + ".metrics.json")))
            << row.name;
    }
}

// ------------------------------------------------------------------
// Sharding
// ------------------------------------------------------------------

TEST(StudyShard, UnionOfShardsEqualsFullRun)
{
    TempDir scns, full, s0, s1;
    for (const char *name : {"a", "b", "c"})
        writeScn(scns, std::string(name) + ".scn",
                 tinyScenario(name));
    const auto entries = core::loadScenarioDir(scns.str());

    const auto fullRep = core::runStudy(entries, optsFor(full));
    ASSERT_EQ(fullRep.ran, 3u);

    auto o0 = optsFor(s0);
    o0.shardIndex = 0;
    o0.shardCount = 2;
    auto o1 = optsFor(s1);
    o1.shardIndex = 1;
    o1.shardCount = 2;
    const auto rep0 = core::runStudy(entries, o0);
    const auto rep1 = core::runStudy(entries, o1);

    // Every scenario lands in exactly one shard...
    EXPECT_EQ(rep0.ran + rep1.ran, 3u);
    EXPECT_EQ(rep0.skipped + rep1.skipped, 3u);
    for (const auto &e : entries) {
        const bool in0 =
            rowNamed(rep0, e.name).state != core::StudyState::skipped;
        const bool in1 =
            rowNamed(rep1, e.name).state != core::StudyState::skipped;
        EXPECT_NE(in0, in1) << e.name;
        // ...and its artifacts are bit-identical to the full run's.
        const TempDir &shard = in0 ? s0 : s1;
        EXPECT_EQ(slurp(shard / (e.name + ".json")),
                  slurp(full / (e.name + ".json")))
            << e.name;
    }
}

TEST(StudyShard, BadShardSpecRejected)
{
    TempDir scns, out;
    writeScn(scns, "a.scn", tinyScenario("a"));
    auto opts = optsFor(out);
    opts.shardIndex = 2;
    opts.shardCount = 2;
    EXPECT_THROW(
        core::runStudy(core::loadScenarioDir(scns.str()), opts),
        ConfigError);
}

// ------------------------------------------------------------------
// Crash + resume
// ------------------------------------------------------------------

TEST(StudyResume, KillMidStudyThenResumeIsBitIdentical)
{
    TempDir scns, uninterrupted, killed;
    for (const char *name : {"a", "b", "c"})
        writeScn(scns, std::string(name) + ".scn",
                 tinyScenario(name));
    const auto entries = core::loadScenarioDir(scns.str());

    // Reference: one uninterrupted run.
    const auto ref = core::runStudy(entries, optsFor(uninterrupted));
    ASSERT_EQ(ref.ran, 3u);

    // Interrupted run: complete it, then reconstruct the on-disk
    // state an instant before scenario "b" finished — its journal
    // records, artifacts and cache entry gone (a kill -9 mid-run
    // leaves at most a torn journal tail, which the reader drops).
    const auto firstRep = core::runStudy(entries, optsFor(killed));
    ASSERT_EQ(firstRep.ran, 3u);
    const std::string bHash = rowNamed(firstRep, "b").hash;
    fs::remove(killed / "b.json");
    fs::remove(killed / "b.metrics.json");
    fs::remove(killed / "manifest.json");
    fs::remove_all(fs::path(killed.str()) / "cache" / bHash);
    std::istringstream journal(slurp(killed / "manifest.jsonl"));
    std::string filtered, line;
    while (std::getline(journal, line))
        if (line.find("\"scenario\":\"b\"") == std::string::npos)
            filtered += line + "\n";
    spit(killed / "manifest.jsonl", filtered);

    // Resume: exactly the lost scenario re-runs, the finished ones
    // are verified and skipped untouched.
    auto resumeOpts = optsFor(killed);
    resumeOpts.resume = true;
    const auto resumed = core::runStudy(entries, resumeOpts);
    EXPECT_EQ(resumed.ran, 1u);
    EXPECT_EQ(resumed.resumed, 2u);
    EXPECT_EQ(rowNamed(resumed, "b").state, core::StudyState::done);
    EXPECT_EQ(rowNamed(resumed, "a").state, core::StudyState::resumed);
    EXPECT_EQ(rowNamed(resumed, "c").state, core::StudyState::resumed);
    EXPECT_EQ(resumed.exitCode(), 0);

    // The final state is bit-identical to the uninterrupted run:
    // every artifact and the deterministic manifest snapshot.
    for (const char *name : {"a", "b", "c"}) {
        EXPECT_EQ(slurp(killed / (std::string(name) + ".json")),
                  slurp(uninterrupted / (std::string(name) + ".json")))
            << name;
        EXPECT_EQ(
            slurp(killed / (std::string(name) + ".metrics.json")),
            slurp(uninterrupted /
                  (std::string(name) + ".metrics.json")))
            << name;
    }
    EXPECT_EQ(slurp(killed / "manifest.json"),
              slurp(uninterrupted / "manifest.json"));
}

TEST(StudyResume, TornJournalTailIsTolerated)
{
    TempDir scns, out;
    writeScn(scns, "a.scn", tinyScenario("a"));
    const auto entries = core::loadScenarioDir(scns.str());
    core::runStudy(entries, optsFor(out));

    // A kill mid-write leaves a torn (unterminated) final record.
    std::ofstream append(out / "manifest.jsonl",
                         std::ios::app | std::ios::binary);
    append << "{\"rec\":\"start\",\"scenario\":\"a\",\"ha";
    append.close();

    auto opts = optsFor(out);
    opts.resume = true;
    const auto rep = core::runStudy(entries, opts);
    EXPECT_EQ(rep.resumed, 1u);
    EXPECT_EQ(rep.ran, 0u);
}

TEST(StudyResume, HostileAttemptEndsTheFold)
{
    TempDir scns, out;
    writeScn(scns, "a.scn", tinyScenario("a"));
    const auto entries = core::loadScenarioDir(scns.str());
    core::runStudy(entries, optsFor(out));

    // An attempt count no unsigned can hold must never reach a
    // float-to-integer cast: the record ends the fold like a torn
    // one, and everything journaled before it still resumes.
    std::ofstream append(out / "manifest.jsonl",
                         std::ios::app | std::ios::binary);
    append << "{\"rec\":\"start\",\"scenario\":\"a\",\"attempt\":1e300}\n";
    append.close();

    auto opts = optsFor(out);
    opts.resume = true;
    const auto rep = core::runStudy(entries, opts);
    EXPECT_EQ(rep.resumed, 1u);
    EXPECT_EQ(rep.ran, 0u);
    EXPECT_EQ(rep.exitCode(), 0);
}

TEST(StudyResume, StaleArtifactsForceReRun)
{
    TempDir scns, out;
    writeScn(scns, "a.scn", tinyScenario("a"));
    const auto entries = core::loadScenarioDir(scns.str());
    const auto first = core::runStudy(entries, optsFor(out));
    ASSERT_EQ(first.ran, 1u);

    // Tamper with the published artifact: the journaled hash no
    // longer matches, so resume must not trust it. (The cache entry
    // is also removed to force a genuine re-run.)
    spit(out / "a.json", "{\"tampered\": true}\n");
    fs::remove_all(fs::path(out.str()) / "cache" /
                   first.rows[0].hash);

    auto opts = optsFor(out);
    opts.resume = true;
    const auto rep = core::runStudy(entries, opts);
    EXPECT_EQ(rep.resumed, 0u);
    EXPECT_EQ(rep.ran, 1u);
    EXPECT_NE(slurp(out / "a.json"), "{\"tampered\": true}\n");
}

// ------------------------------------------------------------------
// Grid expansion
// ------------------------------------------------------------------

TEST(StudyGrid, AxisParserAcceptsAndRejects)
{
    const auto axis = core::parseGridAxis("machine.procs=1,4,8");
    EXPECT_EQ(axis.section, "machine");
    EXPECT_EQ(axis.key, "procs");
    ASSERT_EQ(axis.values.size(), 3u);
    EXPECT_EQ(axis.values[0], "1");
    EXPECT_EQ(axis.values[2], "8");

    EXPECT_THROW(core::parseGridAxis("procs=1,4"), ConfigError);
    EXPECT_THROW(core::parseGridAxis("machine.procs"), ConfigError);
    EXPECT_THROW(core::parseGridAxis("machine.procs=1,,4"),
                 ConfigError);
    EXPECT_THROW(core::parseGridAxis("scenario.name=x"), ConfigError);
}

TEST(StudyGrid, ExpandsCrossProductWithOverrides)
{
    TempDir scns;
    const auto base =
        writeScn(scns, "base.scn", tinyScenario("base"));
    const auto entries = core::expandScenarioGrid(
        base, {core::parseGridAxis("run.scale=0.5,1"),
               core::parseGridAxis("machine.seed=3,7")});
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].name, "base__scale-0.5__seed-3");
    EXPECT_EQ(entries[3].name, "base__scale-1__seed-7");
    for (const auto &e : entries)
        ASSERT_TRUE(e.parseError.empty()) << e.parseError;
    EXPECT_DOUBLE_EQ(entries[0].spec->options.scale, 0.5);
    EXPECT_EQ(entries[0].spec->options.seed, 3u);
    EXPECT_DOUBLE_EQ(entries[3].spec->options.scale, 1.0);
    EXPECT_EQ(entries[3].spec->options.seed, 7u);
    // Grid points with distinct knobs hash distinctly.
    EXPECT_NE(entries[0].hash, entries[1].hash);
}

TEST(StudyGrid, InvalidGridPointIsIsolated)
{
    TempDir scns, out;
    const auto base = writeScn(
        scns, "base.scn",
        "[machine]\nprocs = 1\n\n[workload.inline]\napp tiny\n"
        "steps 1\nserial compute=2000 pages=1\n"
        "xdoall iters=8 compute=300 words=8\n");
    // procs = 7 is not a paper point: that grid point must fail
    // alone while its siblings run.
    const auto entries = core::expandScenarioGrid(
        base, {core::parseGridAxis("machine.procs=4,7")});
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_TRUE(entries[0].parseError.empty());
    EXPECT_FALSE(entries[1].parseError.empty());

    const auto rep = core::runStudy(entries, optsFor(out));
    EXPECT_EQ(rep.ran, 1u);
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_EQ(rep.exitCode(), 1);
}

} // namespace
