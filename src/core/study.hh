/**
 * @file
 * Crash-safe study engine: journaled, resumable, sharded batch runs
 * over scenario files with a content-addressed result cache.
 *
 * The paper's characterization is a grid of runs (five applications
 * x machine sizes x OS knobs), and production-size parameter studies
 * over scenario files (DESIGN.md §9) push that to 10k-1M scenarios.
 * At that scale the naive "loop and run" batch is too fragile: one
 * malformed file must not abort its siblings, a killed process must
 * not lose completed work, a livelocked scenario must not hang the
 * study, and a rerun must not repeat finished runs. runStudy()
 * provides exactly those guarantees:
 *
 *  - **Manifest journal** (`<out>/manifest.jsonl`, schema
 *    `cedar-manifest-v1`): an append-only JSONL log of every
 *    scenario state transition (start / done / failed / cached),
 *    fsynced per record. A killed study resumes with
 *    StudyOptions::resume — completed scenarios are verified against
 *    their journaled artifact hashes and skipped; incomplete or
 *    failed ones re-run. A deterministic snapshot
 *    (`<out>/manifest.json`) is rewritten atomically at the end.
 *
 *  - **Content-addressed result cache** (`<out>/cache/<hash>/`,
 *    shareable across studies via StudyOptions::cacheDir): results
 *    are keyed by core::canonicalHash of the ScenarioSpec, so
 *    overlapping grids and reruns serve bit-identical cached
 *    artifacts. Hits are verified against the stored content hashes;
 *    a corrupt cache entry is re-run, never served.
 *
 *  - **Per-scenario fault isolation**: parse errors, SimErrors and
 *    watchdog/deadlock/event-limit terminations mark that scenario
 *    failed in the manifest (with the diagnostic and a bounded
 *    retry policy) and never abort siblings.
 *
 *  - **Deterministic sharding**: `--shard i/N` partitions by
 *    canonical hash, so the union of the N shards is exactly the
 *    unsharded study.
 *
 *  - **Atomic artifact writes**: every file is written to a
 *    temporary name, fsynced, and renamed into place, so a crash or
 *    full disk never leaves a truncated-but-plausible artifact.
 *
 * Format and semantics are documented in docs/STUDIES.md.
 */

#ifndef CEDAR_CORE_STUDY_HH
#define CEDAR_CORE_STUDY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hh"

namespace cedar::core
{

/** FNV-1a 64-bit hash (the engine's content hash). */
std::uint64_t fnv1a64(std::string_view data);

/** Fixed-width 16-digit lower-hex rendering of a 64-bit hash. */
std::string hashHex(std::uint64_t h);

/**
 * Write @p path atomically: stream into a temporary sibling file,
 * fsync it, and rename over the destination. On any failure
 * (including an exception from @p writer) the temporary is removed
 * and the previous contents of @p path are untouched. An existing
 * symlink, device or FIFO is not ours to replace: it is written
 * through in place, which is not atomic.
 *
 * @throws sim::SimError when the file cannot be written or renamed.
 */
void atomicWriteFile(const std::string &path,
                     const std::function<void(std::ostream &)> &writer);

/** Atomic write of a ready-made byte string. */
void atomicWriteFile(const std::string &path, const std::string &content);

/**
 * Write the one-scenario summary document (schema cedar-scenario-v1)
 * for a finished run. Content is a pure function of the spec and the
 * result — no paths or timestamps — so cached copies are
 * bit-identical to fresh runs.
 */
void writeScenarioSummary(std::ostream &os, const ScenarioSpec &spec,
                          const RunResult &r);

/**
 * One scenario queued into a study: the parsed spec plus its
 * identity. A file that failed to parse still yields an entry (with
 * parseError set and the name defaulted to the file stem) so the
 * failure is journaled alongside its healthy siblings instead of
 * aborting them.
 */
struct StudyEntry
{
    std::string source;     //!< originating file (or grid point label)
    std::string name;       //!< scenario name (file stem on parse error)
    std::string hash;       //!< canonicalHash; empty when parse failed
    std::uint64_t hashValue = 0; //!< shard key (name hash on parse error)
    std::optional<ScenarioSpec> spec;
    std::string parseError; //!< non-empty when the file failed to parse
};

/** Load one scenario file; parse failures populate parseError. */
StudyEntry loadScenarioEntry(const std::string &path);

/**
 * Load every *.scn in @p dir (sorted by path).
 *
 * @throws sim::ConfigError when @p dir is not a directory, contains
 *         no scenario files, or two files declare the same scenario
 *         name (which would silently overwrite each other's
 *         artifacts) — the diagnostic names both files.
 */
std::vector<StudyEntry> loadScenarioDir(const std::string &dir);

/** One sweep axis of a study grid: [section] key = v1 | v2 | ... */
struct GridAxis
{
    std::string section; //!< machine, costs, run, workload or faults
    std::string key;
    std::vector<std::string> values;
};

/**
 * Parse an `--axis` argument of the form `section.key=v1,v2,...`.
 * @throws sim::ConfigError on a malformed spec or a section that
 *         cannot be swept ([scenario] and [workload.inline]).
 */
GridAxis parseGridAxis(const std::string &spec);

/**
 * Expand @p basePath (a valid scenario file) into the cross product
 * of @p axes: each grid point is the base text with the axis
 * `key = value` lines appended under their sections (later keys win)
 * and a derived name `<base>__<key>-<value>__...`. A grid point that
 * fails validation (e.g. procs = 7) becomes a parse-failed entry so
 * its siblings still run.
 *
 * @throws sim::ConfigError when the base does not parse, an axis is
 *         empty, or two grid points collide on a name.
 */
std::vector<StudyEntry> expandScenarioGrid(
    const std::string &basePath, const std::vector<GridAxis> &axes);

/** How one study entry ended up. */
enum class StudyState
{
    done,    //!< ran in this invocation, artifacts published
    cached,  //!< served bit-identically from the result cache
    resumed, //!< already complete per the manifest; verified, skipped
    failed,  //!< parse error, run error, or lost progress
    skipped, //!< not in this shard
};

const char *toString(StudyState s);

/** Policy knobs for one runStudy invocation. */
struct StudyOptions
{
    std::string outDir = ".";
    /** Result-cache directory; empty means `<outDir>/cache`. */
    std::string cacheDir;
    /** Worker threads (core::parallelFor semantics; 0 = per core). */
    unsigned jobs = 0;
    /** Extra attempts after a failed run (0 = single attempt). */
    unsigned retries = 0;
    /** Deterministic hash partition: run only hash % count == index. */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    /** Continue a prior journal instead of starting a fresh one. */
    bool resume = false;
    /** Override every run's livelock-watchdog event budget. */
    std::optional<std::uint64_t> watchdogEvents;
    /**
     * Per-scenario completion hook (state + one-line detail). Runs
     * on the worker thread that finished the scenario, possibly
     * concurrently — the caller synchronises if it must.
     */
    std::function<void(const StudyEntry &, StudyState,
                       const std::string &)>
        onScenario;
};

/** Outcome of one study entry (rows parallel the entry list). */
struct StudyRow
{
    std::string name;
    std::string source;
    std::string hash;
    StudyState state = StudyState::skipped;
    /** Run status, or "parse-error" / "error" for engine failures. */
    std::string status;
    std::string error;
    unsigned attempts = 0;
    double wallMs = 0.0;
    /** Table data (valid for done/cached/resumed rows). */
    std::string machine;
    std::string app;
    double seconds = 0.0;
    double concurrency = 0.0;
};

/** Everything runStudy did, plus the aggregate exit policy. */
struct StudyReport
{
    std::vector<StudyRow> rows;
    unsigned ran = 0;
    unsigned cached = 0;
    unsigned resumed = 0;
    unsigned failed = 0;
    unsigned skipped = 0;

    /**
     * 1 when any scenario had a hard failure (parse/run error), else
     * 3 when any lost progress (deadlock/livelock/event limit), else
     * 0 — siblings of a failure still complete, but the study exits
     * non-zero.
     */
    int exitCode() const;
};

/**
 * Run a study: journal, shard, resume, cache, retry and publish as
 * described in the file comment. Never throws for per-scenario
 * problems (they become failed rows); throws sim::SimError only for
 * study-level problems (unwritable output directory, corrupt
 * manifest on resume).
 */
StudyReport runStudy(const std::vector<StudyEntry> &entries,
                     const StudyOptions &opts);

} // namespace cedar::core

#endif // CEDAR_CORE_STUDY_HH
