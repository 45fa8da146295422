/**
 * @file
 * Declarative run descriptions: the ScenarioSpec.
 *
 * The paper measures exactly five Cedar configurations, and the
 * harness historically inherited that as a hard constraint — an
 * `nprocs` magic number that only knew 1/4/8/16/32. A ScenarioSpec
 * removes the constraint: it bundles the *full* description of one
 * run — machine geometry (clusters x CEs, memory modules and group
 * size, with the stage-2 network width derived from the memory
 * geometry), cost-model overrides, the workload (a named Perfect
 * application, an inline description, or a workload file), a fault
 * plan and the RunOptions — so arbitrary machine shapes become as
 * first-class as the paper points.
 *
 * Scenarios have a text format in the same line-oriented style as
 * the workload format (apps/parser.hh): `[section]` headers group
 * `key = value` lines, `#` starts a comment. Sections:
 *
 *   [scenario]        name = <identifier>
 *   [machine]         clusters, ces_per_cluster, modules, group_size,
 *                     clock_hz, procs (paper-point shorthand), and
 *                     seed (the run's RNG seed, RunOptions::seed)
 *   [costs]           any CostModel field by its source name, e.g.
 *                     ctx_cost = 1500, ctx_rtl_coop = true,
 *                     gm_timeout = 30000
 *   [run]             scale, event_limit, watchdog_events
 *   [workload]        app = <Perfect name> | file = <workload path>,
 *                     and the app knobs prefetch, pickup_block, fuse
 *   [workload.inline] raw workload text (apps/parser.hh directives)
 *                     until the next section header
 *   [faults]          inject = <fault spec> (repeatable, see
 *                     docs/FAULTS.md for the grammar)
 *
 * Every diagnostic is a sim::ConfigError carrying the line number;
 * unknown sections and unknown keys are errors, not warnings, so a
 * typo cannot silently fall back to a default.
 */

#ifndef CEDAR_CORE_SCENARIO_HH
#define CEDAR_CORE_SCENARIO_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "apps/workload.hh"
#include "core/experiment.hh"
#include "hw/config.hh"

namespace cedar::core
{

/** A complete, self-contained description of one run. */
struct ScenarioSpec
{
    /** Scenario identifier (defaults to the file's stem). */
    std::string name = "unnamed";

    /** Machine geometry, clock and cost model. */
    hw::CedarConfig config;

    /**
     * Workload selection: exactly one of appName (a Perfect
     * application), workloadFile (a path in apps/parser.hh format,
     * resolved against the scenario file's directory) or workload
     * (inline description) is set.
     */
    std::string appName;
    std::string workloadFile;
    std::optional<apps::AppModel> workload;

    /**
     * App knobs (`[workload] prefetch`, `pickup_block`, `fuse`): a
     * given knob sets its LoopSpec field on every loop, an absent one
     * leaves the workload's own value; fuse merges adjacent loops
     * first (apps::withFusedLoops).
     */
    std::optional<bool> prefetch;
    std::optional<unsigned> pickupBlock;
    bool fuse = false;

    /** Run options; the seed and the fault plan live here too. */
    RunOptions options;

    /**
     * Materialise the application model: the named Perfect app, the
     * loaded file, or the inline workload, with the app knobs
     * applied.
     *
     * @throws sim::ConfigError when no workload was specified or the
     *         named app / file cannot be resolved.
     */
    apps::AppModel resolveApp() const;

    /**
     * Structural validation of everything the parser cannot check
     * per-line: geometry sanity (via CedarConfig::validate), run
     * options (via validateRunOptions) and workload presence.
     */
    void validate() const;
};

/**
 * Parse a scenario from a stream. @p origin names the source in
 * diagnostics; @p dir is the directory workload file references are
 * resolved against (empty = current directory).
 */
ScenarioSpec parseScenario(std::istream &in, const std::string &origin = "",
                           const std::string &dir = "");

/** Parse a scenario from text. */
ScenarioSpec parseScenarioString(const std::string &text);

/** Parse a scenario file (workload paths resolve relative to it). */
ScenarioSpec parseScenarioFile(const std::string &path);

/**
 * Serialise a spec back into the text format. parseScenarioString()
 * of the result reproduces the spec (golden round-trip); inline and
 * file-loaded workloads are both written as [workload.inline] so the
 * output is self-contained.
 */
std::string formatScenario(const ScenarioSpec &spec);

/**
 * Canonical content hash of a scenario: FNV-1a 64 over the
 * formatScenario serialisation. Because formatScenario is a golden
 * round-trip (and inlines file-loaded workloads), two specs hash
 * equal exactly when they describe the same run — regardless of the
 * file they came from, comment/whitespace differences, or key
 * order. The study engine (core/study.hh) uses it as the
 * content-addressed result-cache key and the --shard partitioning
 * key.
 */
std::uint64_t canonicalHashValue(const ScenarioSpec &spec);

/** canonicalHashValue as a fixed-width 16-digit lower-hex string. */
std::string canonicalHash(const ScenarioSpec &spec);

/** Validate and execute the scenario end to end. */
RunResult runScenario(const ScenarioSpec &spec);

} // namespace cedar::core

#endif // CEDAR_CORE_SCENARIO_HH
