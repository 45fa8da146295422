/**
 * @file
 * cedarbench: the end-to-end and per-layer benchmark of the simulator.
 *
 * A workload is a directory of `.scn` points (workloads/<name>/). One
 * run of a workload sets up (loads the points, then warms up with one
 * run of every point at 5% scale and the workload seed S), then runs
 * timed passes p = 1, 2, ... at seed S+p until the measuring time is
 * spent. Every run is checked: it must
 * complete, its accounting ledger must close, its digest must match
 * golden.json where a digest for that seed is stored, and each span
 * trace export must be a non-empty, well-bracketed JSON document.
 *
 * Metrics are end-to-end (what a user of the simulator sees) or per
 * layer (one of the simulator's modules: sim, net, mem, os, rtl, hw,
 * fault, obs, core). Counts come from the first timed pass, so they
 * repeat exactly for a given seed; host times come from the passes and
 * from two standalone probes that call one layer directly.
 */

#ifndef CEDARBENCH_BENCH_HH
#define CEDARBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hh"

namespace cedarbench
{

/** Repository root and benchmark directory, fixed at build time. */
inline const std::string repo_root = CEDARBENCH_ROOT;
inline const std::string bench_dir = CEDARBENCH_DIR;

/** One measured number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    /** Repeats exactly for a given seed (a count, not a host time). */
    bool exact = false;
    /** End-to-end (reported by an untraced run) or per layer. */
    bool endToEnd = false;
};

/** Everything one run of one workload produced. */
struct RunRecord
{
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digests compared against golden.json, and how many had none. */
    std::uint64_t goldenChecked = 0;
    std::uint64_t goldenUnchecked = 0;
    /** The run's child process exited normally. */
    bool exitedOk = false;
    std::vector<Metric> metrics;
    /** Free-text lines printed beside the metrics (quartiles, ...). */
    std::vector<std::string> notes;

    bool correct() const { return exitedOk && failed == 0; }
    const Metric *find(const std::string &name) const;
};

/** One point of a workload: a parsed, validated scenario. */
struct Point
{
    std::string name;
    cedar::core::ScenarioSpec spec;
    cedar::apps::AppModel app;
};

/** A loaded workload. */
struct Workload
{
    std::string name;
    std::vector<Point> points;
    /** Record the span timeline and export it (traced_export). */
    bool traceExport = false;
};

/** The workloads, in the order a full invocation runs them. */
const std::vector<std::string> &workloadNames();

/**
 * Parse, validate and resolve every `.scn` file of workload @p name,
 * with each point's workload scale multiplied by @p scale.
 *
 * @throws std::exception when the workload is unknown or a point is
 *         malformed.
 */
Workload loadWorkload(const std::string &name, double scale = 1.0);

/** Run options for one point at @p seed (traced_export adds the
 *  timeline and the time series). */
cedar::core::RunOptions pointOptions(const Workload &w, const Point &p,
                                     std::uint64_t seed);

/** FNV-1a digest of everything a run's golden check covers. */
std::string runDigest(const cedar::core::RunResult &r);

/** How one child run is measured. */
struct RunSettings
{
    std::uint64_t seed = 1;
    double seconds = 10;
    /** Record layer spans and write a Chrome trace into this
     *  directory; empty for an untraced run. */
    std::string traceDir;
    /** Multiply every point's scale (the smoke test shrinks runs). */
    double scale = 1.0;
    /** Timed passes at least / at most, whatever the time. */
    unsigned minPasses = 3;
    unsigned maxPasses = 12;
    /** Compare digests against golden.json. */
    bool golden = true;
    /** Stop after set-up: the record carries setup_s only. */
    bool setupOnly = false;
};

/**
 * Run workload @p name in the calling process and return its record
 * (without peak_rss_mb, which the parent measures).
 */
RunRecord runWorkload(const std::string &name, const RunSettings &s);

/** Median; 0 for no samples. */
double median(std::vector<double> v);

/** First and third quartile, as Python's statistics.quantiles(v, n=4)
 *  (the exclusive method) gives them; both equal the sample for one. */
std::pair<double, double> quartiles(std::vector<double> v);

/** `cedarbench compare`; returns the process exit code. */
int compareMain(const std::vector<std::string> &args);

} // namespace cedarbench

#endif // CEDARBENCH_BENCH_HH
