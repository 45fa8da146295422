/**
 * @file
 * Experiment harness: runs an application model on a Cedar
 * configuration and collects everything the paper's analyses need —
 * the accounting ledger, statfx concurrency, parallel-loop windows,
 * runtime/OS counters, network statistics and the cedarhpm trace.
 */

#ifndef CEDAR_CORE_EXPERIMENT_HH
#define CEDAR_CORE_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include <functional>

#include "apps/workload.hh"
#include "fault/fault.hh"
#include "hpm/trace.hh"
#include "hw/config.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/timeseries.hh"
#include "os/accounting.hh"
#include "os/xylem.hh"
#include "rtl/runtime.hh"
#include "sim/error.hh"
#include "sim/types.hh"

namespace cedar::core
{

/** Everything measured in one application run. */
struct RunResult
{
    std::string app;
    unsigned nprocs = 0;
    unsigned nClusters = 0;
    unsigned cesPerCluster = 0;
    double clockHz = sim::default_clock_hz;

    sim::Tick ct = 0; //!< completion time, ticks

    /** How the run terminated (never silently truncated). */
    sim::RunStatus status = sim::RunStatus::Completed;

    /** Every delivered perturbation and resilience consequence. */
    fault::FaultLog faultLog;
    std::uint64_t faultsInjected = 0;   //!< perturbations delivered
    std::uint64_t accessesDegraded = 0; //!< fallback-path accesses
    unsigned parkedCes = 0;             //!< CEs hung on dead modules

    /** Per-cluster and machine-total accounting aggregates. */
    std::vector<os::CeAccount> clusterAcct;
    os::CeAccount totalAcct;
    /** Per-CE accounts (for fine-grained analyses/tests). */
    std::vector<os::CeAccount> ceAcct;

    /** statfx: per-cluster and summed average concurrency. */
    std::vector<double> clusterConcurrency;
    double machineConcurrency = 0.0;

    /** Parallel-loop wall-clock windows per cluster. */
    std::vector<rtl::ClusterWindow> windows;

    rtl::RuntimeStats rtlStats;
    os::XylemStats osStats;
    std::uint64_t seqFaults = 0;
    std::uint64_t concFaults = 0;

    /** Ground-truth queueing observed by CEs on their own traffic. */
    sim::Tick ceQueueStall = 0;
    /** Queueing wait accumulated inside switches and modules. */
    sim::Tick resourceWait = 0;
    std::uint64_t globalWords = 0;

    /** Per-resource contention snapshot (modules, switch ports). */
    obs::MetricsReport metrics;

    /** DES-kernel load: events executed and peak pending events.
     *  Deterministic per run; the bench harness divides events by
     *  host wall time to get events/sec. */
    std::uint64_t eventsExecuted = 0;
    std::uint64_t peakPending = 0;

    /** Analytic fast-path engagement (informational — every other
     *  field is bit-identical whether these are 0 or millions). */
    std::uint64_t fastPathHits = 0;
    std::uint64_t fastPathMisses = 0;
    /** Distinct (shape, offset-vector) patterns learned. */
    std::uint64_t fastPathPatterns = 0;

    /** The cedarhpm trace (empty when tracing disabled), and the
     *  records its full buffer dropped (hpm::Trace::dropped). */
    std::vector<hpm::Record> trace;
    std::uint64_t traceDropped = 0;

    /** The telemetry timeline: every span and GM-flow record, in
     *  the order the tracer emitted them (empty unless
     *  RunOptions::collectTimeline). */
    std::vector<obs::TelemetryEvent> timeline;

    /** Windowed time series (empty unless RunOptions::tsWindow > 0;
     *  see obs/timeseries.hh for the window semantics). */
    obs::TimeSeries timeseries;

    double seconds() const { return static_cast<double>(ct) / clockHz; }
    double toSeconds(sim::Tick t) const
    {
        return static_cast<double>(t) / clockHz;
    }

    /**
     * Paper-style seconds of an aggregate activity: total ticks
     * across CEs divided by the processor count (activities such as
     * CPIs and context switches run on all CEs in parallel, so this
     * matches their wall-clock contribution).
     */
    double
    activitySeconds(sim::Tick aggregate_ticks) const
    {
        return static_cast<double>(aggregate_ticks) /
               (static_cast<double>(nprocs) * clockHz);
    }

    /** Fraction of completion time, from aggregate CE ticks. */
    double
    fractionOfCt(sim::Tick aggregate_ticks) const
    {
        return static_cast<double>(aggregate_ticks) /
               (static_cast<double>(ct) * nprocs);
    }
};

/** Options controlling a run. */
struct RunOptions
{
    /** Seed of every random stream in the run (hw::Machine). */
    std::uint64_t seed = 1;
    /** Record the cedarhpm events into RunResult::trace. Like
     *  tsWindow, an observation switch outside the scenario format. */
    bool collectTrace = false;
    /** Record the span/flow timeline into RunResult::timeline. */
    bool collectTimeline = false;
    /** Live heartbeat forwarded to rtl::Runtime::run. */
    rtl::ProgressFn progress;
    /** Workload scale factor (1.0 = full size). */
    double scale = 1.0;
    std::uint64_t eventLimit = 500'000'000ULL;
    /** Analytic uncontended fast path (`--no-fast-path` disables).
     *  Published results are bit-identical either way. */
    bool fastPath = true;

    /**
     * Time-series sampling window in ticks (`--ts-window N`); 0 (the
     * default) disables the recorder entirely. It is deliberately
     * *not* part of the scenario format or core::canonicalHash: it
     * cannot change a published result — every RunResult field
     * except `timeseries` is bit-identical whether the recorder is
     * on or off — so cached studies stay valid across settings. A
     * run may span at most obs::max_ts_windows windows.
     */
    sim::Tick tsWindow = 0;

    /** Fault plan injected into the run (see docs/FAULTS.md). */
    std::vector<fault::FaultSpec> faults;
    /** Livelock watchdog threshold (events without time advance). */
    std::uint64_t watchdogEvents = sim::Watchdog::default_stall_events;
};

/**
 * Check @p opts for structural sanity: the workload scale must be in
 * (0, 1], the event budget positive and the watchdog threshold
 * positive. Called by every runExperiment overload, so nonsense
 * cannot slip in from any surface (CLI, scenario files, library
 * callers).
 *
 * @throws sim::ConfigError describing the first problem found.
 */
void validateRunOptions(const RunOptions &opts);

/**
 * Run @p app on an arbitrary machine configuration and return the
 * full measurement record. @p cfg is the machine, its cost model and
 * policy knobs included; @p opts holds what varies per run (seed,
 * scale, budgets, observation, fault plan), so one configuration
 * can be reused across differently-seeded runs.
 */
RunResult runExperiment(const apps::AppModel &app,
                        const hw::CedarConfig &cfg,
                        const RunOptions &opts = {});

/**
 * Paper-point convenience: run @p app on the @p nprocs configuration
 * (1/4/8/16/32, via CedarConfig::withProcs). Arbitrary geometries go
 * through the CedarConfig overload (or a ScenarioSpec).
 */
RunResult runExperiment(const apps::AppModel &app, unsigned nprocs,
                        const RunOptions &opts = {});

/** The five machine configurations the paper measures, in order. */
std::vector<hw::CedarConfig> paperConfigs();

/**
 * Per-run completion hook for sweeps: invoked with the config index
 * and the finished result. Under a parallel sweep it runs on the
 * worker thread that finished the run, possibly concurrently with
 * other runs' hooks — the caller synchronises if it must.
 */
using SweepResultFn =
    std::function<void(std::size_t, const RunResult &)>;

/**
 * Run a sweep over arbitrary machine configurations.
 *
 * The runs are independent (per-run machine, RNG and accounting
 * state) and execute on a thread pool of @p jobs workers: 0 means
 * one per hardware thread, 1 preserves the strictly serial path.
 * Results are ordered like @p configs and bit-identical to a serial
 * sweep regardless of @p jobs.
 */
std::vector<RunResult> runSweep(const apps::AppModel &app,
                                const RunOptions &opts,
                                const std::vector<hw::CedarConfig> &configs,
                                unsigned jobs = 0,
                                const SweepResultFn &onResult = {});

/**
 * Paper-point convenience: sweep over processor counts (each a
 * CedarConfig::withProcs point; defaults to the paper's five).
 */
std::vector<RunResult> runSweep(const apps::AppModel &app,
                                const RunOptions &opts = {},
                                const std::vector<unsigned> &procs = {
                                    1, 4, 8, 16, 32},
                                unsigned jobs = 0,
                                const SweepResultFn &onResult = {});

} // namespace cedar::core

#endif // CEDAR_CORE_EXPERIMENT_HH
