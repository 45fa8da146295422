/**
 * @file
 * Perf-regression harness for the simulator itself.
 *
 * Times the paper's full 1/4/8/16/32 sweep per application — the
 * exact workload every analysis in this repo runs — and emits
 * BENCH_sweep.json with, per configuration: host wall time, DES
 * events executed, events/sec, and the event queue's peak pending
 * population. Future PRs regenerate the file and diff it against the
 * committed trajectory to catch kernel slowdowns.
 *
 * Usage:
 *   sweep_perf [--apps A,B,...] [--scale F] [--jobs N]
 *              [--repeat R] [--out FILE]
 *
 * Per-config wall times are always measured around the individual
 * runExperiment call (inside its worker thread), so they are
 * meaningful at any --jobs; sweep_wall_s is the wall time of the
 * whole sweep and is where --jobs > 1 shows its speedup. --repeat
 * reruns each sweep; every reported wall time is the *median* over
 * the repeats, and every pass/fail guard compares medians, never a
 * single sample — this host's wall clocks vary by tens of percent
 * run to run, which a lone sample (or even min-of-R on opposite
 * sides of a ratio) turns into flaky verdicts.
 *
 * A dedicated tracing leg times one fixed configuration (FLO52 on
 * 8 processors) with the telemetry timeline disabled (the default,
 * where the tracer's spansWanted()/flowsWanted() gates keep every
 * span and flow site on its nothing-attached fast path) and enabled
 * (RunOptions::collectTimeline, every span and flow record
 * materialized). The harness asserts the disabled path stays within
 * a noise-bounded margin of the plain sweep measurement of the
 * identical configuration (median vs median, enforced only at
 * --repeat >= 3) — the tracer is compiled in unconditionally, so a
 * gate that stops being free shows up here, while cross-PR slowdowns
 * show up in the committed events/sec trajectory. With the timeline on
 * the analytic fast path also disengages (every access carries a
 * flow id, and the replay skips flow milestones), so the enabled
 * overhead honestly includes losing that path. The leg then times exporting
 * the last enabled run's timeline as a span trace
 * (obs::writeSpanTrace) into a sink that only counts bytes, so the
 * export cost is recorded without the disk's.
 *
 * A fast-path leg times FLO52 and ADM on 8 processors, and FLO52
 * and ARC2D on 16 and 32, with the analytic fast path on and off
 * (`--no-fast-path` in the CLI). The published numbers are
 * bit-identical either way (tests enforce that); this leg records
 * the speedup and fails the run when the fast path is below 2x the
 * slow path on FLO52 8p — the network-bound workload the
 * optimisation targets. ADM is not held to that floor: it is
 * event-machinery-bound, not network-bound, so its fast-path gain
 * is structurally modest. At --repeat >= 3 the leg also fails when
 * any entry's fast median exceeds 1.10x its slow median while that
 * slow median is at least 50 ms: the fast path must never lose,
 * least of all at 16/32p, where its store is largest.
 *
 * An allocation leg runs ADM on 8 processors — the workload whose
 * cost is almost entirely event machinery — once cold and then
 * repeatedly warm, reading the continuation-arena counters
 * (EventQueue::allocStats) around each run. The cold run is allowed
 * to populate the arena's free lists; warm runs of the same
 * deterministic workload must then be served from the pool, and the
 * harness fails (exit 3) when fresh heap allocations per event
 * exceed a thin epsilon. Unlike the wall-time guards this one is
 * exact and deterministic, so it is enforced at any --repeat. The
 * leg's warm wall times (medians, like every other timing) double
 * as the steady-state ADM throughput record.
 *
 * A time-series leg times FLO52 on 8 processors with the windowed
 * telemetry recorder (obs/timeseries.hh, --ts-window) disarmed and
 * armed at ~100 windows. Every study and sweep runs disarmed, where
 * the feature costs one always-false compare per event in the
 * event-queue hot loop; the leg guards that path against the plain
 * sweep measurement with the same noise-bounded margin as the
 * tracing leg (the 2% design budget is recorded in the JSON), and
 * records the armed overhead informationally.
 *
 * An ensemble leg runs 8 independent ADM 32p replicas through
 * core::runSweep on 1 vs 4 workers — where the simulator's own
 * parallelism lives (a single run is one sequential event queue).
 * The guard fails the run (exit 3) when the scaling drops below
 * 1.5x — the simulator's own parallelization overhead (pool spawn,
 * cache sharing) eating the speedup, the exact taxonomy the paper
 * applies to Cedar itself. Like every wall-time guard it compares
 * medians and is enforced only at --repeat >= 3 — and additionally
 * only when the host exposes at least four hardware threads: on a
 * 1- or 2-core host a 4-worker pool physically cannot reach 1.5x,
 * so the scaling is recorded but not judged (host_threads in the
 * JSON says which happened).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/perfect.hh"
#include "bench_json.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "harness.hh"
#include "obs/chrome_trace.hh"
#include "sim/event_queue.hh"

using namespace cedar;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of the collected samples (mean of the middle two when the
 *  count is even). The guards all compare medians: single samples
 *  and minima are too noisy on shared hosts. */
double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2 != 0
               ? samples[mid]
               : 0.5 * (samples[mid - 1] + samples[mid]);
}

struct ConfigPerf
{
    unsigned procs = 0;
    double wallSec = 0;
    core::RunResult result;
};

struct AppPerf
{
    std::string app;
    double sweepWallSec = 0;
    std::vector<ConfigPerf> configs;
};

/** The tracing-overhead leg: one fixed config, timeline off vs on. */
struct TracingPerf
{
    std::string app;
    unsigned procs = 8;
    unsigned repeat = 0;
    double disabledWallSec = 0; //!< no timeline: the gates' fast path
    double enabledWallSec = 0;  //!< collectTimeline on
    std::uint64_t events = 0;   //!< DES events (identical both legs)
    std::uint64_t timelineEvents = 0; //!< spans + flows captured
    double exportSec = 0;          //!< writeSpanTrace of one timeline
    std::uint64_t exportBytes = 0; //!< the span trace's size
    /** Plain sweep wall for the same app/procs this invocation, or 0
     *  when the sweep didn't cover it (--apps filter). */
    double sweepWallSec = 0;

    double
    disabledOverheadPct() const
    {
        return sweepWallSec > 0
                   ? 100.0 * (disabledWallSec / sweepWallSec - 1.0)
                   : 0.0;
    }
    double
    enabledOverheadPct() const
    {
        return disabledWallSec > 0
                   ? 100.0 * (enabledWallSec / disabledWallSec - 1.0)
                   : 0.0;
    }
};

/**
 * Max tolerated slowdown of the disabled-tracer leg over the plain
 * sweep measurement of the identical configuration. The two legs run
 * the same code, so this is bounded by host timing noise: 10% clears
 * the run-to-run jitter of shared CI hosts (medians still wander a
 * few percent) while remaining far below the 50%+ a tracer gate that
 * stopped being free would cost. Enforced only when both sides are
 * medians of at least three samples — against a single sweep sample
 * the comparison is meaningless and is recorded but not guarded.
 */
constexpr double tracing_guard_pct = 10.0;
constexpr unsigned guard_min_samples = 3;

/**
 * The time-series leg: FLO52 8p with the windowed telemetry recorder
 * (obs/timeseries.hh) disarmed (--ts-window 0, the default every
 * study and sweep runs with) and armed at ~100 windows. The design
 * budget for the disarmed path is 2% — it costs one always-false
 * compare per event in the event-queue hot loop — but wall-clock
 * medians on shared hosts wander more than that, so like the tracing
 * leg the enforced bound is the noise-bounded tracing_guard_pct and
 * the 2% design target is recorded in the JSON for trend reading.
 * The armed overhead is recorded but not guarded (opt-in feature).
 */
struct TimeSeriesPerf
{
    std::string app = "FLO52";
    unsigned procs = 8;
    unsigned repeat = 0;
    sim::Tick windowTicks = 0;  //!< armed-leg sampling window
    std::uint64_t windows = 0;  //!< windows the armed leg recorded
    double offWallSec = 0;      //!< median, recorder disarmed
    double onWallSec = 0;       //!< median, recorder armed
    std::uint64_t events = 0;   //!< DES events (identical both legs)
    /** Plain sweep wall for the same app/procs this invocation, or 0
     *  when the sweep didn't cover it (--apps filter). */
    double sweepWallSec = 0;

    double
    offOverheadPct() const
    {
        return sweepWallSec > 0
                   ? 100.0 * (offWallSec / sweepWallSec - 1.0)
                   : 0.0;
    }
    double
    onOverheadPct() const
    {
        return offWallSec > 0
                   ? 100.0 * (onWallSec / offWallSec - 1.0)
                   : 0.0;
    }
};

/** Disarmed-recorder design budget (recorded, not the enforced
 *  bound — see TimeSeriesPerf). */
constexpr double timeseries_design_max_overhead_pct = 2.0;

TimeSeriesPerf
timeTimeSeries(const core::RunOptions &opts, unsigned repeat)
{
    TimeSeriesPerf t;
    t.repeat = std::max(repeat, 3u);
    const auto app = apps::perfectAppByName(t.app);
    const auto cfg = hw::CedarConfig::withProcs(t.procs);

    // Probe run sizes the armed window to ~100 windows of this
    // scale's completion time (deterministic across repeats).
    {
        core::RunOptions o = opts;
        const auto res = core::runExperiment(app, cfg, o);
        t.windowTicks = std::max<sim::Tick>(1, res.ct / 100);
    }

    std::vector<double> off, on;
    for (unsigned r = 0; r < t.repeat; ++r) {
        core::RunOptions o = opts;
        o.tsWindow = 0;
        auto t0 = Clock::now();
        auto res = core::runExperiment(app, cfg, o);
        off.push_back(secondsSince(t0));
        t.events = res.eventsExecuted;

        o.tsWindow = t.windowTicks;
        t0 = Clock::now();
        res = core::runExperiment(app, cfg, o);
        on.push_back(secondsSince(t0));
        t.windows = res.timeseries.windows.size();
    }
    t.offWallSec = median(std::move(off));
    t.onWallSec = median(std::move(on));
    return t;
}

/** Discards what it is given and counts the bytes. */
class CountingSink : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }

  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes_ += static_cast<std::uint64_t>(n);
        return n;
    }

    int_type
    overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            ++bytes_;
        return traits_type::not_eof(ch);
    }

  private:
    std::uint64_t bytes_ = 0;
};

TracingPerf
timeTracing(const core::RunOptions &opts, unsigned repeat)
{
    TracingPerf t;
    t.app = "FLO52";
    // Median-of-R with a floor of three: both legs run the same DES
    // workload, so the comparison is noise-bounded, and the guard
    // below needs a stable central value, not a lucky minimum.
    t.repeat = std::max(repeat, 3u);
    const auto app = apps::perfectAppByName(t.app);
    const auto cfg = hw::CedarConfig::withProcs(t.procs);
    std::vector<double> disabled, enabled;
    std::vector<obs::TelemetryEvent> timeline;
    for (unsigned r = 0; r < t.repeat; ++r) {
        core::RunOptions o = opts;
        o.collectTimeline = false;
        auto t0 = Clock::now();
        auto res = core::runExperiment(app, cfg, o);
        disabled.push_back(secondsSince(t0));
        t.events = res.eventsExecuted;

        o.collectTimeline = true;
        t0 = Clock::now();
        res = core::runExperiment(app, cfg, o);
        enabled.push_back(secondsSince(t0));
        t.timelineEvents = res.timeline.size();
        if (r + 1 == t.repeat) // hold one timeline, not two
            timeline = std::move(res.timeline);
    }
    t.disabledWallSec = median(std::move(disabled));
    t.enabledWallSec = median(std::move(enabled));

    obs::SpanTraceMeta meta;
    meta.clock_hz = cfg.clockHz;
    meta.ces_per_cluster = cfg.cesPerCluster;
    CountingSink sink;
    std::ostream os(&sink);
    const auto t0 = Clock::now();
    obs::writeSpanTrace(os, timeline, meta);
    t.exportSec = secondsSince(t0);
    t.exportBytes = sink.bytes();
    return t;
}

/** FLO52 8p must keep at least this fast/slow wall-time ratio. */
constexpr double fast_path_guard_min_speedup = 2.0;
/** No entry's fast median may exceed its slow median by more than
 *  this factor, where the slow median is at least the floor below
 *  (shorter runs are too noisy to judge). */
constexpr double fast_path_guard_max_ratio = 1.10;
constexpr double fast_path_guard_min_slow_s = 0.05;

/** The fast-path leg: one app/config, analytic fast path on vs off. */
struct FastPathPerf
{
    std::string app;
    unsigned procs = 8;
    unsigned repeat = 0;
    bool guarded = false;       //!< this entry enforces the 2x floor
    double fastWallSec = 0;     //!< median, RunOptions::fastPath on
    double slowWallSec = 0;     //!< median, fast path off
    std::uint64_t events = 0;   //!< DES events (identical both legs)
    std::uint64_t fastHits = 0; //!< pattern replays in the fast run
    std::uint64_t fastPatterns = 0; //!< distinct patterns learned

    double
    speedup() const
    {
        return fastWallSec > 0 ? slowWallSec / fastWallSec : 0.0;
    }

    /** The never-lose guard judges this entry (medians of >= 3). */
    bool
    lossGuardArmed(unsigned sweep_repeat) const
    {
        return sweep_repeat >= guard_min_samples &&
               slowWallSec >= fast_path_guard_min_slow_s;
    }

    /** The fast path lost to the slow one beyond the guard's margin. */
    bool
    loses(unsigned sweep_repeat) const
    {
        return lossGuardArmed(sweep_repeat) &&
               fastWallSec > fast_path_guard_max_ratio * slowWallSec;
    }

    bool
    guardOk(unsigned sweep_repeat) const
    {
        return (!guarded || speedup() >= fast_path_guard_min_speedup) &&
               !loses(sweep_repeat);
    }
};

FastPathPerf
timeFastPath(const std::string &name, unsigned procs,
             const core::RunOptions &opts, unsigned repeat, bool guarded)
{
    FastPathPerf f;
    f.app = name;
    f.procs = procs;
    f.repeat = std::max(repeat, 3u);
    f.guarded = guarded;
    const auto app = apps::perfectAppByName(name);
    const auto cfg = hw::CedarConfig::withProcs(f.procs);
    std::vector<double> fastWalls, slowWalls;
    for (unsigned r = 0; r < f.repeat; ++r) {
        core::RunOptions o = opts;
        o.fastPath = true;
        auto t0 = Clock::now();
        auto res = core::runExperiment(app, cfg, o);
        fastWalls.push_back(secondsSince(t0));
        f.events = res.eventsExecuted;
        f.fastHits = res.fastPathHits;
        f.fastPatterns = res.fastPathPatterns;

        o.fastPath = false;
        t0 = Clock::now();
        res = core::runExperiment(app, cfg, o);
        slowWalls.push_back(secondsSince(t0));
    }
    f.fastWallSec = median(std::move(fastWalls));
    f.slowWallSec = median(std::move(slowWalls));
    return f;
}

/** The allocation leg: ADM steady state must be heap-free. */
struct AllocPerf
{
    std::string app = "ADM";
    unsigned procs = 8;
    unsigned warmRuns = 0;
    std::uint64_t events = 0;         //!< DES events per run
    std::uint64_t coldHeapAllocs = 0; //!< fresh blocks, first run
    std::uint64_t warmHeapAllocs = 0; //!< worst fresh blocks, warm run
    std::uint64_t warmPoolReuses = 0; //!< pool-served, last warm run
    double warmWallSec = 0;           //!< median warm wall time

    double
    warmAllocsPerEvent() const
    {
        return events > 0 ? static_cast<double>(warmHeapAllocs) /
                                static_cast<double>(events)
                          : 0.0;
    }
    double
    warmEventsPerSec() const
    {
        return warmWallSec > 0
                   ? static_cast<double>(events) / warmWallSec
                   : 0.0;
    }
};

/**
 * Max tolerated fresh heap allocations per event in a warm run.
 * The design target is exactly zero (every continuation lives inline
 * or in a recycled arena block); the epsilon leaves room for
 * one-shot growth outside the arena's control (a std::vector inside
 * the model crossing a capacity threshold it didn't hit in the cold
 * run) without letting a per-event allocation regression — ~1 per
 * event before this PR — anywhere near passing.
 */
constexpr double alloc_guard_max_per_event = 0.01;

AllocPerf
timeAllocs(const core::RunOptions &opts, unsigned repeat)
{
    AllocPerf a;
    a.warmRuns = std::max(repeat, 2u);
    const auto app = apps::perfectAppByName(a.app);
    const auto cfg = hw::CedarConfig::withProcs(a.procs);

    // Cold run: populates the arena free lists (and is the run the
    // alloc counters exist to make visible).
    const auto c0 = sim::EventQueue::allocStats();
    auto res = core::runExperiment(app, cfg, opts);
    const auto c1 = sim::EventQueue::allocStats();
    a.coldHeapAllocs = c1.heapAllocs - c0.heapAllocs;
    a.events = res.eventsExecuted;

    std::vector<double> walls;
    for (unsigned r = 0; r < a.warmRuns; ++r) {
        const auto w0 = sim::EventQueue::allocStats();
        const auto t0 = Clock::now();
        res = core::runExperiment(app, cfg, opts);
        walls.push_back(secondsSince(t0));
        const auto w1 = sim::EventQueue::allocStats();
        a.warmHeapAllocs =
            std::max(a.warmHeapAllocs, w1.heapAllocs - w0.heapAllocs);
        a.warmPoolReuses = w1.poolReuses - w0.poolReuses;
    }
    a.warmWallSec = median(std::move(walls));
    return a;
}

/** The ensemble leg: independent replicas through core::runSweep. */
struct EnsemblePerf
{
    std::string app = "ADM";
    unsigned procs = 32;
    unsigned repeat = 0;
    unsigned replicas = 8;
    double wall1 = 0;         //!< median, 1 worker
    double wall4 = 0;         //!< median, 4 workers
    std::uint64_t events = 0; //!< total across replicas

    double
    scaling() const
    {
        return wall4 > 0 ? wall1 / wall4 : 0.0;
    }
};

/** The ensemble must keep at least this 4-worker/1-worker wall ratio
 *  (ideal: 4x; the margin absorbs pool spawn and memory-bus sharing
 *  — the simulator's own parallelization overhead). */
constexpr double ensemble_guard_min_scaling = 1.5;

/** Hardware threads below which the scaling guard is vacuous. */
constexpr unsigned ensemble_guard_min_host_threads = 4;

bool
ensembleGuardArmed(unsigned repeat)
{
    return repeat >= guard_min_samples &&
           core::defaultJobs() >= ensemble_guard_min_host_threads;
}

EnsemblePerf
timeEnsemble(const core::RunOptions &opts, unsigned repeat)
{
    EnsemblePerf e;
    e.repeat = std::max(repeat, 3u);
    const auto app = apps::perfectAppByName(e.app);
    const std::vector<hw::CedarConfig> replicas(
        e.replicas, hw::CedarConfig::withProcs(e.procs));
    std::vector<double> w1, w4;
    for (unsigned r = 0; r < e.repeat; ++r) {
        auto t0 = Clock::now();
        const auto rs = core::runSweep(app, opts, replicas, 1);
        w1.push_back(secondsSince(t0));
        if (r == 0)
            for (const auto &res : rs)
                e.events += res.eventsExecuted;
        t0 = Clock::now();
        core::runSweep(app, opts, replicas, 4);
        w4.push_back(secondsSince(t0));
    }
    e.wall1 = median(std::move(w1));
    e.wall4 = median(std::move(w4));
    return e;
}

AppPerf
timeSweep(const apps::AppModel &app, const core::RunOptions &opts,
          unsigned jobs, unsigned repeat)
{
    AppPerf perf;
    perf.app = app.name;
    perf.configs.resize(bench::configs.size());
    for (std::size_t i = 0; i < bench::configs.size(); ++i)
        perf.configs[i].procs = bench::configs[i];

    const unsigned repeats = std::max(repeat, 1u);
    std::vector<std::vector<double>> walls(bench::configs.size());
    std::vector<double> sweepWalls;
    for (unsigned r = 0; r < repeats; ++r) {
        const auto sweep0 = Clock::now();
        core::parallelFor(
            bench::configs.size(), jobs, [&](std::size_t i) {
                const auto t0 = Clock::now();
                auto res =
                    core::runExperiment(app, bench::configs[i], opts);
                walls[i].push_back(secondsSince(t0));
                // Results are deterministic across repeats; keep the
                // first and let later repeats contribute timing only.
                if (r == 0)
                    perf.configs[i].result = std::move(res);
            });
        sweepWalls.push_back(secondsSince(sweep0));
    }
    for (std::size_t i = 0; i < bench::configs.size(); ++i)
        perf.configs[i].wallSec = median(std::move(walls[i]));
    perf.sweepWallSec = median(std::move(sweepWalls));
    return perf;
}

void
writeJson(std::ostream &os, const std::vector<AppPerf> &apps,
          const TracingPerf &tracing,
          const std::vector<FastPathPerf> &fastpath,
          const AllocPerf &allocs, const EnsemblePerf &ensemble,
          const TimeSeriesPerf &timeseries, unsigned jobs,
          double scale, unsigned repeat, double total_wall)
{
    tools::JsonWriter j(os);
    j.beginObject();
    // v2 added the "allocs" section, v3 the "pdes" section, v4 the
    // "timeseries" section, v5 replaced "pdes" with "ensemble", and
    // v6 added the tracing leg's export_s/export_bytes; readers of
    // other fields are unaffected, and bench_delta tolerates any
    // section's or field's absence.
    j.field("schema", "cedar-bench-sweep-v6");
    j.field("jobs", jobs == 0 ? core::defaultJobs() : jobs);
    j.field("scale", scale);
    j.field("repeat", repeat);
    j.field("total_wall_s", total_wall);
    j.key("apps").beginArray();
    for (const auto &a : apps) {
        j.beginObject();
        j.field("app", a.app);
        j.field("sweep_wall_s", a.sweepWallSec);
        j.key("configs").beginArray();
        for (const auto &c : a.configs) {
            const auto &r = c.result;
            j.beginObject();
            j.field("procs", c.procs);
            j.field("wall_s", c.wallSec);
            j.field("events", r.eventsExecuted);
            j.field("events_per_sec",
                    c.wallSec > 0
                        ? static_cast<double>(r.eventsExecuted) /
                              c.wallSec
                        : 0.0);
            j.field("peak_pending", r.peakPending);
            j.field("sim_ct_s", r.seconds());
            j.field("status", sim::toString(r.status));
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    j.endArray();

    j.key("tracing").beginObject();
    j.field("app", tracing.app);
    j.field("procs", tracing.procs);
    j.field("repeat", tracing.repeat);
    j.field("disabled_wall_s", tracing.disabledWallSec);
    j.field("enabled_wall_s", tracing.enabledWallSec);
    j.field("events", tracing.events);
    j.field("timeline_events", tracing.timelineEvents);
    j.field("export_s", tracing.exportSec);
    j.field("export_bytes", tracing.exportBytes);
    j.field("sweep_wall_s", tracing.sweepWallSec);
    j.field("disabled_overhead_pct", tracing.disabledOverheadPct());
    j.field("enabled_overhead_pct", tracing.enabledOverheadPct());
    j.field("guard_max_disabled_overhead_pct", tracing_guard_pct);
    j.field("guard_enforced", repeat >= guard_min_samples);
    j.field("guard_ok", repeat < guard_min_samples ||
                            tracing.sweepWallSec <= 0 ||
                            tracing.disabledOverheadPct() <=
                                tracing_guard_pct);
    j.endObject();

    j.key("fast_path").beginArray();
    for (const auto &f : fastpath) {
        j.beginObject();
        j.field("app", f.app);
        j.field("procs", f.procs);
        j.field("repeat", f.repeat);
        j.field("fast_wall_s", f.fastWallSec);
        j.field("slow_wall_s", f.slowWallSec);
        j.field("speedup", f.speedup());
        j.field("events", f.events);
        j.field("fast_events_per_sec",
                f.fastWallSec > 0
                    ? static_cast<double>(f.events) / f.fastWallSec
                    : 0.0);
        j.field("slow_events_per_sec",
                f.slowWallSec > 0
                    ? static_cast<double>(f.events) / f.slowWallSec
                    : 0.0);
        j.field("fast_hits", f.fastHits);
        j.field("fast_patterns", f.fastPatterns);
        j.field("guarded", f.guarded);
        j.field("guard_min_speedup", fast_path_guard_min_speedup);
        j.field("loss_guard_armed", f.lossGuardArmed(repeat));
        j.field("guard_max_fast_over_slow", fast_path_guard_max_ratio);
        j.field("guard_min_slow_wall_s", fast_path_guard_min_slow_s);
        j.field("guard_ok", f.guardOk(repeat));
        j.endObject();
    }
    j.endArray();

    j.key("allocs").beginObject();
    j.field("app", allocs.app);
    j.field("procs", allocs.procs);
    j.field("warm_runs", allocs.warmRuns);
    j.field("events", allocs.events);
    j.field("cold_heap_allocs", allocs.coldHeapAllocs);
    j.field("warm_heap_allocs", allocs.warmHeapAllocs);
    j.field("warm_pool_reuses", allocs.warmPoolReuses);
    j.field("warm_allocs_per_event", allocs.warmAllocsPerEvent());
    j.field("warm_wall_s", allocs.warmWallSec);
    j.field("warm_events_per_sec", allocs.warmEventsPerSec());
    j.field("guard_max_allocs_per_event", alloc_guard_max_per_event);
    j.field("guard_ok",
            allocs.warmAllocsPerEvent() <= alloc_guard_max_per_event);
    j.endObject();

    j.key("ensemble").beginArray();
    {
        const EnsemblePerf &e = ensemble;
        j.beginObject();
        j.field("app", e.app);
        j.field("procs", e.procs);
        j.field("repeat", e.repeat);
        j.field("replicas", e.replicas);
        j.field("wall_1worker_s", e.wall1);
        j.field("wall_4worker_s", e.wall4);
        j.field("events", e.events);
        j.field("events_per_sec_4worker",
                e.wall4 > 0 ? static_cast<double>(e.events) / e.wall4
                            : 0.0);
        j.field("scaling", e.scaling());
        j.field("host_threads", core::defaultJobs());
        j.field("guard_min_scaling", ensemble_guard_min_scaling);
        j.field("guard_min_host_threads",
                ensemble_guard_min_host_threads);
        j.field("guard_enforced", ensembleGuardArmed(repeat));
        j.field("guard_ok", !ensembleGuardArmed(repeat) ||
                                e.scaling() >= ensemble_guard_min_scaling);
        j.endObject();
    }
    j.endArray();

    j.key("timeseries").beginArray();
    {
        const TimeSeriesPerf &t = timeseries;
        j.beginObject();
        j.field("app", t.app);
        j.field("procs", t.procs);
        j.field("repeat", t.repeat);
        j.field("window_ticks",
                static_cast<std::uint64_t>(t.windowTicks));
        j.field("windows", t.windows);
        j.field("events", t.events);
        j.field("sweep_wall_s", t.sweepWallSec);
        j.field("recorder_off_wall_s", t.offWallSec);
        j.field("recorder_on_wall_s", t.onWallSec);
        j.field("plain_events_per_sec",
                t.sweepWallSec > 0
                    ? static_cast<double>(t.events) / t.sweepWallSec
                    : 0.0);
        j.field("recorder_off_events_per_sec",
                t.offWallSec > 0
                    ? static_cast<double>(t.events) / t.offWallSec
                    : 0.0);
        j.field("recorder_on_events_per_sec",
                t.onWallSec > 0
                    ? static_cast<double>(t.events) / t.onWallSec
                    : 0.0);
        j.field("overhead_pct", t.offOverheadPct());
        j.field("on_overhead_pct", t.onOverheadPct());
        j.field("design_max_overhead_pct",
                timeseries_design_max_overhead_pct);
        j.field("guard_max_overhead_pct", tracing_guard_pct);
        j.field("guard_enforced", repeat >= guard_min_samples);
        j.field("guard_ok", repeat < guard_min_samples ||
                                t.sweepWallSec <= 0 ||
                                t.offOverheadPct() <=
                                    tracing_guard_pct);
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

int
usage()
{
    std::cerr << "usage: sweep_perf [--apps A,B,...] [--scale F] "
                 "[--jobs N] [--repeat R] [--out FILE]\n";
    return 2;
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ','))
        out.push_back(tok);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv, argv + argc);
    std::vector<std::string> names = bench::app_names;
    double scale = 1.0;
    unsigned jobs = 0;
    unsigned repeat = 1;
    std::string out = "BENCH_sweep.json";

    try {
        for (std::size_t i = 1; i < args.size(); ++i) {
            auto value = [&]() -> const std::string & {
                if (i + 1 >= args.size())
                    throw std::invalid_argument(args[i] +
                                                " needs a value");
                return args[++i];
            };
            if (args[i] == "--apps")
                names = splitCsv(value());
            else if (args[i] == "--scale")
                scale = std::stod(value());
            else if (args[i] == "--jobs")
                jobs = static_cast<unsigned>(std::stoul(value()));
            else if (args[i] == "--repeat")
                repeat = static_cast<unsigned>(std::stoul(value()));
            else if (args[i] == "--out")
                out = value();
            else
                return usage();
        }

        core::RunOptions opts;
        opts.scale = scale;

        std::vector<AppPerf> perfs;
        const auto t0 = Clock::now();
        for (const auto &name : names) {
            const auto app = apps::perfectAppByName(name);
            perfs.push_back(timeSweep(app, opts, jobs, repeat));
            const auto &p = perfs.back();
            std::cout << p.app << ": sweep " << p.sweepWallSec
                      << " s wall";
            for (const auto &c : p.configs) {
                std::cout << "  [" << c.procs << "p "
                          << static_cast<std::uint64_t>(
                                 c.wallSec > 0
                                     ? c.result.eventsExecuted /
                                           c.wallSec
                                     : 0)
                          << " ev/s]";
            }
            std::cout << "\n";
        }
        TracingPerf tracing = timeTracing(opts, repeat);
        for (const auto &p : perfs) {
            if (p.app != tracing.app)
                continue;
            for (const auto &c : p.configs)
                if (c.procs == tracing.procs)
                    tracing.sweepWallSec = c.wallSec;
        }
        std::cout << "tracing (" << tracing.app << " "
                  << tracing.procs << "p): disabled "
                  << tracing.disabledWallSec << " s, enabled "
                  << tracing.enabledWallSec << " s (+"
                  << tracing.enabledOverheadPct() << "%, "
                  << tracing.timelineEvents << " timeline events); "
                  << "span-trace export " << tracing.exportSec << " s, "
                  << tracing.exportBytes << " bytes\n";

        TimeSeriesPerf timeseries = timeTimeSeries(opts, repeat);
        for (const auto &p : perfs) {
            if (p.app != timeseries.app)
                continue;
            for (const auto &c : p.configs)
                if (c.procs == timeseries.procs)
                    timeseries.sweepWallSec = c.wallSec;
        }
        std::cout << "timeseries (" << timeseries.app << " "
                  << timeseries.procs << "p): recorder off "
                  << timeseries.offWallSec << " s, on "
                  << timeseries.onWallSec << " s (+"
                  << timeseries.onOverheadPct() << "%, "
                  << timeseries.windows << " windows of "
                  << timeseries.windowTicks << " ticks)\n";

        std::vector<FastPathPerf> fastpath;
        fastpath.push_back(timeFastPath("FLO52", 8, opts, repeat, true));
        fastpath.push_back(timeFastPath("ADM", 8, opts, repeat, false));
        for (const unsigned procs : {16u, 32u})
            for (const char *app : {"FLO52", "ARC2D"})
                fastpath.push_back(
                    timeFastPath(app, procs, opts, repeat, false));
        for (const auto &fp : fastpath)
            std::cout << "fast path (" << fp.app << " " << fp.procs
                      << "p): fast " << fp.fastWallSec << " s, slow "
                      << fp.slowWallSec << " s (" << fp.speedup()
                      << "x, " << fp.fastHits << " hits, "
                      << fp.fastPatterns << " patterns)\n";
        const AllocPerf allocs = timeAllocs(opts, repeat);
        std::cout << "allocs (" << allocs.app << " " << allocs.procs
                  << "p): cold " << allocs.coldHeapAllocs
                  << " heap allocs, warm " << allocs.warmHeapAllocs
                  << " over " << allocs.events << " events ("
                  << allocs.warmAllocsPerEvent() << "/event, "
                  << allocs.warmPoolReuses << " pool reuses, "
                  << static_cast<std::uint64_t>(
                         allocs.warmEventsPerSec())
                  << " ev/s warm)\n";
        const EnsemblePerf ensemble = timeEnsemble(opts, repeat);
        std::cout << "ensemble (" << ensemble.replicas << "x "
                  << ensemble.app << " " << ensemble.procs << "p): "
                  << ensemble.wall1 << " s -> " << ensemble.wall4
                  << " s (" << ensemble.scaling() << "x)\n";
        const double total = secondsSince(t0);

        std::ofstream f(out);
        if (!f)
            throw std::runtime_error("cannot write " + out);
        writeJson(f, perfs, tracing, fastpath, allocs, ensemble,
                  timeseries, jobs, scale, repeat, total);
        std::cout << "wrote " << out << " (" << total
                  << " s total)\n";

        if (repeat >= guard_min_samples && tracing.sweepWallSec > 0 &&
            tracing.disabledOverheadPct() > tracing_guard_pct) {
            std::cerr << "error: disabled-tracer leg is "
                      << tracing.disabledOverheadPct()
                      << "% slower than the plain sweep run of the "
                         "same configuration (guard: "
                      << tracing_guard_pct << "%)\n";
            return 3;
        }
        if (repeat >= guard_min_samples &&
            timeseries.sweepWallSec > 0 &&
            timeseries.offOverheadPct() > tracing_guard_pct) {
            std::cerr << "error: recorder-off time-series leg is "
                      << timeseries.offOverheadPct()
                      << "% slower than the plain sweep run of the "
                         "same configuration (guard: "
                      << tracing_guard_pct << "%; design target: "
                      << timeseries_design_max_overhead_pct << "%)\n";
            return 3;
        }
        for (const auto &fp : fastpath) {
            if (fp.guarded && fp.speedup() < fast_path_guard_min_speedup) {
                std::cerr << "error: fast path is only " << fp.speedup()
                          << "x the slow path on " << fp.app << " "
                          << fp.procs << "p (guard: "
                          << fast_path_guard_min_speedup << "x)\n";
                return 3;
            }
            if (fp.loses(repeat)) {
                std::cerr << "error: fast path takes " << fp.fastWallSec
                          << " s against the slow path's "
                          << fp.slowWallSec << " s on " << fp.app << " "
                          << fp.procs << "p (guard: at most "
                          << fast_path_guard_max_ratio << "x)\n";
                return 3;
            }
        }
        if (ensembleGuardArmed(repeat) &&
            ensemble.scaling() < ensemble_guard_min_scaling) {
            std::cerr << "error: ensemble of " << ensemble.replicas
                      << " " << ensemble.app << " " << ensemble.procs
                      << "p replicas scales only " << ensemble.scaling()
                      << "x from 1 to 4 workers (guard: "
                      << ensemble_guard_min_scaling << "x)\n";
            return 3;
        }
        // Exact and deterministic, so enforced at any --repeat.
        if (allocs.warmAllocsPerEvent() > alloc_guard_max_per_event) {
            std::cerr << "error: warm " << allocs.app << " "
                      << allocs.procs << "p run took "
                      << allocs.warmHeapAllocs
                      << " fresh continuation heap allocations ("
                      << allocs.warmAllocsPerEvent()
                      << "/event; guard: "
                      << alloc_guard_max_per_event << ")\n";
            return 3;
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
