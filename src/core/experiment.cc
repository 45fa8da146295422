#include "core/experiment.hh"

#include <cmath>

#include <memory>

#include "core/parallel.hh"
#include "fault/injector.hh"
#include "hw/machine.hh"

namespace cedar::core
{

namespace
{

/** Cumulative machine counters for the time-series recorder: the
 *  per-class server totals plus the fast-path and event counters
 *  (read-only — safe inside the event queue's sampling hook). */
obs::TimeSeriesSnapshot
snapshotCounters(hw::Machine &m, sim::Tick boundary)
{
    obs::TimeSeriesSnapshot s;
    s.boundary = boundary;
    s.classes = obs::sampleClassTotals(m);
    s.fastHits = m.net().fastStats().hits();
    s.fastMisses = m.net().fastStats().misses();
    s.events = m.eq().executed();
    return s;
}

} // namespace

void
validateRunOptions(const RunOptions &opts)
{
    using sim::ConfigError;
    if (!std::isfinite(opts.scale) || !(opts.scale > 0.0) ||
        opts.scale > 1.0)
        throw ConfigError("run options: scale must be in (0, 1]");
    if (opts.eventLimit == 0)
        throw ConfigError("run options: event limit must be positive");
    if (opts.watchdogEvents == 0)
        throw ConfigError(
            "run options: watchdog threshold must be positive");
}

RunResult
runExperiment(const apps::AppModel &app, const hw::CedarConfig &cfg,
              const RunOptions &opts)
{
    validateRunOptions(opts);

    // The observers outlive the machine: its tracer points at them.
    std::vector<obs::TelemetryEvent> timeline;
    std::unique_ptr<obs::TimeSeriesRecorder> tsRec;
    if (opts.tsWindow > 0)
        tsRec = std::make_unique<obs::TimeSeriesRecorder>(opts.tsWindow);

    hw::Machine m(cfg, opts.seed);
    m.trace().setEnabled(opts.collectTrace);
    m.net().setFastPath(opts.fastPath);
    if (opts.collectTimeline)
        m.tracer().setTimeline(&timeline);

    // The time-series recorder takes spans from the tracer and
    // samples the per-class/fast-path counters through the event
    // queue's boundary hook, which only reads them. With
    // tsWindow == 0 the hook stays disarmed and nothing here runs.
    if (tsRec) {
        m.tracer().setTimeSeries(tsRec.get());
        m.eq().setSampleHook(
            opts.tsWindow, [&m, &rec = *tsRec](sim::Tick boundary) {
                rec.onBoundary(snapshotCounters(m, boundary));
            });
    }

    const apps::AppModel model =
        opts.scale < 1.0 ? app.scaled(opts.scale) : app;
    rtl::Runtime rt(m, model);

    fault::FaultInjector injector(m, opts.faults);
    injector.arm([&rt] { return rt.finished(); });

    rt.run(opts.eventLimit, opts.watchdogEvents, opts.progress);

    RunResult r;
    r.app = app.name;
    r.nprocs = cfg.numCes();
    r.nClusters = cfg.nClusters;
    r.cesPerCluster = cfg.cesPerCluster;
    r.clockHz = cfg.clockHz;
    r.ct = rt.completionTime();
    r.status = rt.status();
    r.faultLog = m.faultLog();
    r.faultsInjected = r.faultLog.injected();

    for (unsigned c = 0; c < cfg.nClusters; ++c) {
        r.clusterAcct.push_back(
            m.acct().cluster(static_cast<sim::ClusterId>(c)));
        r.clusterConcurrency.push_back(
            m.statfx().clusterConcurrency(static_cast<sim::ClusterId>(c)));
    }
    r.totalAcct = m.acct().total();
    for (unsigned i = 0; i < m.numCes(); ++i)
        r.ceAcct.push_back(m.acct().ce(static_cast<sim::CeId>(i)));
    r.machineConcurrency = m.statfx().machineConcurrency();
    r.windows = rt.windows();
    r.rtlStats = rt.stats();
    r.osStats = m.xylem().stats();
    r.seqFaults = m.xylem().pageTable().seqFaults();
    r.concFaults = m.xylem().pageTable().concFaults();

    for (unsigned i = 0; i < m.numCes(); ++i) {
        const auto &ce = m.ce(static_cast<sim::CeId>(i));
        r.ceQueueStall += ce.queueingStall();
        r.globalWords += ce.globalWords();
        r.accessesDegraded += ce.degradedAccesses();
        if (ce.parked())
            ++r.parkedCes;
    }
    r.resourceWait = m.net().totalWaitTicks();
    r.metrics = obs::collectMetrics(m, r.ct);
    r.eventsExecuted = m.eq().executed();
    r.peakPending = m.eq().peakPending();
    r.fastPathHits = m.net().fastStats().hits();
    r.fastPathMisses = m.net().fastStats().misses();
    r.fastPathPatterns = m.net().fastPatterns();

    if (opts.collectTrace)
        r.trace = m.trace().takeRecords();
    r.traceDropped = m.trace().dropped();
    r.timeline = std::move(timeline);
    if (tsRec) {
        r.timeseries =
            tsRec->finalize(r.ct, snapshotCounters(m, r.ct), m.numCes());
        m.eq().setSampleHook(0, {});
    }
    return r;
}

RunResult
runExperiment(const apps::AppModel &app, unsigned nprocs,
              const RunOptions &opts)
{
    return runExperiment(app, hw::CedarConfig::withProcs(nprocs), opts);
}

std::vector<hw::CedarConfig>
paperConfigs()
{
    std::vector<hw::CedarConfig> configs;
    for (const unsigned p : hw::CedarConfig::paperProcCounts())
        configs.push_back(hw::CedarConfig::withProcs(p));
    return configs;
}

std::vector<RunResult>
runSweep(const apps::AppModel &app, const RunOptions &opts,
         const std::vector<hw::CedarConfig> &configs, unsigned jobs,
         const SweepResultFn &onResult)
{
    std::vector<RunResult> out(configs.size());
    parallelFor(configs.size(), jobs, [&](std::size_t i) {
        out[i] = runExperiment(app, configs[i], opts);
        if (onResult)
            onResult(i, out[i]);
    });
    return out;
}

std::vector<RunResult>
runSweep(const apps::AppModel &app, const RunOptions &opts,
         const std::vector<unsigned> &procs, unsigned jobs,
         const SweepResultFn &onResult)
{
    std::vector<hw::CedarConfig> configs;
    for (const unsigned p : procs)
        configs.push_back(hw::CedarConfig::withProcs(p));
    return runSweep(app, opts, configs, jobs, onResult);
}

} // namespace cedar::core
