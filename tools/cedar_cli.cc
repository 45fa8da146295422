/**
 * @file
 * cedar-cli: command-line driver for the simulator.
 *
 * Subcommands:
 *   run      — run one application on one configuration and print
 *              the full characterization (breakdowns, concurrency,
 *              contention, counters).
 *   run-file — the same, for a workload file (apps/parser.hh) in
 *              place of the application name; it takes run's flags.
 *   sweep    — run the paper's 1/4/8/16/32 sweep and print the
 *              Table-1-style summary.
 *   faults   — run the canonical fault-injection degradation matrix
 *              and show how the contention estimate responds.
 *   metrics  — run and print the per-resource contention report
 *              (hot spots, class summaries, module imbalance);
 *              --json writes the machine-readable document.
 *   report   — run and emit the paper-figure decomposition document
 *              (Figure 3/4 breakdowns, Table-2 OS detail, per-CE
 *              conservation check); --json writes cedar-report-v1,
 *              --md writes the markdown, --timeline adds the
 *              tracer-vs-accounting cross-check.
 *   trace    — run with cedarhpm enabled and write the trace file;
 *              --chrome writes Chrome trace_event JSON instead (and
 *              `trace --chrome in.chpm out.json` converts an
 *              existing trace for chrome://tracing / Perfetto);
 *              --spans writes the span-level telemetry trace (per-CE
 *              category slices + GM-request flow arrows).
 *   batch    — execute every scenario file (*.scn) in a directory on
 *              the crash-safe study engine (core/study.hh): a
 *              journaled manifest (--resume), a content-addressed
 *              result cache, per-scenario fault isolation with
 *              --retries, deterministic --shard i/N partitioning and
 *              atomic artifact writes.
 *   study    — expand one base scenario into a parameter grid
 *              (--axis section.key=v1,v2,...) and run it on the same
 *              engine; --list prints the grid without running.
 *   summarize — aggregate one or more study/batch output directories
 *              into a cross-study report (core/summarize.hh):
 *              speedup surfaces over --axis grids, per-class
 *              contention league tables, merged wait histograms and
 *              optional --baseline regression deltas. Markdown on
 *              stdout; --json/--md write cedar-summary-v1 artifacts.
 *   apps     — list the built-in application models.
 *
 * The run-side subcommands (run, run-file, sweep, faults, metrics,
 * report, trace) fill one core::ScenarioSpec from the <app> <procs>
 * positionals or `--scenario FILE` (docs/SCENARIOS.md: any machine
 * geometry, the workload and its app knobs, costs, faults and run
 * options), and the flags then override it. Each subcommand reads
 * only the flags its row of `commands` names.
 *
 * Examples:
 *   cedar_cli run FLO52 32
 *   cedar_cli run MDG 8 --seed 7 --scale 0.5 --prefetch
 *   cedar_cli run FLO52 16 --inject module:7:degrade:4x
 *   cedar_cli run --scenario examples/scenarios/paper_32p.scn
 *   cedar_cli sweep ADM
 *   cedar_cli faults FLO52
 *   cedar_cli metrics ADM 32 --json adm.metrics.json
 *   cedar_cli metrics --scenario wide.scn --top 5
 *   cedar_cli trace OCEAN 16 /tmp/ocean.chpm
 *   cedar_cli trace OCEAN 16 /tmp/ocean.json --chrome
 *   cedar_cli trace --chrome /tmp/ocean.chpm /tmp/ocean.json
 *   cedar_cli batch examples/scenarios --out /tmp/scn-results
 *   cedar_cli batch examples/scenarios --out /tmp/r --resume --retries 1
 *   cedar_cli batch examples/scenarios --out /tmp/r --shard 0/2
 *   cedar_cli study base.scn --axis machine.procs=4,8,16 \
 *             --axis run.scale=0.1,0.5 --out /tmp/grid
 *   cedar_cli summarize /tmp/grid --json summary.json
 *   cedar_cli summarize /tmp/shard0 /tmp/shard1 --baseline /tmp/old
 *   cedar_cli metrics ADM 16 --ts-window 100000 --json adm.json
 */

#include <algorithm>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/parser.hh"
#include "apps/perfect.hh"
#include "bench_json.hh"
#include "core/breakdown.hh"
#include "core/concurrency.hh"
#include "core/contention.hh"
#include "core/experiment.hh"
#include "core/profile.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/study.hh"
#include "core/summarize.hh"
#include "core/table.hh"
#include "fault/fault.hh"
#include "hpm/trace.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "sim/error.hh"

using namespace cedar;

namespace
{

using FlagList = std::vector<std::string_view>;

FlagList
operator+(FlagList a, const FlagList &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** The run settings faults reads, each with the placeholder of its
 *  value (none: a switch). */
const FlagList matrix_flags = {
    "--seed N", "--scale F", "--prefetch", "--pickup-block N", "--fuse",
    "--ctx-coop", "--no-fast-path", "--gm-retries N", "--gm-backoff N",
    "--watchdog-events N"};
/** Every other run-side subcommand also reads the fault plan and the
 *  dead-module timeout, which faults' matrix sets per row. */
const FlagList run_flags =
    matrix_flags + FlagList{"--inject SPEC", "--gm-timeout N"};
const FlagList live_flags = {"--progress", "--quiet"};
const FlagList study_engine_flags =
    FlagList{"--jobs N", "--out DIR", "--resume", "--retries N",
             "--shard i/N", "--cache DIR", "--watchdog-events N"} +
    live_flags;

/** A subcommand's operands and the flags it reads. */
struct Command
{
    std::string_view operands;
    FlagList flags;
};

/** Every subcommand by name. usage() prints this table, and
 *  parseFlags refuses any flag a subcommand's row omits. */
const std::map<std::string_view, Command> commands = {
    {"run", {"<app> <procs>", run_flags + live_flags}},
    {"run-file", {"<workload-file> <procs>", run_flags + live_flags}},
    {"sweep", {"<app>", run_flags + FlagList{"--jobs N"} + live_flags}},
    {"faults", {"<app> [procs]", matrix_flags}},
    {"metrics",
     {"<app> <procs>",
      run_flags + FlagList{"--ts-window N", "--top K", "--json FILE"}}},
    {"report",
     {"<app> <procs>",
      run_flags + FlagList{"--json FILE", "--md FILE", "--timeline"} +
          live_flags}},
    {"trace",
     {"<app> <procs> <outfile>",
      run_flags + FlagList{"--ts-window N", "--chrome", "--spans"}}},
    {"batch", {"<scenario-dir>", study_engine_flags}},
    {"study",
     {"<base.scn>", study_engine_flags +
                        FlagList{"--axis sec.key=v1,v2,...", "--list"}}},
    {"summarize",
     {"<study-dir>...", {"--baseline DIR", "--top K", "--json FILE",
                         "--md FILE", "--quiet"}}},
    {"profile", {"<app> <procs>", {}}},
    {"apps", {"", {}}},
};

int
usage()
{
    std::cerr << "usage:\n";
    for (const auto &[name, c] : commands) {
        std::string line = "  cedar_cli " + std::string(name) + " " +
                           std::string(c.operands);
        for (const auto flag : c.flags) {
            if (line.size() + flag.size() > 72) {
                std::cerr << line << "\n";
                line = std::string(14, ' ');
            }
            line += " [" + std::string(flag) + "]";
        }
        std::cerr << line << "\n";
    }
    std::cerr
        << "\napps: FLO52 ARC2D MDG OCEAN ADM\n"
           "procs: 1, 4, 8, 16 or 32; run, run-file, sweep, faults,\n"
           "  metrics, report and trace take --scenario <file.scn> (any\n"
           "  geometry, docs/SCENARIOS.md) in place of <app> and <procs>\n"
           "trace --chrome <in.chpm> <out.json> converts a .chpm trace\n"
           "--jobs N: worker threads, 0 = one per core\n"
           "--ts-window N: time-series window in ticks (0 = off, at most\n"
           "  65536 windows per run; results are bit-identical either way)\n"
           "--progress: live heartbeat on stderr; --quiet: suppress the\n"
           "  heartbeat and the human-readable report\n"
           "\nfault SPEC grammar (docs/FAULTS.md; --inject may repeat):\n"
           "  module:<m>:degrade:<F>x[:@<t0>[-<t1>]]\n"
           "  module:<m>:stuck[:@<t0>[-<t1>]]\n"
           "  switch:stage1|stage2:<s>:stall:<ticks>[:@<t0>]\n"
           "  ce:<c>:hiccup:p=<prob>[:cost=<ticks>][:@<t0>[-<t1>]]\n"
           "  os:intr-storm:cluster<c>[:n=<count>][:@<t0>]\n";
    return 2;
}

/** Parse a full-token number; reject trailing garbage. */
double
parseNumber(const std::string &what, const std::string &tok)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(tok, &pos);
        if (pos != tok.size())
            throw std::invalid_argument(tok);
        return v;
    } catch (const std::exception &) {
        throw std::invalid_argument(what + ": not a number: '" + tok +
                                    "'");
    }
}

/** @p tok as a count that fits a @p T (tools::checkedCount). */
template <typename T = std::uint64_t>
T
parseCount(const std::string &what, const std::string &tok)
{
    const auto n = tools::checkedCount(tok, std::numeric_limits<T>::max());
    if (!n)
        throw std::invalid_argument(
            what + ": not a whole number in [0, " +
            std::to_string(std::numeric_limits<T>::max()) + "]: '" + tok +
            "'");
    return static_cast<T>(*n);
}

struct Flags
{
    /** A run-side subcommand's run: its machine (--ctx-coop and
     *  --gm-* set the cost model), workload, app knobs and run
     *  options. */
    core::ScenarioSpec spec;
    /** metrics: hot spots to list / optional JSON output path. */
    unsigned top = 10;
    std::string jsonOut;
    /** report: optional markdown output path. */
    std::string mdOut;
    /** report: collect the telemetry timeline (cross-check). */
    bool timeline = false;
    /** trace: write Chrome trace JSON / the span trace, not .chpm. */
    bool chrome = false;
    bool spans = false;
    /** batch/study: the study engine's settings (its watchdog
     *  budget only when given); sweep reads its jobs too. */
    core::StudyOptions study;
    /** study: print the expanded grid instead of running it. */
    bool listOnly = false;
    /** study: sweep axes (--axis section.key=v1,v2,...). */
    std::vector<core::GridAxis> axes;
    /** summarize: baseline study directory for regression deltas. */
    std::string baselineDir;
    /** Live progress heartbeat on stderr. */
    bool progress = false;
    /** Suppress the heartbeat and human-readable report output. */
    bool quiet = false;
};

/** Parse args[from..] into @p f. A flag that the subcommand's row in
 *  `commands` does not name is refused, naming the subcommand. */
bool
parseFlags(const std::vector<std::string> &args, std::size_t from,
           Flags &f)
{
    const FlagList &known = commands.at(args[1]).flags;
    auto &o = f.spec.options;
    auto &costs = f.spec.config.costs;
    for (std::size_t i = from; i < args.size(); ++i) {
        const auto &a = args[i];
        const auto it =
            std::find_if(known.begin(), known.end(), [&](auto flag) {
                return flag.substr(0, flag.find(' ')) == a;
            });
        if (it == known.end()) {
            std::cerr << args[1] << ": does not take " << a << "\n";
            return false;
        }
        std::string v;
        if (it->find(' ') != std::string_view::npos) {
            if (i + 1 >= args.size())
                throw std::invalid_argument(a + " needs a value");
            v = args[++i];
        }
        if (a == "--seed") {
            o.seed = parseCount(a, v);
        } else if (a == "--scale") {
            o.scale = parseNumber(a, v);
        } else if (a == "--pickup-block") {
            f.spec.pickupBlock = parseCount<unsigned>(a, v);
        } else if (a == "--inject") {
            o.faults.push_back(fault::parseFaultSpec(v));
        } else if (a == "--watchdog-events") {
            o.watchdogEvents = parseCount(a, v);
            f.study.watchdogEvents = o.watchdogEvents;
        } else if (a == "--gm-timeout") {
            costs.gm_timeout = parseCount(a, v);
        } else if (a == "--gm-retries") {
            costs.gm_max_retries = parseCount<unsigned>(a, v);
        } else if (a == "--gm-backoff") {
            costs.gm_retry_backoff = parseCount(a, v);
        } else if (a == "--ts-window") {
            o.tsWindow = parseCount(a, v);
        } else if (a == "--baseline") {
            f.baselineDir = v;
        } else if (a == "--jobs") {
            f.study.jobs = parseCount<unsigned>(a, v);
        } else if (a == "--top") {
            f.top = parseCount<unsigned>(a, v);
        } else if (a == "--json") {
            f.jsonOut = v;
        } else if (a == "--md") {
            f.mdOut = v;
        } else if (a == "--out") {
            f.study.outDir = v;
        } else if (a == "--cache") {
            f.study.cacheDir = v;
        } else if (a == "--retries") {
            f.study.retries = parseCount<unsigned>(a, v);
        } else if (a == "--shard") {
            const auto slash = v.find('/');
            if (slash == std::string::npos)
                throw std::invalid_argument(
                    "--shard: expected i/N, got '" + v + "'");
            f.study.shardIndex = parseCount<unsigned>(a, v.substr(0, slash));
            f.study.shardCount = parseCount<unsigned>(a, v.substr(slash + 1));
        } else if (a == "--resume") {
            f.study.resume = true;
        } else if (a == "--list") {
            f.listOnly = true;
        } else if (a == "--axis") {
            f.axes.push_back(core::parseGridAxis(v));
        } else if (a == "--timeline") {
            f.timeline = true;
        } else if (a == "--chrome") {
            f.chrome = true;
        } else if (a == "--spans") {
            f.spans = true;
        } else if (a == "--progress") {
            f.progress = true;
        } else if (a == "--quiet") {
            f.quiet = true;
        } else if (a == "--prefetch") {
            f.spec.prefetch = true;
        } else if (a == "--ctx-coop") {
            costs.ctx_rtl_coop = true;
        } else if (a == "--no-fast-path") {
            o.fastPath = false;
        } else if (a == "--fuse") {
            f.spec.fuse = true;
        } else {
            throw std::logic_error("flag table names " + a +
                                   ", which parseFlags does not read");
        }
    }
    return true;
}

/** Install the --progress heartbeat (stderr, wall-clock throttled by
 *  the runtime) into @p opts when the flags ask for one. */
void
applyProgress(core::RunOptions &opts, const Flags &f,
              const std::string &label)
{
    if (!f.progress || f.quiet)
        return;
    opts.progress = [label](const rtl::RunProgress &p) {
        std::cerr << label << ": step " << p.stepsRun << "/"
                  << p.totalSteps << "  t=" << p.now << "  events "
                  << p.events << "  wait " << p.totalWaitTicks << "\n";
    };
}

/** @p cfg in the machine shape of the @p nprocs paper point, on its
 *  own memory system, clock and cost model. */
hw::CedarConfig
withPaperShape(hw::CedarConfig cfg, unsigned nprocs)
{
    const auto paper = hw::CedarConfig::withProcs(nprocs);
    cfg.nClusters = paper.nClusters;
    cfg.cesPerCluster = paper.cesPerCluster;
    return cfg;
}

/**
 * Parse a run-side subcommand into @p f.spec: the run comes from
 * `--scenario FILE` or from `<app> <procs>` positionals (run-file
 * takes a workload file for <app>, sweep takes no procs and faults'
 * default to 8), and then the flags override its settings. trace's
 * last positional, its outfile, goes to @p out.
 */
bool
parseRun(const std::vector<std::string> &args, Flags &f,
         std::string *out = nullptr)
{
    const std::string &cmd = args[1];
    const bool scenario = args.size() > 3 && args[2] == "--scenario";
    std::size_t i = scenario ? 4 : 2;
    std::vector<std::string> pos;
    for (; i < args.size() && args[i][0] != '-'; ++i)
        pos.push_back(args[i]);
    if (scenario)
        f.spec = core::parseScenarioFile(args[3]);
    if (!parseFlags(args, i, f))
        return false;
    if (out) {
        if (pos.empty())
            return false;
        *out = pos.back();
        pos.pop_back();
    }
    if (scenario)
        return pos.empty();
    const std::size_t most = cmd == "sweep" ? 1 : 2;
    const std::size_t least = cmd == "sweep" || cmd == "faults" ? 1 : 2;
    if (pos.size() < least || pos.size() > most)
        return false;
    f.spec.workload = cmd == "run-file" ? apps::parseWorkloadFile(pos[0])
                                        : apps::perfectAppByName(pos[0]);
    if (most == 2)
        f.spec.config = withPaperShape(
            f.spec.config,
            pos.size() == 2 ? parseCount<unsigned>("processor count", pos[1])
                            : 8);
    return true;
}

void
printFaultSummary(const core::RunResult &r)
{
    if (r.faultLog.empty())
        return;
    std::cout << "fault injection: " << r.faultsInjected
              << " perturbations delivered, "
              << r.faultLog.count(fault::FaultKind::access_timeout)
              << " access timeouts, " << r.accessesDegraded
              << " degraded accesses, " << r.parkedCes
              << " parked CE(s)\n";
}

void
printRun(const core::RunResult &r, const core::RunResult *uni)
{
    std::cout << r.app << " on " << r.nprocs << " processors ("
              << r.nClusters << " cluster(s) x " << r.cesPerCluster
              << " CE(s))\n\n";
    if (r.status != sim::RunStatus::Completed)
        std::cout << "run status: " << sim::toString(r.status) << "\n";
    printFaultSummary(r);
    std::cout << "completion time: " << core::Table::num(r.seconds(), 3)
              << " s (" << r.ct << " cycles)"
              << (r.status == sim::RunStatus::Completed ||
                          r.status == sim::RunStatus::Faulted
                      ? ""
                      : " — progress at termination")
              << "\n";
    if (uni && uni->ct != r.ct) {
        std::cout << "speedup vs 1 proc: "
                  << core::Table::num(uni->seconds() / r.seconds(), 2)
                  << "\n";
    }
    std::cout << "average concurrency: "
              << core::Table::num(r.machineConcurrency, 2) << "\n\n";

    const auto cb = core::ctBreakdownTotal(r);
    std::cout << "completion-time breakdown (Q view): user "
              << core::Table::num(cb.userPct, 1) << "%, system "
              << core::Table::num(cb.systemPct, 2) << "%, interrupt "
              << core::Table::num(cb.interruptPct, 2) << "%, spin "
              << core::Table::num(cb.kspinPct, 2) << "%\n\n";

    std::cout << "OS activity detail (% of CT):\n";
    for (const auto &row : core::osActivityTable(r)) {
        if (row.pctOfCt < 0.005)
            continue;
        std::cout << "  " << toString(row.act) << ": "
                  << core::Table::num(row.pctOfCt, 2) << "%\n";
    }

    std::cout << "\nper-task user-time breakdown (% of CT):\n";
    core::Table t({"task", "serial", "mc loop", "iters", "setup",
                   "pickup", "barrier", "wait"});
    for (unsigned c = 0; c < r.nClusters; ++c) {
        const auto ub = core::userBreakdown(r, c);
        auto p = [&](os::UserAct a) {
            return core::Table::num(ub.pctOf(a, r.ct), 1);
        };
        t.addRow({c == 0 ? "main" : "helper" + std::to_string(c),
                  p(os::UserAct::serial), p(os::UserAct::mc_loop),
                  p(os::UserAct::iter_exec), p(os::UserAct::loop_setup),
                  p(os::UserAct::iter_pickup),
                  p(os::UserAct::barrier_wait),
                  p(os::UserAct::helper_wait)});
    }
    t.print(std::cout);

    if (uni && uni->ct != r.ct) {
        const auto d = core::decomposeCompletionTime(r, *uni);
        std::cout << "\ncompletion-time closure (main task): serial "
                  << core::Table::num(d.serialPct, 1) << "% + ideal loop "
                  << core::Table::num(d.loopIdealPct, 1)
                  << "% + contention "
                  << core::Table::num(d.contentionPct, 1)
                  << "% + barrier " << core::Table::num(d.barrierPct, 1)
                  << "% + setup " << core::Table::num(d.setupPct, 1)
                  << "% + residual "
                  << core::Table::num(d.residualPct, 1) << "%\n";
        const auto e = core::estimateContention(r, *uni);
        std::cout << "\ncontention (paper method): Tp_actual "
                  << core::Table::num(e.tpActualSec, 3) << " s, Tp_ideal "
                  << core::Table::num(e.tpIdealSec, 3) << " s, Ov_cont "
                  << core::Table::num(e.ovContPct, 1) << "% of CT\n";
        std::cout << "contention (ground truth queueing): "
                  << core::Table::num(
                         core::groundTruthContentionPct(r), 1)
                  << "% of CT\n";
    }

    std::cout << "\ncounters: " << r.rtlStats.loopsPosted
              << " loops posted, " << r.rtlStats.bodiesExecuted
              << " bodies, " << r.seqFaults << "+" << r.concFaults
              << " page faults (seq+conc), " << r.osStats.cpis
              << " CPIs, " << r.osStats.ctxSwitches
              << " context switches, " << r.globalWords
              << " global words moved\n";
}

/** Exit status of a run report: 0 unless progress was lost. */
int
runExitCode(const core::RunResult &r)
{
    return r.status == sim::RunStatus::Deadlock ||
                   r.status == sim::RunStatus::EventLimit
               ? 3
               : 0;
}

int
cmdRun(const std::vector<std::string> &args)
{
    Flags f;
    if (!parseRun(args, f))
        return usage();
    const auto app = f.spec.resolveApp();
    const auto &cfg = f.spec.config;
    // The 1-processor comparison baseline (the paper's uniprocessor
    // run, on the same memory system, clock and cost model) always
    // runs undisturbed.
    core::RunOptions uniOpts = f.spec.options;
    uniOpts.faults.clear();
    applyProgress(uniOpts, f, args[1] + "(1p baseline)");
    const auto uni =
        core::runExperiment(app, withPaperShape(cfg, 1), uniOpts);
    core::RunOptions opts = f.spec.options;
    applyProgress(opts, f, args[1]);
    const auto r = cfg.numCes() == 1 && opts.faults.empty()
                       ? uni
                       : core::runExperiment(app, cfg, opts);
    if (!f.quiet)
        printRun(r, &uni);
    else
        std::cout << r.app << " " << r.nprocs << "p: CT "
                  << core::Table::num(r.seconds(), 3) << " s ("
                  << sim::toString(r.status) << ")\n";
    return runExitCode(r);
}

int
cmdSweep(const std::vector<std::string> &args)
{
    Flags f;
    if (!parseRun(args, f))
        return usage();
    const auto app = f.spec.resolveApp();
    const auto &cfg = f.spec.config;
    // Sweep the processor ladder on the run's memory system; a
    // non-paper machine shape becomes an extra final point.
    std::vector<hw::CedarConfig> configs;
    for (const unsigned p : hw::CedarConfig::paperProcCounts())
        configs.push_back(withPaperShape(cfg, p));
    if (!cfg.isPaperPoint())
        configs.push_back(cfg);
    // Per-config completion heartbeat: runs land on worker threads,
    // so the line is built under a mutex.
    core::SweepResultFn onResult;
    std::mutex progressMx;
    if (f.progress && !f.quiet) {
        onResult = [&](std::size_t i, const core::RunResult &r) {
            std::lock_guard<std::mutex> lk(progressMx);
            std::cerr << "sweep: " << configs[i].label() << " done, CT "
                      << core::Table::num(r.seconds(), 3) << " s ("
                      << sim::toString(r.status) << ")\n";
        };
    }
    const auto sweep =
        core::runSweep(app, f.spec.options, configs, f.study.jobs,
                       onResult);

    core::Table t({"config", "CT (s)", "speedup", "concurr", "OS %",
                   "main ovh %", "Ov_cont %"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &r = sweep[i];
        const auto e = core::estimateContention(r, sweep.front());
        t.addRow({configs[i].label(), core::Table::num(r.seconds(), 3),
                  core::Table::num(sweep.front().seconds() / r.seconds(),
                                   2),
                  core::Table::num(r.machineConcurrency, 2),
                  core::Table::num(
                      core::ctBreakdownTotal(r).osTotalPct(), 1),
                  core::Table::num(
                      core::userBreakdown(r, 0).overheadPct(r.ct), 1),
                  core::Table::num(e.ovContPct, 1)});
    }
    std::cout << app.name << " configuration sweep\n\n";
    t.print(std::cout);
    return 0;
}

/**
 * The canonical degradation matrix: one clean run plus one run per
 * fault family, all against the same undisturbed 1-processor
 * baseline, so the paper's contention estimate (T_p_actual -
 * T_p_ideal) can be read as a fault detector.
 */
int
cmdFaults(const std::vector<std::string> &args)
{
    Flags f;
    if (!parseRun(args, f))
        return usage();
    const auto app = f.spec.resolveApp();
    const auto &o = f.spec.options;
    if (!o.faults.empty() || f.spec.config.costs.gm_timeout != 0)
        throw std::invalid_argument(
            "faults: the matrix sets each row's fault plan and "
            "gm_timeout; the scenario may not");

    struct Scenario
    {
        const char *label;
        std::vector<const char *> specs;
        sim::Tick gmTimeout;
    };
    const std::vector<Scenario> matrix = {
        {"baseline", {}, 0},
        {"module 7 4x slower", {"module:7:degrade:4x"}, 0},
        {"module 7 dead, no timeout", {"module:7:stuck:@1e6"}, 0},
        {"module 7 dead, retry path", {"module:7:stuck:@1e6"}, 30000},
        {"stage-2 switch 3 stalls", {"switch:stage2:3:stall:20000:@1e6"},
         0},
        {"CE 1 hiccups", {"ce:1:hiccup:p=1e-4"}, 0},
        {"interrupt storm, cluster 0",
         {"os:intr-storm:cluster0:n=16:@1e6"}, 0},
    };

    // The baseline runs no fault plan, so no retry knob reaches it.
    const auto uni =
        core::runExperiment(app, withPaperShape(f.spec.config, 1), o);

    std::cout << app.name << " fault-degradation matrix on "
              << f.spec.config.numCes() << " processors (seed " << o.seed
              << ")\n\n";
    core::Table t({"scenario", "status", "CT (s)", "Ov_cont %", "gt %",
                   "injected", "degraded"});
    for (const auto &sc : matrix) {
        core::RunOptions opts = o;
        for (const char *spec : sc.specs)
            opts.faults.push_back(fault::parseFaultSpec(spec));
        hw::CedarConfig cfg = f.spec.config;
        cfg.costs.gm_timeout = sc.gmTimeout;
        const auto r = core::runExperiment(app, cfg, opts);

        const bool usable = r.status == sim::RunStatus::Completed ||
                            r.status == sim::RunStatus::Faulted;
        const auto e = core::estimateContention(r, uni);
        t.addRow({sc.label, sim::toString(r.status),
                  core::Table::num(r.seconds(), 3),
                  usable ? core::Table::num(e.ovContPct, 1) : "-",
                  usable ? core::Table::num(
                               core::groundTruthContentionPct(r), 1)
                         : "-",
                  std::to_string(r.faultsInjected),
                  std::to_string(r.accessesDegraded)});
    }
    t.print(std::cout);
    std::cout
        << "\nOv_cont is the paper's contention estimate (T_p_actual - "
           "T_p_ideal) against the\nclean 1-processor baseline; gt is "
           "the ground-truth queueing the CEs observed.\nInjected "
           "perturbations and degraded (fallback-path) accesses come "
           "from the fault\nlog. Non-completed statuses mean the "
           "watchdog/deadlock detection fired.\n";
    return 0;
}

/**
 * Per-resource contention report: where the queueing concentrated
 * (the paper's lock-word hot spot lights up one memory module under
 * ADM/XDOALL), how imbalanced the modules are, and per-class wait
 * distributions. --json writes the machine-readable document.
 */
int
cmdMetrics(const std::vector<std::string> &args)
{
    Flags f;
    if (!parseRun(args, f))
        return usage();
    const auto r = core::runExperiment(f.spec.resolveApp(), f.spec.config,
                                       f.spec.options);

    std::cout << r.app << " on " << f.spec.config.label()
              << " — contention metrics\n\n";
    if (r.status != sim::RunStatus::Completed)
        std::cout << "run status: " << sim::toString(r.status) << "\n";
    printFaultSummary(r);
    r.metrics.print(std::cout, f.top);

    const auto &mem =
        r.metrics.perClass(obs::ResourceClass::memory_module);
    const auto hot = r.metrics.topByWait(1);
    if (!hot.empty() && mem.resources > 0) {
        const double mean_share = mem.waitShare / mem.resources;
        std::cout << "\ntop hot spot " << hot.front().name << " holds "
                  << core::Table::num(100.0 * hot.front().waitShare, 1)
                  << "% of all queueing wait ("
                  << core::Table::num(
                         mean_share > 0
                             ? hot.front().waitShare / mean_share
                             : 0.0,
                         1)
                  << "x the module mean)\n";
    }

    if (!f.jsonOut.empty()) {
        // With --ts-window the document grows a "timeseries" section;
        // without it the output is byte-identical to older builds.
        core::atomicWriteFile(f.jsonOut, [&](std::ostream &out) {
            r.metrics.writeJson(out, &r.timeseries);
        });
        std::cout << "wrote metrics JSON to " << f.jsonOut << "\n";
    }
    return runExitCode(r);
}

/**
 * The paper-figure decomposition report: Figure-3 and Figure-4
 * breakdowns plus the Table-2 OS detail for one run, with the
 * accounting conservation check — and, with --timeline, the
 * tracer-vs-accounting cross-check. Markdown on stdout; --json and
 * --md write the artifacts (schema cedar-report-v1).
 */
int
cmdReport(const std::vector<std::string> &args)
{
    Flags f;
    if (!parseRun(args, f))
        return usage();
    core::RunOptions opts = f.spec.options;
    opts.collectTimeline = f.timeline;
    applyProgress(opts, f, "report");
    const auto r =
        core::runExperiment(f.spec.resolveApp(), f.spec.config, opts);
    const auto rep = core::buildReport(r);

    if (!f.quiet)
        rep.writeMarkdown(std::cout);
    if (!f.jsonOut.empty()) {
        core::atomicWriteFile(f.jsonOut, [&](std::ostream &out) {
            rep.writeJson(out);
            out << "\n";
        });
        std::cout << "wrote report JSON to " << f.jsonOut << "\n";
    }
    if (!f.mdOut.empty()) {
        core::atomicWriteFile(f.mdOut, [&](std::ostream &out) {
            rep.writeMarkdown(out);
        });
        std::cout << "wrote report markdown to " << f.mdOut << "\n";
    }
    return runExitCode(r);
}

int
cmdTrace(const std::vector<std::string> &args)
{
    // Converter form: trace --chrome <in.chpm> <out.json>.
    if (args.size() == 5 && args[2] == "--chrome") {
        const auto recs = hpm::Trace::readFile(args[3]);
        core::atomicWriteFile(args[4], [&](std::ostream &out) {
            obs::writeChromeTrace(out, recs);
        });
        std::cout << "wrote Chrome trace JSON to " << args[4] << "\n";
        return 0;
    }

    Flags f;
    std::string path;
    if (!parseRun(args, f, &path))
        return usage();
    core::RunOptions opts = f.spec.options;
    opts.collectTrace = !f.spans;
    opts.collectTimeline = f.spans;
    const auto r =
        core::runExperiment(f.spec.resolveApp(), f.spec.config, opts);

    if (f.spans) {
        // The span-level (telemetry) trace: per-CE category slices
        // plus GM-request flow arrows, one track group per layer.
        obs::SpanTraceMeta meta;
        meta.clock_hz = r.clockHz;
        meta.ces_per_cluster = r.cesPerCluster;
        meta.timeseries = &r.timeseries; // counter tracks (--ts-window)
        core::atomicWriteFile(path, [&](std::ostream &out) {
            obs::writeSpanTrace(out, r.timeline, meta);
        });
        std::cout << "wrote " << r.timeline.size()
                  << " telemetry events as Chrome span trace JSON to "
                  << path << "\n";
        return 0;
    }

    if (f.chrome) {
        core::atomicWriteFile(path, [&](std::ostream &out) {
            obs::writeChromeTrace(out, r.trace, r.clockHz,
                                  r.cesPerCluster);
        });
        std::cout << "wrote " << r.trace.size()
                  << " records as Chrome trace JSON to " << path << "\n";
    } else {
        core::atomicWriteFile(path, [&](std::ostream &out) {
            hpm::Trace::write(out, r.trace);
        });
        std::cout << "wrote " << r.trace.size() << " records to " << path
                  << "\n";
    }
    // A full cedarhpm buffer drops the rest of the run: the trace
    // written is a truncated one.
    if (r.traceDropped > 0) {
        std::cerr << "trace: cedarhpm buffer full, " << r.traceDropped
                  << " records dropped\n";
        return 3;
    }
    return 0;
}

/**
 * Shared batch/study driver: run the entries on the crash-safe
 * study engine (core/study.hh) and print the outcome table. The
 * engine journals every state transition to <out>/manifest.jsonl,
 * serves cache hits from the content-addressed result cache, and
 * isolates per-scenario failures; this wrapper only renders.
 */
int
runStudyCli(const char *label, const std::vector<core::StudyEntry> &entries,
            const std::string &from, const Flags &f)
{
    core::StudyOptions opts = f.study;

    std::mutex progressMx;
    if (f.progress && !f.quiet) {
        opts.onScenario = [&](const core::StudyEntry &e,
                              core::StudyState s,
                              const std::string &detail) {
            std::lock_guard<std::mutex> lk(progressMx);
            std::cerr << label << ": " << e.name << " "
                      << core::toString(s)
                      << (detail.empty() ? "" : " (" + detail + ")")
                      << "\n";
        };
    }

    const auto rep = core::runStudy(entries, opts);

    core::Table t({"scenario", "state", "machine", "app", "status",
                   "CT (s)", "concurr"});
    for (const auto &row : rep.rows) {
        if (row.state == core::StudyState::skipped)
            continue;
        const bool ok = row.state != core::StudyState::failed;
        t.addRow({row.name, core::toString(row.state),
                  ok ? row.machine : "-", ok ? row.app : "-",
                  row.status,
                  ok ? core::Table::num(row.seconds, 3) : "-",
                  ok ? core::Table::num(row.concurrency, 2) : "-"});
        if (!ok)
            std::cerr << label << ": " << row.source << ": "
                      << row.error << "\n";
    }

    if (!f.quiet) {
        std::cout << label << ": " << entries.size()
                  << " scenario(s) from " << from << " — " << rep.ran
                  << " run, " << rep.cached << " cached, "
                  << rep.resumed << " resumed, " << rep.failed
                  << " failed";
        if (opts.shardCount > 1)
            std::cout << ", " << rep.skipped << " other-shard (shard "
                      << opts.shardIndex << "/" << opts.shardCount << ")";
        std::cout << "; artifacts in " << opts.outDir << "\n\n";
        t.print(std::cout);
        if (rep.failed)
            std::cout << "\n" << rep.failed << " scenario(s) failed\n";
    }
    return rep.exitCode();
}

int
cmdBatch(const std::vector<std::string> &args)
{
    if (args.size() < 3)
        return usage();
    Flags f;
    if (!parseFlags(args, 3, f))
        return usage();
    // Directory problems (missing, empty, duplicate names) are
    // study-level ConfigErrors; a single malformed .scn is not — it
    // becomes a failed manifest entry while its siblings run.
    const auto entries = core::loadScenarioDir(args[2]);
    return runStudyCli("batch", entries, args[2], f);
}

int
cmdStudy(const std::vector<std::string> &args)
{
    if (args.size() < 3 || args[2][0] == '-')
        return usage();
    Flags f;
    if (!parseFlags(args, 3, f))
        return usage();
    const auto entries = core::expandScenarioGrid(args[2], f.axes);

    if (f.listOnly) {
        core::Table t({"scenario", "hash", "shard", "source"});
        for (const auto &e : entries)
            t.addRow({e.name,
                      e.parseError.empty() ? e.hash : "(invalid)",
                      std::to_string(e.hashValue % f.study.shardCount),
                      e.source});
        std::cout << entries.size() << " grid point(s) from " << args[2]
                  << "\n\n";
        t.print(std::cout);
        int bad = 0;
        for (const auto &e : entries)
            if (!e.parseError.empty()) {
                ++bad;
                std::cerr << "study: " << e.name << ": " << e.parseError
                          << "\n";
            }
        return bad ? 1 : 0;
    }
    return runStudyCli("study", entries, args[2], f);
}

/**
 * Cross-study aggregation: merge one or more study/batch output
 * directories (by their manifest snapshots) into a cedar-summary-v1
 * report. Pure read-side analytics — nothing is simulated — and
 * deterministic: the same artifact set yields byte-identical output
 * in any directory order, sharded or not.
 */
int
cmdSummarize(const std::vector<std::string> &args)
{
    core::SummarizeOptions sopts;
    std::size_t i = 2;
    for (; i < args.size() && args[i][0] != '-'; ++i)
        sopts.dirs.push_back(args[i]);
    if (sopts.dirs.empty())
        return usage();
    Flags f;
    if (!parseFlags(args, i, f))
        return usage();
    sopts.baselineDir = f.baselineDir;
    sopts.top = f.top;

    const auto summary = core::buildSummary(sopts);
    if (!f.quiet)
        core::writeSummaryMarkdown(std::cout, summary);
    if (!f.jsonOut.empty()) {
        core::atomicWriteFile(f.jsonOut, [&](std::ostream &out) {
            core::writeSummaryJson(out, summary);
        });
        std::cerr << "wrote summary JSON to " << f.jsonOut << "\n";
    }
    if (!f.mdOut.empty()) {
        core::atomicWriteFile(f.mdOut, [&](std::ostream &out) {
            core::writeSummaryMarkdown(out, summary);
        });
        std::cerr << "wrote summary markdown to " << f.mdOut << "\n";
    }
    return summary.failures.empty() ? 0 : 3;
}

int
cmdProfile(const std::vector<std::string> &args)
{
    Flags f;
    if (args.size() < 4 || !parseFlags(args, 4, f))
        return usage();
    const auto app = apps::perfectAppByName(args[2]);
    const unsigned procs = parseCount<unsigned>("processor count", args[3]);
    core::RunOptions opts;
    opts.collectTrace = true;
    const auto r = core::runExperiment(app, procs, opts);
    const auto profile = core::profileLoopPhases(r);
    std::cout << app.name << " loop-phase profile on " << procs
              << " processors (CT "
              << core::Table::num(r.seconds(), 3) << " s)\n\n";
    core::printLoopProfile(std::cout, r, profile);
    std::cout << "\nPhase numbers index the application's phase list "
                 "(cedar_cli apps).\nHigh barrier % -> a fusion "
                 "candidate; high pickup CPU on an xdoall ->\na "
                 "stripmining/chunking candidate (paper Section 6).\n";
    return 0;
}

int
cmdApps(const std::vector<std::string> &args)
{
    Flags f;
    if (!parseFlags(args, 2, f))
        return usage();
    for (const auto &app : apps::allPerfectApps()) {
        std::cout << app.name << ": " << app.steps << " steps, "
                  << app.phases.size() << " phases ("
                  << app.countLoops(apps::LoopKind::sdoall)
                  << " sdoall, "
                  << app.countLoops(apps::LoopKind::xdoall)
                  << " xdoall, "
                  << app.countLoops(apps::LoopKind::mc_cdoall)
                  << " mc cdoall, "
                  << app.countLoops(apps::LoopKind::cdoacross)
                  << " cdoacross per step)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv, argv + argc);
    if (args.size() < 2 || !commands.count(args[1]))
        return usage();
    try {
        if (args[1] == "run" || args[1] == "run-file")
            return cmdRun(args);
        if (args[1] == "sweep")
            return cmdSweep(args);
        if (args[1] == "faults")
            return cmdFaults(args);
        if (args[1] == "metrics")
            return cmdMetrics(args);
        if (args[1] == "report")
            return cmdReport(args);
        if (args[1] == "trace")
            return cmdTrace(args);
        if (args[1] == "batch")
            return cmdBatch(args);
        if (args[1] == "study")
            return cmdStudy(args);
        if (args[1] == "summarize")
            return cmdSummarize(args);
        if (args[1] == "profile")
            return cmdProfile(args);
        if (args[1] == "apps")
            return cmdApps(args);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
