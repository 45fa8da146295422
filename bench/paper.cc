/**
 * @file
 * The paper generator: makes every run behind the paper's Tables 1-4,
 * Figures 3 and 5-9 and the ablations A1-A8 once, and writes each
 * table twice — as markdown into a copy of EXPERIMENTS.md, and as
 * full-precision numbers into paper.json.
 *
 *   paper DOC OUT_DIR
 *
 * DOC holds one block per table ID below, a `<!-- paper:ID -->` line
 * and a `<!-- /paper:ID -->` line. OUT_DIR/EXPERIMENTS.md is DOC with
 * each block's body replaced by its table; OUT_DIR/paper.json
 * (cedar-paper-v1) holds every table's columns and rows, labels as
 * strings and model values as numbers. DOC is checked before anything
 * runs: an unreadable file, an unclosed, nested, duplicated or unknown
 * marker, or a table without a block exits 1 and writes nothing.
 *
 * Each run is a core::ScenarioSpec; a variant is one of its knobs
 * (fuse, prefetch, pickup_block, [costs]). Tables that share a run
 * read the same one: Table 2, A3 and the A5/A6/A8 baselines read the
 * 25 paper points.
 */

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hh"
#include "core/breakdown.hh"
#include "core/concurrency.hh"
#include "core/contention.hh"
#include "core/parallel.hh"
#include "core/scenario.hh"
#include "core/study.hh"
#include "core/table.hh"
#include "harness.hh"
#include "hw/machine.hh"

using namespace cedar;
using cedar::os::UserAct;
using cedar::sim::Tick;

namespace
{

// ---------------------------------------------------------------
// Tables
// ---------------------------------------------------------------

/** One cell: a label, or a model value printed at a fixed precision
 *  with a unit, and the paper's value in parentheses where the paper
 *  published one. */
struct Cell
{
    std::string label;
    std::optional<double> value;
    int prec = 0;
    const char *unit = "";
    std::optional<double> paper;

    Cell(std::string l) : label(std::move(l)) {}
    Cell(const char *l) : label(l) {}
    Cell(double v, int p, const char *u = "",
         std::optional<double> pv = std::nullopt)
        : value(v), prec(p), unit(u), paper(pv)
    {
    }

    std::string
    text() const
    {
        if (!value)
            return label;
        std::string s = core::Table::num(*value, prec) + unit;
        if (paper)
            s += " (" + core::Table::num(*paper, prec) + ")";
        return s;
    }
};

using Row = std::vector<Cell>;

struct PaperTable
{
    std::vector<std::string> columns;
    std::vector<Row> rows;
};

std::string
markdown(const PaperTable &t)
{
    core::Table out(t.columns);
    for (const auto &row : t.rows) {
        std::vector<std::string> cells;
        for (const auto &c : row)
            cells.push_back(c.text());
        out.addRow(std::move(cells));
    }
    std::ostringstream os;
    out.print(os);
    return os.str();
}

std::string
procCol(unsigned procs)
{
    return std::to_string(procs) + " proc";
}

// ---------------------------------------------------------------
// The run plan
// ---------------------------------------------------------------

/** A2's workloads: one iteration space (512 bodies per step) through
 *  the hierarchical SDOALL/CDOALL nest or the flat XDOALL. */
apps::AppModel
constructApp(bool flat)
{
    apps::AppModel app;
    app.name = flat ? "xdoall" : "sdoall";
    app.steps = 25;
    apps::SerialSpec s;
    s.compute = 12000;
    s.pages = 2;
    app.phases.push_back(s);
    apps::LoopSpec l;
    if (flat) {
        l.kind = apps::LoopKind::xdoall;
        l.outerIters = 512;
        l.innerIters = 1;
    } else {
        l.kind = apps::LoopKind::sdoall;
        l.outerIters = 16;
        l.innerIters = 32;
    }
    l.computePerIter = 2200;
    l.words = 128;
    l.burstLen = 64;
    l.regionWords = 1 << 17;
    l.nBuffers = 1;
    app.phases.push_back(l);
    return app;
}

/** A7's workload: a deliberately fine-grained flat loop, the worst
 *  case for the shared index word. */
apps::AppModel
fineGrainedXdoall()
{
    apps::AppModel app;
    app.name = "fine-xdoall";
    app.steps = 12;
    apps::LoopSpec l;
    l.kind = apps::LoopKind::xdoall;
    l.outerIters = 2048;
    l.computePerIter = 700;
    l.words = 32;
    l.burstLen = 32;
    l.regionWords = 1 << 17;
    app.phases.push_back(l);
    return app;
}

const std::array<unsigned, 5> pickup_blocks = {1, 2, 4, 8, 16};

core::ScenarioSpec
point(std::string name, unsigned procs)
{
    core::ScenarioSpec s;
    s.name = std::move(name);
    s.config = hw::CedarConfig::withProcs(procs);
    return s;
}

/** Every full-scale run the tables read, once each. */
std::vector<core::ScenarioSpec>
makePlan()
{
    std::vector<core::ScenarioSpec> plan;
    for (const auto &app : bench::app_names) {
        for (const unsigned p : bench::configs) {
            plan.push_back(point(app, p));
            plan.back().appName = app;
        }
        // A5 and A6: the 32p point, fused or with cooperation.
        plan.push_back(point(app + "+fused", 32));
        plan.back().appName = app;
        plan.back().fuse = true;
        plan.push_back(point(app + "+coop", 32));
        plan.back().appName = app;
        plan.back().config.costs.ctx_rtl_coop = true;
    }
    for (const unsigned p : bench::configs) {
        plan.push_back(point("FLO52+prefetch", p)); // A8
        plan.back().appName = "FLO52";
        plan.back().prefetch = true;
        for (const bool flat : {false, true}) { // A2
            plan.push_back(point(flat ? "xdoall" : "sdoall", p));
            plan.back().workload = constructApp(flat);
        }
    }
    for (const unsigned b : pickup_blocks) { // A7
        plan.push_back(point("block " + std::to_string(b), 32));
        plan.back().workload = fineGrainedXdoall();
        plan.back().pickupBlock = b;
    }
    // Longest first, so no long run starts last: a run's wall time
    // grows with the processor count (more of its traffic contends).
    std::stable_sort(plan.begin(), plan.end(), [](const auto &a,
                                                  const auto &b) {
        return a.config.nClusters * a.config.cesPerCluster >
               b.config.nClusters * b.config.cesPerCluster;
    });
    return plan;
}

/** A1's barrier episodes under one scheme. */
struct Episodes
{
    double barrierTicks = 0;    //!< mean ticks per barrier episode
    double trafficSlowdown = 0; //!< background burst latency vs unloaded
};

/**
 * A1: run @p episodes barrier episodes on the 32-CE machine, driven
 * directly. In the clustered scheme only one CE per cluster touches
 * the global barrier word (after the cluster's bus sync); in the flat
 * scheme all 32 do, turning the word's memory module into a hot spot.
 * With @p background, each episode first reserves one 64-word burst
 * per CE through the shared network, as the CE's prefetch would,
 * leaving the CE free, and the barrier starts at once, while the
 * bursts are still in flight. The next episode starts once they have
 * all answered.
 */
Episodes
barrierEpisodes(bool clustered, bool background, unsigned episodes)
{
    hw::Machine m{hw::CedarConfig::withProcs(32)};
    const auto barrier_word = m.allocSyncWord();
    const auto region = m.allocGlobal(1 << 16);

    Tick barrier_total = 0;
    double slowdown_total = 0;
    std::uint64_t bursts = 0;
    Tick drained = 0; // when every burst issued so far has answered

    for (unsigned e = 0; e < episodes; ++e) {
        m.eq().runUntil(std::max(m.now(), drained));
        const Tick bstart = m.now();
        if (background) {
            for (unsigned i = 0; i < 32; ++i) {
                const hw::Ce &ce = m.ce(static_cast<sim::CeId>(i));
                const auto r = m.net().burst(
                    bstart, ce.cluster(), ce.localIndex(),
                    region + (e * 32 + i) * 64 % ((1 << 16) - 64), 64);
                slowdown_total += static_cast<double>(r.complete - bstart) /
                                  static_cast<double>(r.unloaded);
                ++bursts;
                drained = std::max(drained, r.complete);
            }
        }

        const unsigned updaters = clustered ? 4 : 32;
        Tick bdone = bstart;
        for (unsigned u = 0; u < updaters; ++u) {
            const auto id = static_cast<sim::CeId>(clustered ? u * 8 : u);
            const Tick bus = clustered ? m.costs().cdoall_sync : 0;
            m.ce(id).compute(bus + 1, UserAct::iter_exec, [&, id] {
                m.ce(id).globalRmw(barrier_word,
                                   [](std::uint64_t v) { return v + 1; },
                                   UserAct::barrier_wait,
                                   [&](std::uint64_t) {
                                       bdone = std::max(bdone, m.now());
                                   });
            });
        }
        m.eq().run();
        barrier_total += bdone - bstart;
    }

    Episodes res;
    res.barrierTicks = static_cast<double>(barrier_total) / episodes;
    res.trafficSlowdown =
        bursts ? slowdown_total / static_cast<double>(bursts) : 0.0;
    return res;
}

/** The plan and its runs, and A1's episodes. */
struct RunSet
{
    std::vector<core::ScenarioSpec> plan;
    std::vector<core::RunResult> runs; //!< runs[i] is plan[i]'s run
    /** Clustered, flat, clustered + traffic, flat + traffic. */
    std::array<Episodes, 4> a1;

    std::size_t
    index(const std::string &name, unsigned procs) const
    {
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].name == name && runs[i].nprocs == procs)
                return i;
        }
        throw std::logic_error("no run " + name + " at " +
                               procCol(procs));
    }

    const core::RunResult &
    at(const std::string &name, unsigned procs) const
    {
        return runs[index(name, procs)];
    }
};

/** Make every run once, on one pool, each into its slot. */
RunSet
runAll()
{
    RunSet set;
    set.plan = makePlan();
    set.runs.resize(set.plan.size());
    // A1's episodes are the shortest entries; they go last.
    core::parallelFor(
        set.plan.size() + set.a1.size(), 0, [&](std::size_t i) {
            if (i < set.plan.size()) {
                set.runs[i] = core::runScenario(set.plan[i]);
            } else {
                const std::size_t s = i - set.plan.size();
                set.a1[s] = barrierEpisodes(s % 2 == 0, s >= 2, 200);
            }
        });
    return set;
}

// ---------------------------------------------------------------
// The tables, each a function of the run set
// ---------------------------------------------------------------

double
pickupPct(const core::RunResult &r)
{
    return core::userBreakdown(r, 0).pctOf(UserAct::iter_pickup, r.ct);
}

/** Table 1: completion times, speedups, average concurrency. */
PaperTable
table1(const RunSet &set)
{
    PaperTable t{{"Program", ""}, {}};
    for (const unsigned p : bench::configs)
        t.columns.push_back(procCol(p));
    for (const auto &name : bench::app_names) {
        const double ct1 = set.at(name, 1).seconds();
        Row ct{name, "CT (s)"};
        Row sp{name, "Speedup", "-"};
        Row cc{name, "Concurr", "-"};
        for (std::size_t i = 0; i < bench::configs.size(); ++i) {
            const auto &r = set.at(name, bench::configs[i]);
            ct.push_back({r.seconds(), 2});
            if (i == 0)
                continue;
            sp.push_back({ct1 / r.seconds(), 2, "",
                          bench::paper_speedup.at(name)[i]});
            cc.push_back({r.machineConcurrency, 2, "",
                          bench::paper_concurrency.at(name)[i]});
        }
        t.rows.insert(t.rows.end(), {ct, sp, cc});
    }
    return t;
}

/** Table 2: OS activity detail at 32 processors. */
PaperTable
table2(const RunSet &set)
{
    const std::vector<std::string> apps = {"FLO52", "ARC2D", "MDG"};
    PaperTable t{{"Overhead Category"}, {}};
    std::vector<std::vector<core::OsActivityRow>> acts;
    for (const auto &a : apps) {
        t.columns.push_back(a + " (ms)");
        t.columns.push_back(a + " %");
        acts.push_back(core::osActivityTable(set.at(a, 32)));
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(os::OsAct::NUM);
         ++i) {
        const auto act = static_cast<os::OsAct>(i);
        if (act == os::OsAct::other)
            continue; // residual bookkeeping, not a paper row
        Row row{toString(act)};
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const auto &paper = bench::paper_os_detail.at(apps[a]);
            const auto it = paper.find(toString(act));
            row.push_back({1e3 * acts[a][i].seconds, 2});
            row.push_back({acts[a][i].pctOfCt, 2, "",
                           it == paper.end()
                               ? std::nullopt
                               : std::optional<double>(it->second)});
        }
        t.rows.push_back(std::move(row));
    }
    return t;
}

/** Table 3: average parallel-loop concurrency per task. */
PaperTable
table3(const RunSet &set)
{
    PaperTable t{{"Config", "Task"}, {}};
    t.columns.insert(t.columns.end(), bench::app_names.begin(),
                     bench::app_names.end());
    for (std::size_t i = 1; i < bench::configs.size(); ++i) {
        const unsigned p = bench::configs[i];
        for (unsigned c = 0; c < set.at("FLO52", p).nClusters; ++c) {
            Row row{procCol(p),
                    c == 0 ? "Main" : "helper" + std::to_string(c)};
            for (const auto &name : bench::app_names) {
                const auto tc = core::taskConcurrency(
                    set.at(name, p), static_cast<sim::ClusterId>(c));
                row.push_back(
                    {tc.parConcurr, 2, "",
                     c == 0 ? std::optional<double>(
                                  bench::paper_par_concurrency_main.at(
                                      name)[i])
                            : std::nullopt});
            }
            t.rows.push_back(std::move(row));
        }
    }
    return t;
}

/** Table 4: the paper's contention estimate. */
PaperTable
table4(const RunSet &set)
{
    PaperTable t{{"Program", ""}, {}};
    for (std::size_t i = 1; i < bench::configs.size(); ++i)
        t.columns.push_back(procCol(bench::configs[i]));
    for (const auto &name : bench::app_names) {
        const auto &uni = set.at(name, 1);
        Row actual{name, "Tp_actual (s)"};
        Row ideal{name, "Tp_ideal (s)"};
        Row ov{name, "Ov_cont (%)"};
        for (std::size_t i = 1; i < bench::configs.size(); ++i) {
            const auto e = core::estimateContention(
                set.at(name, bench::configs[i]), uni);
            actual.push_back({e.tpActualSec, 2});
            ideal.push_back({e.tpIdealSec, 2});
            ov.push_back({e.ovContPct, 1, "",
                          bench::paper_contention.at(name)[i]});
        }
        t.rows.insert(t.rows.end(), {actual, ideal, ov});
    }
    return t;
}

/** Figure 3: completion-time breakdown of the main task's cluster,
 *  and the machine-wide spin and OS shares. */
PaperTable
fig3(const RunSet &set)
{
    PaperTable t{{"Program", "Config", "user %", "system %", "interrupt %",
                  "spin %", "OS total %", "machine spin %",
                  "machine OS %"},
                 {}};
    for (const auto &name : bench::app_names) {
        for (const unsigned p : bench::configs) {
            const auto &r = set.at(name, p);
            const auto b = core::ctBreakdown(r, 0);
            const auto m = core::ctBreakdownTotal(r);
            t.rows.push_back({name, procCol(p), {b.userPct, 1},
                              {b.systemPct, 2}, {b.interruptPct, 2},
                              {b.kspinPct, 2}, {b.osTotalPct(), 1},
                              {m.kspinPct, 2}, {m.osTotalPct(), 1}});
        }
    }
    return t;
}

/** Figures 5-9: per-task user-time breakdown, % of completion time. */
PaperTable
fig5to9(const RunSet &set)
{
    PaperTable t{{"Program", "Config", "Task", "user (s)", "serial %",
                  "mc loops %", "iterations %", "setup %", "pickup %",
                  "barrier %", "wait %", "total %"},
                 {}};
    for (const auto &name : bench::app_names) {
        for (const unsigned p : bench::configs) {
            const auto &r = set.at(name, p);
            for (unsigned c = 0; c < r.nClusters; ++c) {
                const auto ub =
                    core::userBreakdown(r, static_cast<sim::ClusterId>(c));
                auto pct = [&](UserAct a) {
                    return Cell(ub.pctOf(a, r.ct), 1);
                };
                t.rows.push_back(
                    {name, procCol(p),
                     c == 0 ? "Main" : "helper" + std::to_string(c),
                     {r.toSeconds(static_cast<Tick>(ub.totalUser)), 2},
                     pct(UserAct::serial), pct(UserAct::mc_loop),
                     pct(UserAct::iter_exec), pct(UserAct::loop_setup),
                     pct(UserAct::iter_pickup), pct(UserAct::barrier_wait),
                     pct(UserAct::helper_wait), {ub.overheadPct(r.ct), 1}});
            }
        }
    }
    return t;
}

/** A1: clustered vs flat barrier synchronisation on 32 CEs. */
PaperTable
a1(const RunSet &set)
{
    const auto &[cl, flat, cl_bg, flat_bg] = set.a1;
    return {{"Scheme", "barrier (cycles)", "vs clustered",
             "burst slowdown"},
            {{"4 clusters (bus + 4 updates)", {cl.barrierTicks, 1}, "-",
              "-"},
             {"32 flat tasks (32 updates)",
              {flat.barrierTicks, 1},
              {flat.barrierTicks / cl.barrierTicks, 2, "x"},
              "-"},
             {"4 clusters + traffic",
              {cl_bg.barrierTicks, 1},
              "-",
              {cl_bg.trafficSlowdown, 2, "x"}},
             {"32 flat tasks + traffic",
              {flat_bg.barrierTicks, 1},
              {flat_bg.barrierTicks / cl_bg.barrierTicks, 2, "x"},
              {flat_bg.trafficSlowdown, 2, "x"}}}};
}

/** A2: SDOALL/CDOALL vs XDOALL pick-up on one iteration space. */
PaperTable
a2(const RunSet &set)
{
    PaperTable t{{"Config", "sdoall CT (s)", "sdoall pickup %",
                  "xdoall CT (s)", "xdoall pickup %"},
                 {}};
    for (const unsigned p : bench::configs) {
        const auto &rs = set.at("sdoall", p);
        const auto &rx = set.at("xdoall", p);
        t.rows.push_back({procCol(p), {rs.seconds(), 3},
                          {pickupPct(rs), 2}, {rx.seconds(), 3},
                          {pickupPct(rx), 2}});
    }
    return t;
}

/** A3: the paper's estimate vs the ground-truth queueing, split
 *  over every resource class. */
PaperTable
a3(const RunSet &set)
{
    using obs::ResourceClass;
    PaperTable t{{"Program", "Config", "Ov_cont (est)", "gt (CEs)",
                  "gt memory", "gt fwd net", "gt ret net", "gt sync"},
                 {}};
    for (const auto &name : bench::app_names) {
        const auto &uni = set.at(name, 1);
        for (std::size_t i = 1; i < bench::configs.size(); ++i) {
            const auto &r = set.at(name, bench::configs[i]);
            auto gt = [&](ResourceClass c) {
                return core::groundTruthClassPct(r, c);
            };
            t.rows.push_back(
                {name, procCol(r.nprocs),
                 {core::estimateContention(r, uni).ovContPct, 1},
                 {core::groundTruthContentionPct(r), 1},
                 {gt(ResourceClass::memory_module), 1},
                 {gt(ResourceClass::stage1_port) +
                      gt(ResourceClass::stage2_port),
                  1},
                 {gt(ResourceClass::return_a_port) +
                      gt(ResourceClass::return_b_port),
                  1},
                 {gt(ResourceClass::concurrency_bus) +
                      gt(ResourceClass::kernel_lock),
                  1}});
        }
    }
    return t;
}

/** A5: adjacent parallel loops fused, at 32 processors. */
PaperTable
a5(const RunSet &set)
{
    PaperTable t{{"Program", "loops/step", "CT (s)", "barrier %",
                  "setup %", "main ovh %", "speedup gain"},
                 {}};
    for (const auto &name : bench::app_names) {
        const double base_s = set.at(name, 32).seconds();
        for (const auto &run : {name, name + "+fused"}) {
            const std::size_t i = set.index(run, 32);
            const auto &r = set.runs[i];
            unsigned loops = 0;
            for (const auto &ph : set.plan[i].resolveApp().phases)
                loops += std::holds_alternative<apps::LoopSpec>(ph);
            const auto ub = core::userBreakdown(r, 0);
            t.rows.push_back(
                {run, {static_cast<double>(loops), 0}, {r.seconds(), 2},
                 {ub.pctOf(UserAct::barrier_wait, r.ct), 1},
                 {ub.pctOf(UserAct::loop_setup, r.ct), 2},
                 {ub.overheadPct(r.ct), 1},
                 run == name ? Cell("-")
                             : Cell(base_s / r.seconds(), 2, "x")});
        }
    }
    return t;
}

/** A6: context switches cooperating with the runtime, at 32p. */
PaperTable
a6(const RunSet &set)
{
    auto ctx_pct = [](const core::RunResult &r) {
        return 100.0 * r.fractionOfCt(r.totalAcct.inOs(os::OsAct::ctx));
    };
    auto os_pct = [](const core::RunResult &r) {
        return core::ctBreakdownTotal(r).osTotalPct();
    };
    PaperTable t{{"Program", "ctx % (baseline)", "ctx % (coop)",
                  "OS % (baseline)", "OS % (coop)", "CT gain"},
                 {}};
    for (const auto &name : bench::app_names) {
        const auto &base = set.at(name, 32);
        const auto &coop = set.at(name + "+coop", 32);
        t.rows.push_back(
            {name, {ctx_pct(base), 2}, {ctx_pct(coop), 2},
             {os_pct(base), 1}, {os_pct(coop), 1},
             {100.0 * (1.0 - coop.seconds() / base.seconds()), 1, "%"}});
    }
    return t;
}

/** A7: chunked self-scheduling of the xdoall index, at 32p. */
PaperTable
a7(const RunSet &set)
{
    PaperTable t{{"pickup block", "CT (s)", "pickup %",
                  "speedup vs block 1"},
                 {}};
    const double base_s = set.at("block 1", 32).seconds();
    for (const unsigned b : pickup_blocks) {
        const auto &r = set.at("block " + std::to_string(b), 32);
        t.rows.push_back({std::to_string(b), {r.seconds(), 3},
                          {pickupPct(r), 2},
                          {base_s / r.seconds(), 2, "x"}});
    }
    return t;
}

/** A8: vector prefetch on FLO52. */
PaperTable
a8(const RunSet &set)
{
    PaperTable t{{"Config", "CT base (s)", "CT prefetch (s)", "gain",
                  "Ov_cont base %", "Ov_cont prefetch %"},
                 {}};
    const auto &base1 = set.at("FLO52", 1);
    const auto &pf1 = set.at("FLO52+prefetch", 1);
    for (const unsigned p : bench::configs) {
        const auto &base = set.at("FLO52", p);
        const auto &pf = set.at("FLO52+prefetch", p);
        auto ov = [&](const core::RunResult &r,
                      const core::RunResult &uni) {
            return p == 1 ? Cell("-")
                          : Cell(core::estimateContention(r, uni).ovContPct,
                                 1);
        };
        t.rows.push_back({procCol(p), {base.seconds(), 2},
                          {pf.seconds(), 2},
                          {base.seconds() / pf.seconds(), 2, "x"},
                          ov(base, base1), ov(pf, pf1)});
    }
    return t;
}

using TableFn = PaperTable (*)(const RunSet &);

/** Every table the generator writes, by block ID, in output order. */
const std::vector<std::pair<std::string, TableFn>> tables = {
    {"table1", table1}, {"table2", table2}, {"table3", table3},
    {"table4", table4}, {"fig3", fig3},     {"fig5_9", fig5to9},
    {"a1", a1},         {"a2", a2},         {"a3", a3},
    {"a5", a5},         {"a6", a6},         {"a7", a7},
    {"a8", a8},
};

// ---------------------------------------------------------------
// The document
// ---------------------------------------------------------------

struct Block
{
    std::string id;
    std::size_t open = 0;  //!< line index of the opening marker
    std::size_t close = 0; //!< line index of the closing marker
};

struct Doc
{
    std::vector<std::string> lines;
    std::vector<Block> blocks; //!< in document order
};

/**
 * Read DOC and check its markers: every block opens once, closes,
 * holds no other marker, and names a table in `tables`; every table
 * has a block.
 *
 * @throws std::runtime_error naming the file, line and ID at fault.
 */
Doc
readDoc(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    Doc doc;
    for (std::string line; std::getline(in, line);)
        doc.lines.push_back(line);
    if (in.bad())
        throw std::runtime_error("cannot read " + path);

    const std::string open_tag = "<!-- paper:";
    const std::string close_tag = "<!-- /paper:";
    const std::string end_tag = " -->";
    std::optional<Block> open;
    std::set<std::string> seen;
    for (std::size_t n = 0; n < doc.lines.size(); ++n) {
        const auto &l = doc.lines[n];
        const bool opens = l.starts_with(open_tag);
        if (!opens && !l.starts_with(close_tag))
            continue;
        const std::string where = path + ":" + std::to_string(n + 1) + ": ";
        const std::size_t from = (opens ? open_tag : close_tag).size();
        const std::string id =
            l.ends_with(end_tag) && l.size() > from + end_tag.size()
                ? l.substr(from, l.size() - from - end_tag.size())
                : "";
        if (id.empty() || id.find_first_of(" <>") != std::string::npos)
            throw std::runtime_error(where + "malformed marker '" + l + "'");
        if (opens) {
            if (open)
                throw std::runtime_error(where + "paper:" + id +
                                         " opens inside paper:" + open->id);
            bool known = false;
            for (const auto &t : tables)
                known = known || t.first == id;
            if (!known)
                throw std::runtime_error(
                    where + "paper:" + id +
                    " is not a table this generator writes");
            if (!seen.insert(id).second)
                throw std::runtime_error(where + "paper:" + id +
                                         " appears twice");
            open = Block{id, n, 0};
        } else {
            if (!open || open->id != id)
                throw std::runtime_error(where + "/paper:" + id +
                                         " closes no open block");
            open->close = n;
            doc.blocks.push_back(*open);
            open.reset();
        }
    }
    if (open)
        throw std::runtime_error(path + ":" + std::to_string(open->open + 1) +
                                 ": paper:" + open->id +
                                 " is never closed");
    for (const auto &t : tables) {
        if (!seen.count(t.first))
            throw std::runtime_error(path + ": no block for table paper:" +
                                     t.first);
    }
    return doc;
}

/** DOC with each block's body replaced by its table. */
std::string
render(const Doc &doc,
       const std::vector<std::pair<std::string, PaperTable>> &built)
{
    std::string out;
    std::size_t next = 0;
    for (const auto &b : doc.blocks) {
        for (; next <= b.open; ++next)
            out += doc.lines[next] + "\n";
        for (const auto &[id, t] : built) {
            if (id == b.id)
                out += markdown(t);
        }
        next = b.close;
    }
    for (; next < doc.lines.size(); ++next)
        out += doc.lines[next] + "\n";
    return out;
}

void
writeJson(std::ostream &os,
          const std::vector<std::pair<std::string, PaperTable>> &built)
{
    tools::JsonWriter j(os);
    j.beginObject();
    j.field("schema", "cedar-paper-v1");
    j.key("tables").beginObject();
    for (const auto &[id, t] : built) {
        j.key(id).beginObject();
        j.key("columns").beginArray();
        for (const auto &c : t.columns)
            j.value(c);
        j.endArray();
        j.key("rows").beginArray();
        for (const auto &row : t.rows) {
            j.beginArray();
            for (const auto &c : row) {
                if (c.value)
                    j.value(*c.value);
                else
                    j.value(c.label);
            }
            j.endArray();
        }
        j.endArray();
        j.endObject();
    }
    j.endObject();
    j.endObject();
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: paper DOC OUT_DIR\n";
        return 2;
    }
    try {
        const Doc doc = readDoc(argv[1]);
        const RunSet set = runAll();
        std::vector<std::pair<std::string, PaperTable>> built;
        for (const auto &[id, fn] : tables)
            built.emplace_back(id, fn(set));

        const std::filesystem::path out = argv[2];
        std::filesystem::create_directories(out);
        core::atomicWriteFile((out / "paper.json").string(),
                              [&](std::ostream &os) { writeJson(os, built); });
        core::atomicWriteFile((out / "EXPERIMENTS.md").string(),
                              render(doc, built));
        std::cout << "paper: " << set.plan.size() << " runs, "
                  << built.size() << " tables into " << out.string()
                  << "\n";
    } catch (const std::exception &e) {
        std::cerr << "paper: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
