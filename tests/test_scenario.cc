/**
 * @file
 * Tests for the declarative scenario layer: the text format parser
 * and its diagnostics, golden round-tripping through
 * formatScenario, run-option validation, the CedarConfig-first
 * experiment overloads (bit-identical at the paper points), and an
 * arbitrary non-paper machine geometry running to completion with
 * conserved accounting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/perfect.hh"
#include "core/contention.hh"
#include "core/experiment.hh"
#include "core/scenario.hh"
#include "hw/config.hh"
#include "obs/metrics.hh"
#include "sim/error.hh"

namespace
{

using namespace cedar;
using sim::ConfigError;

const char *const kGolden = R"(# golden scenario
[scenario]
name = golden

[machine]
clusters = 2
ces_per_cluster = 4
modules = 16
group_size = 4
seed = 9

[costs]
pickup_local = 90
ctx_rtl_coop = true
gm_timeout = 30000

[run]
scale = 0.25

[faults]
inject = module:3:degrade:2x

[workload]
prefetch = true
pickup_block = 4
fuse = true

[workload.inline]
app golden-app
steps 2
serial compute=9000 pages=1
xdoall iters=48 compute=700 words=24
)";

/** Fast-running app for the experiment-level tests. */
apps::AppModel
tinyApp()
{
    apps::AppModel app;
    app.name = "scn-test";
    app.steps = 2;
    apps::SerialSpec s;
    s.compute = 6000;
    s.pages = 1;
    app.phases.push_back(s);
    apps::LoopSpec x;
    x.kind = apps::LoopKind::xdoall;
    x.outerIters = 40;
    x.computePerIter = 700;
    x.words = 32;
    x.burstLen = 32;
    x.regionWords = 1 << 14;
    app.phases.push_back(x);
    return app;
}

TEST(ScenarioParse, ReadsEverySection)
{
    const auto spec = core::parseScenarioString(kGolden);
    EXPECT_EQ(spec.name, "golden");
    EXPECT_EQ(spec.config.nClusters, 2u);
    EXPECT_EQ(spec.config.cesPerCluster, 4u);
    EXPECT_EQ(spec.config.nModules, 16u);
    EXPECT_EQ(spec.config.groupSize, 4u);
    EXPECT_EQ(spec.options.seed, 9u);
    EXPECT_EQ(spec.config.costs.pickup_local, 90u);
    EXPECT_TRUE(spec.config.costs.ctx_rtl_coop);
    EXPECT_DOUBLE_EQ(spec.options.scale, 0.25);
    EXPECT_EQ(spec.config.costs.gm_timeout, 30000u);
    ASSERT_EQ(spec.options.faults.size(), 1u);
    EXPECT_EQ(spec.options.faults[0].text, "module:3:degrade:2x");
    ASSERT_TRUE(spec.workload.has_value());
    EXPECT_EQ(spec.workload->name, "golden-app");
    EXPECT_EQ(spec.workload->steps, 2u);
    EXPECT_EQ(spec.prefetch, true);
    EXPECT_EQ(spec.pickupBlock, 4u);
    EXPECT_TRUE(spec.fuse);
    EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioParse, GoldenRoundTrip)
{
    const auto a = core::parseScenarioString(kGolden);
    const auto b = core::parseScenarioString(core::formatScenario(a));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.config.nClusters, b.config.nClusters);
    EXPECT_EQ(a.config.cesPerCluster, b.config.cesPerCluster);
    EXPECT_EQ(a.config.nModules, b.config.nModules);
    EXPECT_EQ(a.config.groupSize, b.config.groupSize);
    EXPECT_EQ(a.options.seed, b.options.seed);
    EXPECT_EQ(a.config.costs.pickup_local, b.config.costs.pickup_local);
    EXPECT_EQ(a.config.costs.ctx_rtl_coop, b.config.costs.ctx_rtl_coop);
    EXPECT_DOUBLE_EQ(a.options.scale, b.options.scale);
    EXPECT_EQ(a.config.costs.gm_timeout, b.config.costs.gm_timeout);
    ASSERT_EQ(b.options.faults.size(), 1u);
    EXPECT_EQ(a.options.faults[0].text, b.options.faults[0].text);
    EXPECT_EQ(a.prefetch, b.prefetch);
    EXPECT_EQ(a.pickupBlock, b.pickupBlock);
    EXPECT_EQ(a.fuse, b.fuse);
    // The inline workload survives (formatScenario re-inlines it).
    EXPECT_EQ(core::formatScenario(a), core::formatScenario(b));
    const auto app_a = a.resolveApp();
    const auto app_b = b.resolveApp();
    EXPECT_EQ(app_a.name, app_b.name);
    EXPECT_EQ(app_a.phases.size(), app_b.phases.size());
}

/** The loops of @p app, in phase order. */
std::vector<apps::LoopSpec>
loopsOf(const apps::AppModel &app)
{
    std::vector<apps::LoopSpec> out;
    for (const auto &phase : app.phases)
        if (const auto *l = std::get_if<apps::LoopSpec>(&phase))
            out.push_back(*l);
    return out;
}

TEST(ScenarioParse, AppKnobsWriteOnlyTheirOwnField)
{
    const std::string head = "[machine]\nprocs = 8\n[workload]\n";
    const std::string wl =
        "[workload.inline]\napp k\nsteps 1\n"
        "xdoall iters=8 compute=100 words=8 block=4\n"
        "sdoall outer=2 inner=4 compute=100 words=8 prefetch\n";
    auto loops = [&](const std::string &knobs) {
        return loopsOf(
            core::parseScenarioString(head + knobs + wl).resolveApp());
    };
    // An absent knob leaves each loop's own value.
    auto l = loops("");
    ASSERT_EQ(l.size(), 2u);
    EXPECT_EQ(l[0].pickupBlock, 4u);
    EXPECT_FALSE(l[0].prefetch);
    EXPECT_EQ(l[1].pickupBlock, 1u);
    EXPECT_TRUE(l[1].prefetch);
    // A given knob sets its own field on every loop, and only that.
    l = loops("prefetch = true\n");
    EXPECT_TRUE(l[0].prefetch && l[1].prefetch);
    EXPECT_EQ(l[0].pickupBlock, 4u);
    EXPECT_EQ(l[1].pickupBlock, 1u);
    l = loops("prefetch = false\n");
    EXPECT_FALSE(l[0].prefetch || l[1].prefetch);
    l = loops("pickup_block = 2\n");
    EXPECT_EQ(l[0].pickupBlock, 2u);
    EXPECT_EQ(l[1].pickupBlock, 2u);
    EXPECT_FALSE(l[0].prefetch);
    EXPECT_TRUE(l[1].prefetch);
}

TEST(ScenarioParse, ProcsShorthandExpandsPaperShape)
{
    const auto spec = core::parseScenarioString(
        "[machine]\nprocs = 16\n[workload]\napp = ADM\n");
    EXPECT_EQ(spec.config.nClusters, 2u);
    EXPECT_EQ(spec.config.cesPerCluster, 8u);
    EXPECT_TRUE(spec.config.isPaperPoint());
}

TEST(ScenarioParse, FileLoadDefaultsNameToStem)
{
    const std::string path = "scenario_stem_test.scn";
    {
        std::ofstream out(path);
        out << "[machine]\nprocs = 8\n[workload]\napp = ADM\n";
    }
    const auto spec = core::parseScenarioFile(path);
    EXPECT_EQ(spec.name, "scenario_stem_test");
    std::remove(path.c_str());
}

TEST(ScenarioParse, MissingFileFails)
{
    EXPECT_THROW(core::parseScenarioFile("no/such/file.scn"),
                 ConfigError);
}

/** EXPECT that parsing @p text throws a ConfigError mentioning
 *  @p needle (so the diagnostic stays actionable). */
void
expectDiagnostic(const std::string &text, const std::string &needle)
{
    try {
        core::parseScenarioString(text);
        FAIL() << "expected ConfigError containing '" << needle << "'";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

TEST(ScenarioDiagnostics, UnknownSection)
{
    expectDiagnostic("[nonsense]\n", "unknown section");
}

TEST(ScenarioDiagnostics, UnterminatedSectionHeader)
{
    expectDiagnostic("[machine\n", "unterminated section header");
}

TEST(ScenarioDiagnostics, KeyBeforeAnySection)
{
    expectDiagnostic("procs = 8\n", "before any [section]");
}

TEST(ScenarioDiagnostics, MissingEqualsSign)
{
    expectDiagnostic("[machine]\nprocs 8\n", "expected key = value");
}

TEST(ScenarioDiagnostics, UnknownMachineKey)
{
    expectDiagnostic("[machine]\ncores = 8\n",
                     "unknown key 'cores' in [machine]");
}

TEST(ScenarioDiagnostics, UnknownCostKey)
{
    expectDiagnostic("[costs]\nwarp_speed = 9\n",
                     "unknown key 'warp_speed' in [costs]");
}

TEST(ScenarioDiagnostics, UnknownRunKey)
{
    expectDiagnostic("[run]\nturbo = yes\n",
                     "unknown key 'turbo' in [run]");
    // No scenario consumer reads the cedarhpm records: `trace` asks
    // for them itself.
    expectDiagnostic("[run]\ncollect_trace = true\n",
                     "unknown key 'collect_trace' in [run]");
    // The policy knobs are CostModel fields, spelled in [costs] only.
    for (const std::string key : {"ctx_rtl_coop", "gm_timeout",
                                  "gm_retry_backoff", "gm_max_retries"})
        expectDiagnostic("[run]\n" + key + " = 1\n",
                         "unknown key '" + key + "' in [run]");
}

TEST(ScenarioDiagnostics, BadNumber)
{
    expectDiagnostic("[machine]\nclusters = two\n", "bad number");
}

TEST(ScenarioDiagnostics, FractionalCount)
{
    expectDiagnostic("[machine]\nclusters = 2.5\n",
                     "not a whole number");
}

TEST(ScenarioDiagnostics, BadBoolean)
{
    expectDiagnostic("[workload]\nfuse = maybe\n", "not a boolean");
}

TEST(ScenarioDiagnostics, NonPaperProcsShorthand)
{
    expectDiagnostic("[machine]\nprocs = 7\n", "no paper point");
}

TEST(ScenarioDiagnostics, ProcsAfterExplicitShape)
{
    expectDiagnostic("[machine]\nclusters = 2\nprocs = 8\n",
                     "paper-point shorthand");
}

TEST(ScenarioDiagnostics, ExplicitShapeAfterProcs)
{
    expectDiagnostic("[machine]\nprocs = 8\nclusters = 2\n",
                     "cannot override procs");
}

TEST(ScenarioDiagnostics, NoWorkload)
{
    expectDiagnostic("[machine]\nprocs = 8\n", "no workload");
}

TEST(ScenarioDiagnostics, MultipleWorkloadSources)
{
    expectDiagnostic("[workload]\napp = ADM\n"
                     "[workload.inline]\napp x\nsteps 1\n"
                     "serial compute=100\n",
                     "more than one workload source");
}

TEST(ScenarioDiagnostics, BadFaultSpec)
{
    expectDiagnostic("[faults]\ninject = module:7:melt\n"
                     "[workload]\napp = ADM\n",
                     "line 2: fault spec");
}

TEST(ScenarioDiagnostics, BadInlineWorkload)
{
    expectDiagnostic("[workload.inline]\nserial compute=nope\n",
                     "[workload.inline] starting line 2");
}

TEST(ScenarioDiagnostics, DiagnosticsCarryLineNumbers)
{
    expectDiagnostic("[machine]\nprocs = 8\nbogus = 1\n", "line 3");
}

TEST(ScenarioDiagnostics, HostileCountsRejected)
{
    // Out of the field's range, negative, or a double that no
    // integer cast may see (1e300): each a typed diagnostic.
    expectDiagnostic("[machine]\nmodules = 4294967296\n",
                     "modules = 4294967296 is not a whole number in "
                     "[0, 4294967295]");
    expectDiagnostic("[machine]\nseed = 1e300\n", "not a whole number");
    expectDiagnostic("[machine]\nseed = -1\n", "not a whole number");
    expectDiagnostic("[run]\nevent_limit = 18446744073709551616\n",
                     "not a whole number");
    expectDiagnostic("[costs]\ngm_max_retries = 1e10\n",
                     "not a whole number");
}

TEST(ScenarioDiagnostics, SeedReadExactly)
{
    // 2^53 + 1 has no double; it must not round to 2^53.
    const auto spec = core::parseScenarioString(
        "[machine]\nprocs = 8\nseed = 9007199254740993\n"
        "[workload]\napp = ADM\n");
    EXPECT_EQ(spec.options.seed, 9007199254740993ULL);
    EXPECT_EQ(core::parseScenarioString("[machine]\nprocs = 8\n"
                                        "seed = 1e3\n[workload]\n"
                                        "app = ADM\n")
                  .options.seed,
              1000u);
}

TEST(ScenarioDiagnostics, UnknownAppSurfacesAtResolve)
{
    const auto spec = core::parseScenarioString(
        "[machine]\nprocs = 8\n[workload]\napp = BOGUS\n");
    EXPECT_THROW(spec.resolveApp(), ConfigError);
}

TEST(RunOptionValidation, RejectsBadKnobs)
{
    auto bad = [](auto &&tweak) {
        core::RunOptions o;
        tweak(o);
        EXPECT_THROW(core::validateRunOptions(o), ConfigError);
    };
    bad([](core::RunOptions &o) { o.scale = 0.0; });
    bad([](core::RunOptions &o) { o.scale = -0.5; });
    bad([](core::RunOptions &o) { o.scale = 1.5; });
    bad([](core::RunOptions &o) { o.scale = 0.0 / 0.0; });
    bad([](core::RunOptions &o) { o.eventLimit = 0; });
    bad([](core::RunOptions &o) { o.watchdogEvents = 0; });
    EXPECT_NO_THROW(core::validateRunOptions(core::RunOptions{}));
}

TEST(RunOptionValidation, RunExperimentRejectsBadOptions)
{
    core::RunOptions o;
    o.scale = 0.0;
    EXPECT_THROW(core::runExperiment(tinyApp(), 8, o), ConfigError);
}

TEST(ConfigOverloads, PaperPointsBitIdentical)
{
    // The CedarConfig-first path must reproduce the historical
    // nprocs path exactly at all five paper points.
    core::RunOptions o;
    o.scale = 0.05;
    const auto by_procs = core::runSweep(tinyApp(), o);
    const auto by_config =
        core::runSweep(tinyApp(), o, core::paperConfigs());
    ASSERT_EQ(by_procs.size(), by_config.size());
    for (std::size_t i = 0; i < by_procs.size(); ++i) {
        EXPECT_EQ(by_procs[i].ct, by_config[i].ct) << "point " << i;
        EXPECT_EQ(by_procs[i].eventsExecuted,
                  by_config[i].eventsExecuted);
        EXPECT_EQ(by_procs[i].globalWords, by_config[i].globalWords);
        EXPECT_EQ(by_procs[i].nprocs, by_config[i].nprocs);
    }
}

TEST(ConfigOverloads, LabelsForPaperAndArbitraryShapes)
{
    EXPECT_EQ(hw::CedarConfig::withProcs(32).label(), "32 proc");
    hw::CedarConfig cfg;
    cfg.nClusters = 2;
    cfg.cesPerCluster = 4;
    cfg.nModules = 16;
    cfg.groupSize = 4;
    EXPECT_FALSE(cfg.isPaperPoint());
    EXPECT_EQ(cfg.label(), "2x4 CEs");
    // A paper shape over a non-paper memory system is not a paper
    // point either.
    auto odd = hw::CedarConfig::withProcs(8);
    odd.nModules = 16;
    EXPECT_FALSE(odd.isPaperPoint());
    EXPECT_EQ(odd.label(), "1x8 CEs");
}

TEST(ArbitraryGeometry, RunsToCompletionWithInvariants)
{
    // The ISSUE acceptance geometry: 2 clusters x 4 CEs in front of
    // 16 modules in groups of 4 (4 stage-2 switches).
    const auto spec = core::parseScenarioString(
        "[machine]\n"
        "clusters = 2\nces_per_cluster = 4\n"
        "modules = 16\ngroup_size = 4\n"
        "[run]\nscale = 0.5\n"
        "[workload]\napp = ADM\n");
    const auto r = core::runScenario(spec);

    EXPECT_EQ(r.status, sim::RunStatus::Completed);
    EXPECT_EQ(r.nprocs, 8u);
    EXPECT_EQ(r.nClusters, 2u);
    EXPECT_EQ(r.cesPerCluster, 4u);
    ASSERT_EQ(r.ceAcct.size(), 8u);
    ASSERT_EQ(r.clusterAcct.size(), 2u);
    EXPECT_GT(r.ct, 0u);
    EXPECT_GT(r.globalWords, 0u);
    EXPECT_GT(r.machineConcurrency, 1.0);
    EXPECT_LE(r.machineConcurrency, 8.0);

    // Accounting conservation: every CE's categories sum to ~CT.
    for (const auto &a : r.ceAcct) {
        sim::Tick total = 0;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(os::TimeCat::NUM); ++i)
            total += a.cat[i];
        EXPECT_GE(total, r.ct);
        EXPECT_LE(total, r.ct + 80000u);
    }

    // The metrics report reflects the configured geometry: 16
    // modules, and a well-formed wait-share distribution.
    const auto &mem =
        r.metrics.perClass(obs::ResourceClass::memory_module);
    EXPECT_EQ(mem.resources, 16u);
    double share = 0;
    unsigned modules_seen = 0;
    for (const auto &res : r.metrics.resources) {
        EXPECT_GE(res.waitShare, 0.0);
        EXPECT_LE(res.waitShare, 1.0);
        share += res.waitShare;
        if (res.cls == obs::ResourceClass::memory_module)
            ++modules_seen;
    }
    EXPECT_EQ(modules_seen, 16u);
    if (r.metrics.totalWaitTicks > 0) {
        EXPECT_NEAR(share, 1.0, 1e-6);
    }
    EXPECT_GE(r.metrics.moduleGini, 0.0);
    EXPECT_LE(r.metrics.moduleGini, 1.0);
    EXPECT_GE(core::groundTruthContentionPct(r), 0.0);
}

TEST(ArbitraryGeometry, DegenerateGeometryRejected)
{
    const auto spec = core::parseScenarioString(
        "[machine]\nclusters = 2\nces_per_cluster = 4\n"
        "modules = 10\ngroup_size = 4\n"
        "[workload]\napp = ADM\n");
    EXPECT_THROW(core::runScenario(spec), ConfigError);
}

TEST(ScenarioRun, MatchesDirectExperiment)
{
    // runScenario is a pure composition of resolveApp + the
    // CedarConfig overload: same bits as calling them directly.
    const auto spec = core::parseScenarioString(
        "[machine]\nprocs = 8\nseed = 5\n"
        "[run]\nscale = 0.1\n"
        "[workload]\napp = ADM\n");
    const auto via_scenario = core::runScenario(spec);
    const auto direct = core::runExperiment(
        apps::perfectAppByName("ADM"), spec.config, spec.options);
    EXPECT_EQ(via_scenario.ct, direct.ct);
    EXPECT_EQ(via_scenario.eventsExecuted, direct.eventsExecuted);
    EXPECT_EQ(via_scenario.globalWords, direct.globalWords);
}

TEST(ScenarioRun, CostsCoopKnobReachesTheRun)
{
    // [costs] ctx_rtl_coop is the knob's one home: the run sees it,
    // exactly as it sees the same CostModel field set directly.
    const std::string flo52 = "[machine]\nprocs = 8\n[run]\nscale = 0.05\n"
                              "[workload]\napp = FLO52\n";
    const auto plain = core::runScenario(core::parseScenarioString(flo52));
    const auto coop = core::runScenario(core::parseScenarioString(
        flo52 + "[costs]\nctx_rtl_coop = true\n"));
    EXPECT_NE(coop.totalAcct.inOs(os::OsAct::ctx),
              plain.totalAcct.inOs(os::OsAct::ctx));

    auto cfg = hw::CedarConfig::withProcs(8);
    cfg.costs.ctx_rtl_coop = true;
    core::RunOptions o;
    o.scale = 0.05;
    const auto direct =
        core::runExperiment(apps::perfectAppByName("FLO52"), cfg, o);
    EXPECT_EQ(coop.ct, direct.ct);
    EXPECT_EQ(coop.eventsExecuted, direct.eventsExecuted);
    EXPECT_EQ(coop.totalAcct.inOs(os::OsAct::ctx),
              direct.totalAcct.inOs(os::OsAct::ctx));
}

TEST(ScenarioRun, CostsTimeoutKnobReachesTheRun)
{
    // With [costs] gm_timeout a dead module costs retries and a
    // fallback, not a deadlock.
    const auto r = core::runScenario(core::parseScenarioString(
        "[machine]\nprocs = 8\n[costs]\ngm_timeout = 30000\n"
        "[run]\nscale = 0.05\n[faults]\ninject = module:7:stuck:@1e5\n"
        "[workload]\napp = ADM\n"));
    EXPECT_EQ(r.status, sim::RunStatus::Faulted);
    EXPECT_EQ(r.parkedCes, 0u);
    EXPECT_GT(r.accessesDegraded, 0u);
}

} // namespace
