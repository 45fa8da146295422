/**
 * @file
 * Tests for the fault-injection subsystem and the simulation
 * hardening around it: spec parsing, the fault log, the watchdog,
 * module/network fault mechanics, configuration validation, and the
 * end-to-end degradation/deadlock behaviour of faulted runs.
 */

#include <gtest/gtest.h>

#include "apps/workload.hh"
#include "core/experiment.hh"
#include "fault/fault.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "mem/address_map.hh"
#include "mem/global_memory.hh"
#include "net/network.hh"
#include "sim/error.hh"
#include "sim/fifo_server.hh"
#include "sim/watchdog.hh"

namespace
{

using namespace cedar;
using cedar::sim::Tick;
using fault::FaultKind;
using fault::parseFaultSpec;

// ---------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------

TEST(FaultSpec, ParsesModuleDegradeWithWindow)
{
    const auto f = parseFaultSpec("module:7:degrade:4x:@1e6-5e6");
    EXPECT_EQ(f.kind, FaultKind::module_degrade);
    EXPECT_EQ(f.index, 7u);
    EXPECT_EQ(f.factor, 4u);
    EXPECT_EQ(f.from, 1'000'000u);
    EXPECT_EQ(f.until, 5'000'000u);
    EXPECT_EQ(f.text, "module:7:degrade:4x:@1e6-5e6");
}

TEST(FaultSpec, ParsesModuleStuckOpenEnded)
{
    const auto f = parseFaultSpec("module:3:stuck");
    EXPECT_EQ(f.kind, FaultKind::module_stuck);
    EXPECT_EQ(f.index, 3u);
    EXPECT_EQ(f.factor, 0u);
    EXPECT_EQ(f.from, 0u);
    EXPECT_EQ(f.until, sim::max_tick);
}

TEST(FaultSpec, ParsesSwitchStall)
{
    const auto f = parseFaultSpec("switch:stage2:3:stall:2000");
    EXPECT_EQ(f.kind, FaultKind::switch_stall);
    EXPECT_EQ(f.stage, 2u);
    EXPECT_EQ(f.index, 3u);
    EXPECT_EQ(f.duration, 2000u);

    const auto g = parseFaultSpec("switch:stage1:1:stall:500:@2e5");
    EXPECT_EQ(g.stage, 1u);
    EXPECT_EQ(g.from, 200'000u);
}

TEST(FaultSpec, ParsesHiccupProbabilityWithExponent)
{
    // The '-' in "1e-4" must parse as an exponent sign, not as a
    // window range separator.
    const auto f = parseFaultSpec("ce:12:hiccup:p=1e-4");
    EXPECT_EQ(f.kind, FaultKind::ce_hiccup);
    EXPECT_EQ(f.index, 12u);
    EXPECT_DOUBLE_EQ(f.prob, 1e-4);
    EXPECT_GT(f.duration, 0u); // default cost
    EXPECT_EQ(f.until, sim::max_tick);
}

TEST(FaultSpec, ParsesHiccupCostAndWindow)
{
    const auto f = parseFaultSpec("ce:2:hiccup:p=0.01:cost=800:@1000-9000");
    EXPECT_DOUBLE_EQ(f.prob, 0.01);
    EXPECT_EQ(f.duration, 800u);
    EXPECT_EQ(f.from, 1000u);
    EXPECT_EQ(f.until, 9000u);
}

TEST(FaultSpec, ParsesInterruptStorm)
{
    const auto f = parseFaultSpec("os:intr-storm:cluster0:n=16:@2e6");
    EXPECT_EQ(f.kind, FaultKind::intr_storm);
    EXPECT_EQ(f.index, 0u);
    EXPECT_EQ(f.count, 16u);
    EXPECT_EQ(f.from, 2'000'000u);

    const auto g = parseFaultSpec("os:intr-storm:cluster2");
    EXPECT_EQ(g.index, 2u);
    EXPECT_GT(g.count, 0u); // default burst size
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "",                            // empty
        "module",                      // missing fields
        "module:7",                    // missing action
        "module:7:melt",               // unknown action
        "module:x:stuck",              // non-numeric index
        "module:7:degrade:1x",         // factor < 2
        "module:7:degrade:0x",         // degrade factor 0
        "module:7:degrade:4x:@5e6-1e6", // window ends before it starts
        "switch:stage3:1:stall:10",    // no such stage
        "switch:stage2:1:stall:0",     // zero stall
        "switch:stage2:1:stall",       // missing duration
        "ce:1:hiccup",                 // missing p=
        "ce:1:hiccup:p=0",             // probability out of range
        "ce:1:hiccup:p=1.5",           // probability out of range
        "os:intr-storm:clusterX",      // bad cluster index
        "disk:0:fail",                 // unknown target
    };
    for (const char *s : bad)
        EXPECT_THROW(parseFaultSpec(s), sim::FaultSpecError)
            << "spec not rejected: " << s;
}

TEST(FaultSpec, RejectsHostileCounts)
{
    // Each number is checked against its field before any cast: no
    // 1e300 reaches a float-to-integer conversion, and nothing wraps.
    const char *bad[] = {
        "module:1e300:stuck",            // index far past unsigned
        "module:4294967296:stuck",       // index one past unsigned
        "module:-1:stuck",               // negative index
        "module:7:stuck:@1e300",         // window start past 2^64
        "module:7:stuck:@-5",            // negative window start
        "module:7:stuck:@1.5",           // fractional tick
        "module:7:degrade:1e300x",       // factor far past unsigned
        "module:7:degrade:4.5x",         // fractional factor
        "switch:stage1:0:stall:1e300",   // stall past 2^64
        "ce:1:hiccup:p=0.1:cost=1e20",   // cost past 2^64
        "os:intr-storm:cluster0:n=1e10", // storm count past unsigned
    };
    for (const char *s : bad) {
        try {
            parseFaultSpec(s);
            ADD_FAILURE() << "spec not rejected: " << s;
        } catch (const sim::FaultSpecError &e) {
            EXPECT_NE(std::string(e.what()).find("want a whole number"),
                      std::string::npos)
                << s << ": " << e.what();
        }
    }
}

TEST(FaultSpec, ReadsCountsExactly)
{
    // Scientific notation stays accepted; integer literals keep every
    // digit, even past 2^53.
    const auto f = parseFaultSpec("module:7:stuck:@9007199254740993");
    EXPECT_EQ(f.from, 9007199254740993ULL);
    EXPECT_EQ(parseFaultSpec("module:7:degrade:4e0x").factor, 4u);
    EXPECT_EQ(parseFaultSpec("module:4294967295:stuck").index,
              4294967295u);
}

// ---------------------------------------------------------------
// Fault log
// ---------------------------------------------------------------

TEST(FaultLog, PartitionsInjectedAndDegraded)
{
    fault::FaultLog log;
    log.record({100, FaultKind::module_degrade, 7, 4});
    log.record({200, FaultKind::access_timeout, 3, 0});
    log.record({300, FaultKind::access_parked, 5, 0});
    EXPECT_EQ(log.injected(), 1u);
    EXPECT_EQ(log.degraded(), 2u);
    EXPECT_EQ(log.count(FaultKind::access_timeout), 1u);
    EXPECT_EQ(log.events().size(), 3u);
    log.clear();
    EXPECT_TRUE(log.empty());
}

// ---------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------

TEST(Watchdog, StaysQuietWhileTimeAdvances)
{
    sim::Watchdog wd(1000);
    std::uint64_t exec = 0;
    for (Tick t = 0; t < 100; ++t)
        EXPECT_FALSE(wd.observe(t, exec += 5000));
}

TEST(Watchdog, TriggersWhenTimeStalls)
{
    sim::Watchdog wd(1000);
    EXPECT_FALSE(wd.observe(42, 0));
    EXPECT_FALSE(wd.observe(42, 999));
    EXPECT_TRUE(wd.observe(42, 1000));
    // Time advancing resets the window.
    EXPECT_FALSE(wd.observe(43, 1001));
    EXPECT_FALSE(wd.observe(43, 1500));
    EXPECT_TRUE(wd.observe(43, 2600));
}

// ---------------------------------------------------------------
// FifoServer not_before floor
// ---------------------------------------------------------------

TEST(FifoServer, NotBeforeFloorsServiceStart)
{
    sim::FifoServer s;
    // Floor beyond both arrival and freeAt postpones the start; the
    // gap is charged as queueing.
    EXPECT_EQ(s.serve(10, 4, 1000), 1004u);
    EXPECT_EQ(s.stats().waitTicks(), 990u);
    // An already-passed floor is a no-op.
    EXPECT_EQ(s.serve(2000, 4, 100), 2004u);
}

// ---------------------------------------------------------------
// Module fault mechanics
// ---------------------------------------------------------------

TEST(GlobalMemory, DegradeFactorMultipliesService)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory clean(map);
    mem::GlobalMemory faulty(map);
    faulty.injectModuleFault(
        7, {0, sim::max_tick, 4});

    const Tick ws = mem::GlobalMemory::word_service;
    const auto base = clean.serveWord(7, 0, ws);
    const auto slow = faulty.serveWord(7, 0, ws);
    EXPECT_EQ(base.done, ws);
    EXPECT_EQ(slow.done, 4 * ws);
}

TEST(GlobalMemory, StuckWindowDefersServiceUntilItCloses)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    gm.injectModuleFault(7, {0, 1000, 0});

    const Tick ws = mem::GlobalMemory::word_service;
    const auto r = gm.serveWord(7, 10, ws);
    EXPECT_FALSE(r.dead);
    EXPECT_EQ(r.done, 1000 + ws);

    // Arrivals after the window see normal service.
    const auto later = gm.serveWord(7, 2000, ws);
    EXPECT_EQ(later.done, 2000 + ws);
}

TEST(GlobalMemory, DeadModuleNeverCompletesAndNeverMutates)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    net::Network net(4, 8, gm);
    gm.injectModuleFault(7, {0, sim::max_tick, 0});

    const auto w = gm.serveWord(7, 12345, mem::GlobalMemory::word_service);
    EXPECT_TRUE(w.dead);
    EXPECT_EQ(w.done, sim::max_tick);
    EXPECT_EQ(net.burst(0, 0, 0, 7, 1).complete, sim::max_tick);

    // A burst spanning dead and live modules still reports max_tick
    // (the access as a whole never finishes).
    EXPECT_EQ(net.burst(0, 0, 1, 6, 2).complete, sim::max_tick); // 6, 7

    // An RMW against the dead module does not mutate the word, so a
    // later software fallback cannot double-apply.
    gm.poke(7, 10);
    const auto r = net.rmw(0, 0, 0, 7, [](std::uint64_t v) { return v + 1; });
    EXPECT_EQ(r.complete, sim::max_tick);
    EXPECT_EQ(r.oldValue, ~0ULL);
    EXPECT_EQ(gm.peek(7), 10u);
    EXPECT_EQ(gm.forceRmw(7, [](std::uint64_t v) { return v + 1; }), 10u);
    EXPECT_EQ(gm.peek(7), 11u);
}

TEST(GlobalMemory, InjectValidatesModuleAndWindow)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gm(map);
    EXPECT_THROW(gm.injectModuleFault(32, {0, sim::max_tick, 0}),
                 sim::ConfigError);
    EXPECT_THROW(gm.injectModuleFault(0, {0, sim::max_tick, 1}),
                 sim::ConfigError);
    EXPECT_THROW(gm.injectModuleFault(0, {500, 500, 4}),
                 sim::ConfigError);
}

// ---------------------------------------------------------------
// Untrusted-input validation across layers
// ---------------------------------------------------------------

TEST(Validation, AddressMapRejectsBadGeometry)
{
    EXPECT_THROW(mem::AddressMap(0, 4), sim::ConfigError);
    EXPECT_THROW(mem::AddressMap(32, 0), sim::ConfigError);
    EXPECT_THROW(mem::AddressMap(10, 4), sim::ConfigError);
}

TEST(Validation, ConfigValidateRejectsBrokenConfigs)
{
    auto ok = hw::CedarConfig::withProcs(8);
    EXPECT_NO_THROW(ok.validate());

    auto c = ok;
    c.nClusters = 0;
    EXPECT_THROW(c.validate(), sim::ConfigError);

    c = ok;
    c.nModules = 10; // not divisible by groupSize 4
    EXPECT_THROW(c.validate(), sim::ConfigError);

    c = ok;
    c.costs.gm_timeout = 100;
    c.costs.gm_retry_backoff = 0;
    EXPECT_THROW(c.validate(), sim::ConfigError);

    c = ok;
    c.costs.gm_max_retries = 40; // backoff shift would overflow
    EXPECT_THROW(c.validate(), sim::ConfigError);
}

TEST(Validation, MachineConstructionValidates)
{
    auto c = hw::CedarConfig::withProcs(4);
    c.cesPerCluster = 0;
    EXPECT_THROW(hw::Machine m(c), sim::ConfigError);
}

TEST(Validation, NetworkRejectsOutOfRangeCluster)
{
    hw::Machine m{hw::CedarConfig::withProcs(8)};
    EXPECT_THROW(m.net().burst(0, 99, 0, 0, 1), sim::SimError);
    EXPECT_THROW(
        m.net().rmw(0, 99, 0, 0, [](std::uint64_t v) { return v; }),
        sim::SimError);
    EXPECT_THROW(m.net().stallSwitch(0, 3, 0, 100), sim::SimError);
    EXPECT_THROW(m.net().stallSwitch(0, 2, 99, 100), sim::SimError);
}

// ---------------------------------------------------------------
// End-to-end faulted runs
// ---------------------------------------------------------------

apps::AppModel
faultTestApp()
{
    apps::AppModel app;
    app.name = "fault-test";
    app.steps = 2;
    apps::SerialSpec s;
    s.compute = 2000;
    s.pages = 1;
    app.phases.push_back(s);
    apps::LoopSpec l;
    l.kind = apps::LoopKind::sdoall;
    l.outerIters = 8;
    l.innerIters = 16;
    l.computePerIter = 400;
    l.words = 64;
    l.burstLen = 32;
    l.regionWords = 1 << 14;
    app.phases.push_back(l);
    return app;
}

TEST(FaultRun, DeadModuleWithoutTimeoutDeadlocksCleanly)
{
    core::RunOptions o;
    o.faults.push_back(parseFaultSpec("module:7:stuck"));
    auto cfg = hw::CedarConfig::withProcs(8);
    cfg.costs.gm_timeout = 0; // stock machine: no resilience path
    const auto r = core::runExperiment(faultTestApp(), cfg, o);

    EXPECT_EQ(r.status, sim::RunStatus::Deadlock);
    EXPECT_GE(r.parkedCes, 1u);
    EXPECT_EQ(r.faultLog.count(FaultKind::module_stuck), 1u);
    EXPECT_GE(r.faultLog.count(FaultKind::access_parked), 1u);
    EXPECT_EQ(r.parkedCes, r.faultLog.count(FaultKind::access_parked));
}

TEST(FaultRun, DeadModuleWithRetryCompletesDegraded)
{
    core::RunOptions o;
    o.faults.push_back(parseFaultSpec("module:7:stuck"));
    auto cfg = hw::CedarConfig::withProcs(8);
    cfg.costs.gm_timeout = 30000;
    const auto r = core::runExperiment(faultTestApp(), cfg, o);

    EXPECT_EQ(r.status, sim::RunStatus::Faulted);
    EXPECT_EQ(r.parkedCes, 0u);
    EXPECT_GT(r.accessesDegraded, 0u);
    EXPECT_GT(r.faultLog.count(FaultKind::access_timeout), 0u);
    EXPECT_GT(r.faultLog.count(FaultKind::access_abandoned), 0u);
    EXPECT_GT(r.ct, 0u);

    // The degraded run still finishes, and slower than a clean one.
    const auto clean = core::runExperiment(faultTestApp(), 8);
    EXPECT_EQ(clean.status, sim::RunStatus::Completed);
    EXPECT_GT(r.ct, clean.ct);
}

TEST(FaultRun, EventLimitIsSurfacedNotSilent)
{
    core::RunOptions o;
    o.eventLimit = 500;
    const auto r = core::runExperiment(faultTestApp(), 8, o);
    EXPECT_EQ(r.status, sim::RunStatus::EventLimit);
}

TEST(FaultRun, HiccupsAndStormsAreDelivered)
{
    core::RunOptions o;
    o.faults.push_back(parseFaultSpec("ce:1:hiccup:p=1e-3"));
    o.faults.push_back(parseFaultSpec("os:intr-storm:cluster0:n=4"));
    const auto r = core::runExperiment(faultTestApp(), 8, o);

    EXPECT_EQ(r.status, sim::RunStatus::Completed);
    EXPECT_GT(r.faultLog.count(FaultKind::ce_hiccup), 0u);
    EXPECT_EQ(r.faultLog.count(FaultKind::intr_storm), 4u);
    EXPECT_EQ(r.faultsInjected, r.faultLog.injected());

    // Perturbations cost time versus the clean run.
    const auto clean = core::runExperiment(faultTestApp(), 8);
    EXPECT_GT(r.ct, clean.ct);
}

TEST(FaultRun, SameSeedSamePlanIsBitIdentical)
{
    core::RunOptions o;
    o.seed = 7;
    o.faults.push_back(parseFaultSpec("module:5:degrade:4x"));
    o.faults.push_back(parseFaultSpec("ce:1:hiccup:p=1e-4"));
    o.faults.push_back(parseFaultSpec("os:intr-storm:cluster0:n=4:@1e5"));
    o.faults.push_back(
        parseFaultSpec("switch:stage2:1:stall:2000:@5e4"));

    const auto a = core::runExperiment(faultTestApp(), 8, o);
    const auto b = core::runExperiment(faultTestApp(), 8, o);

    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.ct, b.ct);
    EXPECT_EQ(a.globalWords, b.globalWords);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.accessesDegraded, b.accessesDegraded);
    EXPECT_EQ(a.ceQueueStall, b.ceQueueStall);
    EXPECT_EQ(a.resourceWait, b.resourceWait);
    ASSERT_EQ(a.faultLog.events().size(), b.faultLog.events().size());
    for (std::size_t i = 0; i < a.faultLog.events().size(); ++i)
        EXPECT_TRUE(a.faultLog.events()[i] == b.faultLog.events()[i])
            << "fault log diverges at event " << i;
}

TEST(FaultRun, InjectorRejectsOutOfRangeTargets)
{
    core::RunOptions o;
    o.faults.push_back(parseFaultSpec("module:99:stuck"));
    EXPECT_THROW(core::runExperiment(faultTestApp(), 8, o),
                 sim::FaultSpecError);

    core::RunOptions o2;
    o2.faults.push_back(parseFaultSpec("ce:200:hiccup:p=0.1"));
    EXPECT_THROW(core::runExperiment(faultTestApp(), 8, o2),
                 sim::FaultSpecError);
}

} // namespace
