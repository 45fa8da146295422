/**
 * @file
 * Tests for the analytic fast-forward path (net/fastpath.hh) and the
 * saturating-arithmetic hardening that rode along with it.
 *
 * The fast path's correctness bar is absolute: with it enabled, not a
 * single published number may change — completion time, event counts,
 * per-resource statistics, the metrics JSON and the telemetry
 * timeline must be bit-identical to the slow path. These tests pin
 * that down at every paper point, on a non-paper geometry, on a
 * fault-injected run where the fast path must bail out entirely, and
 * on seeded random geometries and traffic at the network level.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/perfect.hh"
#include "apps/workload.hh"
#include "core/experiment.hh"
#include "fault/fault.hh"
#include "hw/config.hh"
#include "mem/address_map.hh"
#include "mem/global_memory.hh"
#include "net/fastpath.hh"
#include "net/network.hh"
#include "obs/telemetry.hh"
#include "obs/tracer.hh"
#include "sim/error.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace
{

using namespace cedar;
using cedar::sim::Tick;
using fault::parseFaultSpec;

// ---------------------------------------------------------------
// Saturating Tick arithmetic (sim/types.hh)
// ---------------------------------------------------------------

TEST(SatArith, AddSaturatesAtMaxTick)
{
    EXPECT_EQ(sim::satAdd(0, 0), 0u);
    EXPECT_EQ(sim::satAdd(10, 32), 42u);
    EXPECT_EQ(sim::satAdd(sim::max_tick, 0), sim::max_tick);
    EXPECT_EQ(sim::satAdd(sim::max_tick, 1), sim::max_tick);
    EXPECT_EQ(sim::satAdd(sim::max_tick - 5, 5), sim::max_tick);
    EXPECT_EQ(sim::satAdd(sim::max_tick - 5, 6), sim::max_tick);
    EXPECT_EQ(sim::satAdd(Tick(1) << 63, Tick(1) << 63), sim::max_tick);
}

TEST(SatArith, ShlSaturatesInsteadOfWrapping)
{
    EXPECT_EQ(sim::satShl(1, 0), 1u);
    EXPECT_EQ(sim::satShl(1, 10), 1024u);
    EXPECT_EQ(sim::satShl(0, 63), 0u);
    // The exact boundary: 1 << 63 fits, anything past it saturates.
    EXPECT_EQ(sim::satShl(1, 63), Tick(1) << 63);
    EXPECT_EQ(sim::satShl(2, 63), sim::max_tick);
    EXPECT_EQ(sim::satShl(3, 62), Tick(3) << 62);
    EXPECT_EQ(sim::satShl(4, 62), sim::max_tick);
    // The historical bug: a backoff of 2^33 shifted by 31+ attempts
    // wrapped to garbage. Now it pins to max_tick.
    EXPECT_EQ(sim::satShl(Tick(1) << 33, 31), sim::max_tick);
    EXPECT_EQ(sim::satShl(Tick(1) << 60, 30), sim::max_tick);
    // Shift counts >= the word width are well defined here (plain
    // << would be UB).
    EXPECT_EQ(sim::satShl(1, 64), sim::max_tick);
    EXPECT_EQ(sim::satShl(1, 200), sim::max_tick);
    EXPECT_EQ(sim::satShl(0, 64), 0u); // zero shifted is still zero
}

// ---------------------------------------------------------------
// Shared run-comparison helper
// ---------------------------------------------------------------

std::string
metricsJson(const core::RunResult &r)
{
    std::ostringstream os;
    r.metrics.writeJson(os);
    return os.str();
}

/**
 * Every published number of the two runs must agree exactly. The
 * fast-path engagement counters are deliberately excluded: they are
 * the only fields allowed to differ between a fast and a slow run.
 */
void
expectBitIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.ct, b.ct);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.peakPending, b.peakPending);
    EXPECT_EQ(a.ceQueueStall, b.ceQueueStall);
    EXPECT_EQ(a.resourceWait, b.resourceWait);
    EXPECT_EQ(a.globalWords, b.globalWords);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.accessesDegraded, b.accessesDegraded);
    EXPECT_EQ(a.parkedCes, b.parkedCes);
    EXPECT_EQ(a.seqFaults, b.seqFaults);
    EXPECT_EQ(a.concFaults, b.concFaults);
    EXPECT_EQ(a.machineConcurrency, b.machineConcurrency);
    ASSERT_EQ(a.clusterConcurrency.size(), b.clusterConcurrency.size());
    for (std::size_t i = 0; i < a.clusterConcurrency.size(); ++i)
        EXPECT_EQ(a.clusterConcurrency[i], b.clusterConcurrency[i]);
    ASSERT_EQ(a.ceAcct.size(), b.ceAcct.size());
    EXPECT_EQ(metricsJson(a), metricsJson(b));
}

void
expectSameTimeline(const core::RunResult &a, const core::RunResult &b)
{
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        const auto &x = a.timeline[i];
        const auto &y = b.timeline[i];
        const bool same = x.when == y.when && x.dur == y.dur &&
                          x.id == y.id && x.kind == y.kind &&
                          x.cat == y.cat && x.act == y.act &&
                          x.flags == y.flags && x.ce == y.ce &&
                          x.res == y.res;
        ASSERT_TRUE(same) << "timeline diverges at event " << i;
    }
}

core::RunResult
runPoint(const apps::AppModel &app, unsigned procs, bool fast,
         double scale)
{
    core::RunOptions o;
    o.scale = scale;
    o.fastPath = fast;
    return core::runExperiment(app, procs, o);
}

// ---------------------------------------------------------------
// Bit identity at the paper points
// ---------------------------------------------------------------

TEST(FastPathIdentity, AllPaperAppsEightProcs)
{
    for (const char *name : {"FLO52", "ARC2D", "MDG", "OCEAN", "ADM"}) {
        SCOPED_TRACE(name);
        const auto app = apps::perfectAppByName(name);
        const auto fast = runPoint(app, 8, true, 0.04);
        const auto slow = runPoint(app, 8, false, 0.04);
        EXPECT_EQ(slow.fastPathHits, 0u);
        EXPECT_EQ(slow.fastPathPatterns, 0u);
        expectBitIdentical(fast, slow);
    }
}

TEST(FastPathIdentity, Flo52AcrossMachineSizes)
{
    const auto app = apps::perfectAppByName("FLO52");
    for (const unsigned p : {1u, 4u, 16u, 32u}) {
        SCOPED_TRACE(p);
        expectBitIdentical(runPoint(app, p, true, 0.03),
                           runPoint(app, p, false, 0.03));
    }
}

TEST(FastPathIdentity, Arc2dConvoyGeometries)
{
    // ARC2D at 16/32p is where convoy phases produce the widest
    // spread of offset vectors — the workload the don't-care
    // canonicalization (DESIGN.md §10) exists for. Identity must
    // hold with the canonicalized keying engaged.
    const auto app = apps::perfectAppByName("ARC2D");
    for (const unsigned p : {16u, 32u}) {
        SCOPED_TRACE(p);
        const auto fast = runPoint(app, p, true, 0.02);
        const auto slow = runPoint(app, p, false, 0.02);
        EXPECT_GT(fast.fastPathHits, 0u);
        expectBitIdentical(fast, slow);
    }
}

TEST(FastPathIdentity, NonPaperTwoByFourGeometry)
{
    // 2 clusters x 4 CEs is not a paper point; the pattern machinery
    // must be geometry-agnostic, not tuned to the five published
    // configurations.
    hw::CedarConfig cfg;
    cfg.nClusters = 2;
    cfg.cesPerCluster = 4;
    ASSERT_NO_THROW(cfg.validate());

    const auto app = apps::perfectAppByName("FLO52");
    core::RunOptions o;
    o.scale = 0.04;
    o.fastPath = true;
    const auto fast = core::runExperiment(app, cfg, o);
    o.fastPath = false;
    const auto slow = core::runExperiment(app, cfg, o);
    EXPECT_GT(fast.fastPathHits, 0u);
    expectBitIdentical(fast, slow);
}

/** Every GM-request flow of @p timeline has its issue, at least the
 *  four milestones of a one-word access, and its completion, and at
 *  most the 10 records of FlowPoints' bound. */
void
expectBoundedFlows(const std::vector<obs::TelemetryEvent> &timeline)
{
    std::vector<unsigned> records;
    for (const auto &e : timeline) {
        if (e.kind != obs::EventKind::flow)
            continue;
        if (e.id >= records.size())
            records.resize(e.id + 1, 0);
        ++records[e.id];
    }
    ASSERT_GT(records.size(), 1u);
    const auto [lo, hi] = std::minmax_element(records.begin() + 1,
                                              records.end());
    EXPECT_GE(*lo, 6u);
    EXPECT_LE(*hi, 10u);
}

TEST(FastPathIdentity, TimelineMatchesEventForEvent)
{
    // With the timeline on, every access carries a flow id and the
    // fast path still engages: a hit derives its flow's milestones
    // from its key and its pattern. The recorded stream has to match
    // the slow path's event for event, at every app on one cluster
    // and on four, and on the 2x4 geometry.
    core::RunOptions o;
    o.scale = 0.02;
    o.collectTimeline = true;
    const auto check = [&](const apps::AppModel &app,
                           const hw::CedarConfig &cfg) {
        o.fastPath = true;
        const auto fast = core::runExperiment(app, cfg, o);
        o.fastPath = false;
        const auto slow = core::runExperiment(app, cfg, o);
        ASSERT_GT(fast.timeline.size(), 0u);
        EXPECT_GT(fast.fastPathHits, 0u);
        expectBitIdentical(fast, slow);
        expectSameTimeline(fast, slow);
        expectBoundedFlows(fast.timeline);
    };
    for (const char *name : {"FLO52", "ARC2D", "MDG", "OCEAN", "ADM"}) {
        const auto app = apps::perfectAppByName(name);
        for (const unsigned p : {1u, 8u, 32u}) {
            SCOPED_TRACE(std::string(name) + " " + std::to_string(p) + "p");
            check(app, hw::CedarConfig::withProcs(p));
        }
    }
    hw::CedarConfig wide;
    wide.nClusters = 2;
    wide.cesPerCluster = 4;
    SCOPED_TRACE("FLO52 2x4");
    check(apps::perfectAppByName("FLO52"), wide);
}

TEST(FastPathKeyHash, ShapeIdsThatDifferAsFirstOffsetsDoNotCollide)
{
    // Every (id, first offset) pair below shares id ^ offset with 63
    // others, and the later offsets are equal. A basis seeded with the
    // bare id hashed each such group to one value.
    const auto hash = [](std::uint32_t id,
                         std::initializer_list<std::uint64_t> key) {
        std::uint64_t h = net::keyHashBasis(id);
        for (const std::uint64_t off : key)
            h = net::keyHashFold(h, off);
        return h;
    };
    std::set<std::uint64_t> seen;
    for (std::uint32_t id = 0; id < 64; ++id)
        for (std::uint64_t off = 0; off < 64; ++off)
            seen.insert(hash(id, {off, 7, 0, 12}));
    EXPECT_EQ(seen.size(), 64u * 64u);
    EXPECT_NE(hash(1, {2, 5}), hash(2, {1, 5}));
}

TEST(FastPathIdentity, EngagesAndLearnsPatterns)
{
    const auto app = apps::perfectAppByName("FLO52");
    const auto r = runPoint(app, 8, true, 0.04);
    EXPECT_GT(r.fastPathHits, 0u);
    EXPECT_GT(r.fastPathPatterns, 0u);
    // Determinism: the cache is per-machine, so a repeat run learns
    // and replays the exact same patterns.
    const auto r2 = runPoint(app, 8, true, 0.04);
    EXPECT_EQ(r.fastPathHits, r2.fastPathHits);
    EXPECT_EQ(r.fastPathPatterns, r2.fastPathPatterns);
    expectBitIdentical(r, r2);
}

// ---------------------------------------------------------------
// Fault-injected run: the fast path must bail, results must match
// ---------------------------------------------------------------

apps::AppModel
gmFaultApp()
{
    apps::AppModel app;
    app.name = "fastpath-fault";
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

TEST(FastPathIdentity, FaultedRunBailsAndStaysIdentical)
{
    core::RunOptions o;
    o.faults.push_back(parseFaultSpec("module:7:stuck"));
    auto cfg = hw::CedarConfig::withProcs(8);
    cfg.costs.gm_timeout = 30000;
    o.fastPath = true;
    const auto fast = core::runExperiment(gmFaultApp(), cfg, o);
    o.fastPath = false;
    const auto slow = core::runExperiment(gmFaultApp(), cfg, o);

    // Faulted memory invalidates the pattern preconditions wholesale;
    // the engagement gate must refuse every access.
    EXPECT_EQ(fast.fastPathHits, 0u);
    EXPECT_EQ(fast.fastPathPatterns, 0u);
    EXPECT_EQ(fast.status, sim::RunStatus::Faulted);
    expectBitIdentical(fast, slow);
    ASSERT_EQ(fast.faultLog.events().size(), slow.faultLog.events().size());
    for (std::size_t i = 0; i < fast.faultLog.events().size(); ++i)
        EXPECT_TRUE(fast.faultLog.events()[i] == slow.faultLog.events()[i])
            << "fault log diverges at event " << i;
}

TEST(FastPathIdentity, SwitchStallKeepsThePathOnAndIdentical)
{
    // A switch stall is the one fault that leaves the fast path on:
    // it reserves the live ports once, and later accesses see the
    // backlog as ordinary offsets. Only a memory fault plan turns the
    // path off.
    for (const char *name : {"FLO52", "ARC2D"}) {
        const auto app = apps::perfectAppByName(name);
        for (const unsigned p : {8u, 32u}) {
            SCOPED_TRACE(std::string(name) + " " + std::to_string(p) + "p");
            core::RunOptions o;
            o.scale = 0.03;
            o.faults.push_back(
                parseFaultSpec("switch:stage1:0:stall:2000:@5e4"));
            o.faults.push_back(
                parseFaultSpec("switch:stage2:3:stall:5000:@2e5"));
            o.fastPath = true;
            const auto fast = core::runExperiment(app, p, o);
            o.fastPath = false;
            const auto slow = core::runExperiment(app, p, o);

            EXPECT_EQ(fast.faultLog.count(fault::FaultKind::switch_stall),
                      2u);
            EXPECT_GT(fast.fastPathHits, 0u);
            expectBitIdentical(fast, slow);
        }
    }
}

// ---------------------------------------------------------------
// Retry-backoff overflow regression (src/hw/ce.cc)
// ---------------------------------------------------------------

TEST(BackoffOverflow, HugeBackoffSaturatesInsteadOfWrapping)
{
    // A backoff of 2^60 doubled per attempt overflows the 64-bit tick
    // on the 4th retry. Before the satShl/satAdd hardening the shift
    // wrapped to a tiny (or zero) wait, so the CE spun through its
    // retries in simulated microseconds and the run finished Faulted
    // as if the backoff were small. With saturation the retry waits
    // pin near the tick ceiling: the CE is still waiting when the
    // event budget runs out, and the run surfaces as EventLimit.
    core::RunOptions o;
    o.faults.push_back(parseFaultSpec("module:7:stuck"));
    o.eventLimit = 200'000;
    auto cfg = hw::CedarConfig::withProcs(8);
    cfg.costs.gm_timeout = 100;
    cfg.costs.gm_retry_backoff = Tick(1) << 60;
    cfg.costs.gm_max_retries = 6;

    core::RunResult r;
    ASSERT_NO_THROW(r = core::runExperiment(gmFaultApp(), cfg, o));
    EXPECT_EQ(r.status, sim::RunStatus::EventLimit);
    EXPECT_GE(r.faultLog.count(fault::FaultKind::access_timeout), 1u);
    // No retry sequence may complete: a wrapped wait would race
    // through all 6 attempts and take the degraded fallback.
    EXPECT_EQ(r.faultLog.count(fault::FaultKind::access_abandoned), 0u);
    EXPECT_EQ(r.accessesDegraded, 0u);

    // The clamped schedule is deterministic.
    core::RunResult r2;
    ASSERT_NO_THROW(r2 = core::runExperiment(gmFaultApp(), cfg, o));
    EXPECT_EQ(r.ct, r2.ct);
    EXPECT_EQ(r.eventsExecuted, r2.eventsExecuted);
    EXPECT_EQ(r.faultLog.events().size(), r2.faultLog.events().size());
}

TEST(BackoffOverflow, MaxRetriesBeyondShiftWidthRejected)
{
    auto cfg = hw::CedarConfig::withProcs(8);
    cfg.costs.gm_timeout = 100;
    cfg.costs.gm_max_retries = 40; // backoff doubling would exceed 64 bits
    EXPECT_THROW(core::runExperiment(gmFaultApp(), cfg),
                 sim::ConfigError);
}

// ---------------------------------------------------------------
// Network-level contended replay
// ---------------------------------------------------------------

/** Two identical machines' networks, one with the fast path off. */
struct TwinNets
{
    mem::AddressMap map{32, 4};
    mem::GlobalMemory gmemA{map};
    mem::GlobalMemory gmemB{map};
    net::Network fast{4, 8, gmemA};
    net::Network slow{4, 8, gmemB};

    TwinNets() { slow.setFastPath(false); }
};

TEST(FastPathNetwork, ContendedConvoyRepliesBitIdentical)
{
    // Drive the same convoy-shaped script through both networks:
    // several CEs issue the same burst shape back to back, so later
    // issues see non-zero queue offsets — the contended patterns, not
    // just the idle one, must replay exactly.
    TwinNets t;
    for (int round = 0; round < 64; ++round) {
        const Tick base = static_cast<Tick>(round) * 40;
        for (int ce = 0; ce < 4; ++ce) {
            const auto a =
                t.fast.burst(base, ce % 2, ce, 16 * ce, 32);
            const auto b =
                t.slow.burst(base, ce % 2, ce, 16 * ce, 32);
            ASSERT_EQ(a.complete, b.complete)
                << "round " << round << " ce " << ce;
            ASSERT_EQ(a.unloaded, b.unloaded);
        }
    }
    // Mix in contended RMWs against one hot word. They take the
    // reference chain: no hit, no miss, no pattern.
    const net::FastPathStats before = t.fast.fastStats();
    const std::uint64_t patterns_before = t.fast.fastPatterns();
    for (int i = 0; i < 64; ++i) {
        const Tick when = 2000 + static_cast<Tick>(i) * 3;
        const auto inc = [](std::uint64_t v) { return v + 1; };
        const auto a = t.fast.rmw(when, 0, i % 8, 5, inc);
        const auto b = t.slow.rmw(when, 0, i % 8, 5, inc);
        ASSERT_EQ(a.complete, b.complete) << "rmw " << i;
        ASSERT_EQ(a.oldValue, b.oldValue);
    }
    EXPECT_EQ(t.fast.fastStats().hits(), before.hits());
    EXPECT_EQ(t.fast.fastStats().misses(), before.misses());
    EXPECT_EQ(t.fast.fastPatterns(), patterns_before);
    EXPECT_EQ(t.gmemA.peek(5), t.gmemB.peek(5));
    EXPECT_EQ(t.fast.totalWaitTicks(), t.slow.totalWaitTicks());
    // The convoy repeats the same few queue states, so the replay
    // must actually have engaged (and on contended vectors, not
    // merely the idle machine).
    EXPECT_GT(t.fast.fastStats().hits(), 0u);
    EXPECT_GT(t.fast.fastPatterns(), 0u);
    EXPECT_EQ(t.slow.fastStats().hits(), 0u);
}

TEST(FastPathNetwork, DontCareOffsetsCollapseOntoFewPatterns)
{
    // Issue burst pairs at a sweep of spacings d. For d past the
    // shared ports' residual service but before their horizons fully
    // drain, the second burst sees offsets that are non-zero yet
    // provably harmless (each at or below the shape's idle first
    // arrival at that server). Canonicalization zeroes them before
    // the cache lookup, so that whole band of spacings lands on the
    // same canonical pattern instead of learning one per spacing —
    // while staying bit-identical to the slow path.
    TwinNets t;
    unsigned rounds = 0;
    for (Tick d = 30; d < 70; ++d, ++rounds) {
        // Each spacing twice: patterns build on the second sighting.
        for (int rep = 0; rep < 2; ++rep) {
            const Tick base = (d * 2 + static_cast<Tick>(rep)) * 100000;
            const auto a0 = t.fast.burst(base, 0, 0, 0, 32);
            const auto b0 = t.slow.burst(base, 0, 0, 0, 32);
            ASSERT_EQ(a0.complete, b0.complete) << "lead, spacing " << d;
            const auto a1 = t.fast.burst(base + d, 0, 1, 0, 32);
            const auto b1 = t.slow.burst(base + d, 0, 1, 0, 32);
            ASSERT_EQ(a1.complete, b1.complete) << "spacing " << d;
            ASSERT_EQ(a1.unloaded, b1.unloaded);
        }
    }
    EXPECT_EQ(t.fast.totalWaitTicks(), t.slow.totalWaitTicks());
    EXPECT_GT(t.fast.fastStats().hits(), 0u);
    // Without canonicalization every spacing whose residuals had not
    // fully drained would be a distinct learned pattern (~one per
    // spacing). With it, the harmless band collapses onto the idle
    // vector: far fewer patterns than spacings swept.
    EXPECT_LT(t.fast.fastPatterns(), rounds / 2);
}

TEST(FastPathNetwork, EmptyBurstThrowsOnBothPaths)
{
    // Twice each: a pattern is learned on the second sighting, and
    // no path may learn one for an empty burst.
    TwinNets t;
    for (int rep = 0; rep < 2; ++rep) {
        EXPECT_THROW(t.fast.burst(0, 0, 0, 0, 0), sim::SimError);
        EXPECT_THROW(t.slow.burst(0, 0, 0, 0, 0), sim::SimError);
    }
    EXPECT_EQ(t.fast.fastPatterns(), 0u);
    EXPECT_EQ(t.slow.fastPatterns(), 0u);
}

TEST(FastPathNetwork, DisabledPathReportsOnlyMisses)
{
    TwinNets t;
    t.fast.setFastPath(false);
    for (int i = 0; i < 8; ++i)
        t.fast.burst(0, 0, 0, 0, 16);
    EXPECT_EQ(t.fast.fastStats().hits(), 0u);
    EXPECT_EQ(t.fast.fastStats().misses(), 8u);
}

// ---------------------------------------------------------------
// Differential test on generated traffic
// ---------------------------------------------------------------

/** One network over its own memory and Tracer, wired the way
 *  hw::Machine wires them. */
struct WiredNet
{
    mem::AddressMap map;
    obs::Tracer tracer;
    mem::GlobalMemory gmem{map};
    net::Network net;

    WiredNet(const mem::AddressMap &m, unsigned clusters, unsigned ces,
             bool fast)
        : map(m), net(clusters, ces, gmem)
    {
        net.setTracer(&tracer);
        net.setFastPath(fast);
    }

    /** (requests, waitTicks, busyTicks, freeAt) of every port and
     *  module, in a fixed order. */
    std::vector<std::array<std::uint64_t, 4>>
    servers() const
    {
        std::vector<std::array<std::uint64_t, 4>> v;
        const auto add = [&v](const sim::FifoServer &s) {
            v.push_back({s.stats().requests(), s.stats().waitTicks(),
                         s.stats().busyTicks(), s.freeAt()});
        };
        net.visitPorts(
            [&add](const net::PortSite &, const sim::FifoServer &s) {
                add(s);
            });
        for (unsigned m = 0; m < map.numModules(); ++m)
            add(gmem.moduleServer(m));
        return v;
    }
};

TEST(FastPathNetwork, EveryCeResolvesItsOwnPorts)
{
    // CE 0 of cluster 1 and CE 65,536 of cluster 0 are distinct CEs
    // whose (cluster, port) pair packs into the same 32-bit key if the
    // port takes 16 bits. The second CE must replay the shared
    // pattern onto its own stage-1 and return-B ports, not the
    // first's.
    const mem::AddressMap map(32, 4);
    WiredNet fast(map, 2, 65537, true);
    WiredNet slow(map, 2, 65537, false);
    // Three idle 8-word bursts from CE 0 of cluster 1: the pattern is
    // recorded on the second and replayed on the third.
    for (int rep = 0; rep < 3; ++rep) {
        const Tick when = static_cast<Tick>(rep) * 1000;
        const auto a = fast.net.burst(when, 1, 0, 0, 8);
        const auto b = slow.net.burst(when, 1, 0, 0, 8);
        ASSERT_EQ(a.complete, b.complete) << "rep " << rep;
    }
    const auto a = fast.net.burst(3000, 0, 65536, 0, 8);
    const auto b = slow.net.burst(3000, 0, 65536, 0, 8);
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(fast.net.fastStats().hits(), 2u);
    EXPECT_EQ(fast.servers(), slow.servers());
    // Port 65,537 of cluster 0 is no CE at all, not cluster 1's CE 0.
    EXPECT_THROW(fast.net.burst(4000, 0, 65537, 0, 8), sim::SimError);
    EXPECT_THROW(slow.net.burst(4000, 0, 65537, 0, 8), sim::SimError);
}

/** Every per-class wait histogram of @p a matches @p b's: buckets,
 *  sample count and maximum. */
void
expectSameWaits(const WiredNet &a, const WiredNet &b, const std::string &what)
{
    for (std::size_t k = 0; k < obs::num_resource_classes; ++k) {
        const auto cls = static_cast<obs::ResourceClass>(k);
        const sim::Histogram &f = a.tracer.waitHists().of(cls);
        const sim::Histogram &s = b.tracer.waitHists().of(cls);
        EXPECT_EQ(f.count(), s.count()) << what << " class " << k;
        EXPECT_EQ(f.maxSample(), s.maxSample()) << what << " class " << k;
        EXPECT_EQ(f.buckets(), s.buckets()) << what << " class " << k;
    }
}

/** The closed-loop traffic expectTwinsAgree drives. */
struct Traffic
{
    unsigned lens[2];          //!< the two stream lengths, in words
    bool sparsePhases = true;  //!< alternate convoy and sparse phases
    Tick convoyThink = 8;      //!< convoy think times are below this
    bool mixed = true;         //!< add hot-word RMWs and random bursts
};

/**
 * Drive the same closed-loop traffic through a fast-path network and
 * its slow-path twin: every CE streams bursts of one of @p t's
 * lengths from its own cursor (plus, when mixed, the odd random
 * burst and test&sets of two hot words), issuing its next access a
 * think time after the previous one completes. Short think times
 * form convoys, long ones sparse traffic. Then every server and wait
 * histogram must match.
 */
void
expectTwinsAgree(std::uint64_t seed, sim::RandomGen &rng, WiredNet &fast,
                 WiredNet &slow, unsigned clusters, unsigned ces,
                 const Traffic &t)
{
    const auto inc = [](std::uint64_t v) { return v + 1; };
    const unsigned n_ces = clusters * ces;
    const sim::Addr hot[2] = {(sim::Addr(1) << 40) + rng.below(64),
                              (sim::Addr(1) << 40) + rng.below(64)};
    std::vector<sim::Addr> cursor(n_ces);
    std::vector<Tick> ready(n_ces, 0);
    for (unsigned c = 0; c < n_ces; ++c)
        cursor[c] = c * 4096 + rng.below(64);
    std::uint64_t bursts = 0;

    for (unsigned i = 0; i < 3000; ++i) {
        const bool convoy = !t.sparsePhases || (i / 250) % 2 == 0;
        const auto c = static_cast<unsigned>(
            std::min_element(ready.begin(), ready.end()) - ready.begin());
        const Tick now = ready[c];
        const auto cl = static_cast<sim::ClusterId>(c / ces);
        const auto port = static_cast<int>(c % ces);

        net::XferResult a, b;
        if (t.mixed && rng.chance(0.1)) {
            const sim::Addr w = hot[rng.below(2)];
            a = fast.net.rmw(now, cl, port, w, inc);
            b = slow.net.rmw(now, cl, port, w, inc);
        } else if (t.mixed && rng.chance(0.1)) {
            const sim::Addr addr = rng.below(1u << 16);
            const auto words = static_cast<unsigned>(rng.range(1, 64));
            a = fast.net.burst(now, cl, port, addr, words);
            b = slow.net.burst(now, cl, port, addr, words);
            ++bursts;
        } else {
            const unsigned words = t.lens[rng.below(2)];
            a = fast.net.burst(now, cl, port, cursor[c], words);
            b = slow.net.burst(now, cl, port, cursor[c], words);
            cursor[c] += words;
            ++bursts;
        }
        ASSERT_EQ(a.complete, b.complete)
            << "seed " << seed << " access " << i;
        ASSERT_EQ(a.unloaded, b.unloaded)
            << "seed " << seed << " access " << i;
        ASSERT_EQ(a.oldValue, b.oldValue)
            << "seed " << seed << " access " << i;
        ready[c] = a.complete + (convoy ? rng.below(t.convoyThink)
                                        : rng.range(200, 2000));
    }

    EXPECT_EQ(fast.servers(), slow.servers()) << "seed " << seed;
    expectSameWaits(fast, slow, "seed " + std::to_string(seed));
    EXPECT_GT(fast.net.fastStats().hits(), 0u) << "seed " << seed;
    EXPECT_EQ(slow.net.fastStats().hits(), 0u) << "seed " << seed;
    // The engagement counters count bursts, and only bursts.
    for (const WiredNet *w : {&fast, &slow})
        EXPECT_EQ(w->net.fastStats().hits() + w->net.fastStats().misses(),
                  bursts)
            << "seed " << seed;
}

TEST(FastPathNetwork, OversizedPatternGetsABlockOfItsOwn)
{
    // A 4,096-word burst over 4,096 one-module groups touches 16,385
    // servers, so its pattern record outgrows an arena block; the
    // short burst's record after it must land in a fresh block.
    const mem::AddressMap map(4096, 1);
    WiredNet fast(map, 1, 1, true);
    WiredNet slow(map, 1, 1, false);
    for (unsigned rep = 0; rep < 3; ++rep) {
        for (const unsigned words : {4096u, 8u}) {
            const Tick when = 100000 * (2 * rep + (words == 8 ? 1 : 0));
            const auto a = fast.net.burst(when, 0, 0, 0, words);
            const auto b = slow.net.burst(when, 0, 0, 0, words);
            ASSERT_EQ(a.complete, b.complete)
                << words << " words, rep " << rep;
        }
    }
    EXPECT_EQ(fast.net.fastPatterns(), 2u);
    EXPECT_EQ(fast.net.fastStats().hits(), 2u);
    EXPECT_EQ(fast.servers(), slow.servers());
    expectSameWaits(fast, slow, "oversized");
}

TEST(FastPathDifferential, GeneratedTrafficMatchesSlowPath)
{
    // Each seed draws a geometry and the two stream lengths.
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
        sim::RandomGen rng(seed);
        static constexpr unsigned group_sizes[] = {1, 2, 3, 4, 8};
        const unsigned gs = group_sizes[rng.below(5)];
        const mem::AddressMap map(gs * static_cast<unsigned>(rng.range(1, 8)),
                                  gs);
        const auto clusters = static_cast<unsigned>(rng.range(1, 4));
        const auto ces = static_cast<unsigned>(rng.range(1, 8));
        WiredNet fast(map, clusters, ces, true);
        WiredNet slow(map, clusters, ces, false);
        Traffic t;
        t.lens[0] = static_cast<unsigned>(rng.range(1, 64));
        t.lens[1] = static_cast<unsigned>(rng.range(1, 64));
        expectTwinsAgree(seed, rng, fast, slow, clusters, ces, t);
    }
}

TEST(FastPathDifferential, PaperGeometryConvoysMatchSlowPath)
{
    // FLO52-shaped traffic on the paper geometry (4 clusters of 8 CEs,
    // 32 modules in groups of 4): every CE streams 235-word bursts in
    // convoys. Each recording condenses ~470 serves with many
    // distinct waits, so the per-class wait tallies grow past their
    // first size.
    const mem::AddressMap map(32, 4);
    const Traffic t{{235, 235}, false, 2, false};
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
        sim::RandomGen rng(seed);
        WiredNet fast(map, 4, 8, true);
        WiredNet slow(map, 4, 8, false);
        expectTwinsAgree(seed, rng, fast, slow, 4, 8, t);
        EXPECT_GT(fast.net.fastPatterns(), 0u) << "seed " << seed;
    }
}

TEST(FastPathNetwork, TicksPast32BitsNeverReachTheStore)
{
    // Stage-1 switch 0 held for 2^33 ticks: every burst cluster 0
    // issues then queues ~2^33 ticks, past what a pattern record
    // holds, so the fast twin learns nothing and replays nothing —
    // and still matches the slow twin bit for bit.
    const mem::AddressMap map(32, 4);
    WiredNet fast(map, 4, 8, true);
    WiredNet slow(map, 4, 8, false);
    for (WiredNet *w : {&fast, &slow})
        w->net.stallSwitch(0, 1, 0, Tick(1) << 33);
    for (unsigned i = 0; i < 40; ++i) {
        const auto a = fast.net.burst(4 * i, 0, 0, 0, 4);
        const auto b = slow.net.burst(4 * i, 0, 0, 0, 4);
        ASSERT_EQ(a.complete, b.complete) << "burst " << i;
        ASSERT_EQ(a.unloaded, b.unloaded) << "burst " << i;
    }
    EXPECT_EQ(fast.net.fastPatterns(), 0u);
    EXPECT_EQ(fast.net.fastStats().hits(), 0u);
    EXPECT_EQ(fast.net.fastStats().misses(), 40u);
    EXPECT_EQ(fast.servers(), slow.servers());
    expectSameWaits(fast, slow, "stalled");
}

TEST(FastPathNetwork, AbortedRecordingLeavesNothingBehind)
{
    // A 4-word burst at max_tick - 8 serves stage 1, then overflows at
    // stage 2. Cluster 0 sights its key first; cluster 1's issue is
    // the second sighting, so it records — and throws mid-recording.
    const mem::AddressMap map(32, 4);
    WiredNet fast(map, 4, 8, true);
    WiredNet slow(map, 4, 8, false);
    for (const sim::ClusterId cl : {0, 1}) {
        EXPECT_THROW(fast.net.burst(sim::max_tick - 8, cl, 0, 0, 4),
                     sim::SimError);
        EXPECT_THROW(slow.net.burst(sim::max_tick - 8, cl, 0, 0, 4),
                     sim::SimError);
    }
    // Three idle 8-word bursts: the second records a fresh pattern,
    // the third replays it. The aborted run's stage-1 wait must not
    // leak into that recording.
    for (unsigned rep = 0; rep < 3; ++rep) {
        const auto a = fast.net.burst(1000 * rep, 2, 0, 0, 8);
        const auto b = slow.net.burst(1000 * rep, 2, 0, 0, 8);
        ASSERT_EQ(a.complete, b.complete) << "rep " << rep;
    }
    EXPECT_EQ(fast.net.fastStats().hits(), 1u);
    EXPECT_EQ(fast.servers(), slow.servers());
    expectSameWaits(fast, slow, "after the abort");
}

} // namespace
