/**
 * @file
 * Tests for the observability layer: per-resource metrics
 * collection, hot-spot attribution, JSON export determinism and the
 * Chrome trace_event converter.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "apps/perfect.hh"
#include "core/experiment.hh"
#include "fault/fault.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/resource.hh"
#include "obs/timeseries.hh"
#include "sim/error.hh"

namespace
{

using namespace cedar;

core::RunOptions
quickOpts()
{
    core::RunOptions opts;
    opts.scale = 0.05;
    return opts;
}

// ----- resource classification -----

TEST(Resource, EveryClassHasAName)
{
    for (std::size_t i = 0; i < obs::num_resource_classes; ++i)
        EXPECT_STRNE(obs::toString(static_cast<obs::ResourceClass>(i)),
                     "?");
}

TEST(Resource, BankTagsMapToClasses)
{
    EXPECT_EQ(obs::classFromBank("stage1"),
              obs::ResourceClass::stage1_port);
    EXPECT_EQ(obs::classFromBank("stage2"),
              obs::ResourceClass::stage2_port);
    EXPECT_EQ(obs::classFromBank("returnA"),
              obs::ResourceClass::return_a_port);
    EXPECT_EQ(obs::classFromBank("returnB"),
              obs::ResourceClass::return_b_port);
    EXPECT_THROW(obs::classFromBank("bogus"), sim::SimError);
}

// ----- metrics collection -----

/** Every queueing wait of the run reached the tracer's histograms
 *  exactly once: per class, the histogram counts one sample per
 *  request the servers themselves recorded. */
void
expectEveryServeObservedOnce(const obs::MetricsReport &m,
                             const std::string &what)
{
    for (const auto &c : m.classes)
        EXPECT_EQ(c.waitHist.count(), c.requests)
            << what << ": " << obs::toString(c.cls);
}

TEST(Metrics, ReportSatisfiesAccountingInvariants)
{
    const auto app = apps::perfectAppByName("FLO52");
    const auto r = core::runExperiment(app, 8, quickOpts());
    const auto &m = r.metrics;

    ASSERT_EQ(m.classes.size(), obs::num_resource_classes);
    ASSERT_FALSE(m.resources.empty());
    EXPECT_EQ(m.elapsed, r.ct);

    // Class aggregates partition the per-resource counters.
    std::uint64_t req = 0;
    sim::Tick wait = 0;
    unsigned resources = 0;
    for (const auto &c : m.classes) {
        req += c.requests;
        wait += c.waitTicks;
        resources += c.resources;
    }
    EXPECT_EQ(req, m.totalRequests);
    EXPECT_EQ(wait, m.totalWaitTicks);
    EXPECT_EQ(resources, m.resources.size());

    // Wait shares are a distribution over the resources.
    double share = 0;
    for (const auto &res : m.resources) {
        EXPECT_GE(res.waitShare, 0.0);
        share += res.waitShare;
    }
    if (m.totalWaitTicks > 0)
        EXPECT_NEAR(share, 1.0, 1e-9);

    // The run really went through the network.
    EXPECT_GT(m.totalRequests, 0u);
    EXPECT_GT(m.perClass(obs::ResourceClass::memory_module).requests,
              0u);
    EXPECT_GE(m.moduleGini, 0.0);
    EXPECT_LE(m.moduleGini, 1.0);

    // The per-class wait histograms saw every request.
    expectEveryServeObservedOnce(m, "FLO52 8p");
}

TEST(Metrics, EveryServeIsObservedExactlyOnce)
{
    // The histograms are fed by the tracer, the request counts by the
    // servers: they must agree for every class whether the analytic
    // fast path condenses the waits or the slow path reports them one
    // by one, and on a faulted memory (the fast path is ineligible).
    const auto app = apps::perfectAppByName("FLO52");
    for (const bool fast : {true, false}) {
        for (const bool degraded : {false, true}) {
            auto opts = quickOpts();
            opts.fastPath = fast;
            if (degraded)
                opts.faults.push_back(
                    fault::parseFaultSpec("module:7:degrade:4x"));
            const auto r = core::runExperiment(app, 16, opts);
            const std::string what =
                std::string(fast ? "fast" : "slow") +
                (degraded ? " degraded" : "");
            if (fast && !degraded) {
                EXPECT_GT(r.fastPathHits, 0u);
            }
            if (degraded) {
                EXPECT_GT(r.faultsInjected, 0u) << what;
            }
            for (const auto &c : r.metrics.classes)
                EXPECT_GT(c.requests, 0u)
                    << what << ": " << obs::toString(c.cls);
            expectEveryServeObservedOnce(r.metrics, what);
        }
    }
}

TEST(Metrics, TopByWaitIsSortedAndBounded)
{
    const auto app = apps::perfectAppByName("FLO52");
    const auto r = core::runExperiment(app, 8, quickOpts());
    const auto top = r.metrics.topByWait(5);
    ASSERT_LE(top.size(), 5u);
    for (std::size_t i = 1; i < top.size(); ++i)
        EXPECT_GE(top[i - 1].waitTicks, top[i].waitTicks);
    // Asking for more than exists returns every queueing resource
    // (barrier-skew rows are not hot-spot candidates).
    std::size_t queueing = 0;
    for (const auto &res : r.metrics.resources)
        if (obs::isQueueingClass(res.cls))
            ++queueing;
    EXPECT_EQ(r.metrics.topByWait(1u << 20).size(), queueing);
}

TEST(Metrics, XdoallLockWordModuleIsTheHotSpot)
{
    // The paper's Section-6 hot spot: ADM is xdoall-only, so the
    // per-phase iteration-index words concentrate RMW traffic on
    // their modules and the top module's wait share must clearly
    // exceed the across-module mean.
    const auto app = apps::perfectAppByName("ADM");
    core::RunOptions opts;
    opts.scale = 0.3;
    const auto r = core::runExperiment(app, 32, opts);
    const auto top = r.metrics.topByWait(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].cls, obs::ResourceClass::memory_module);

    const auto &mods =
        r.metrics.perClass(obs::ResourceClass::memory_module);
    const double mean_share =
        mods.waitShare / std::max(1u, mods.resources);
    EXPECT_GT(top[0].waitShare, 1.5 * mean_share);
    EXPECT_GT(r.metrics.moduleGini, 0.05);
}

TEST(Metrics, JsonExportIsIdenticalAcrossSweepJobCounts)
{
    // The sweep must be bit-deterministic regardless of the worker
    // count; the metrics JSON document is the strictest observable
    // (it serialises every counter and histogram).
    const auto app = apps::perfectAppByName("FLO52");
    const std::vector<unsigned> procs{1, 4};
    const auto serial = core::runSweep(app, quickOpts(), procs, 1);
    const auto parallel = core::runSweep(app, quickOpts(), procs, 2);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        std::ostringstream a, b;
        serial[i].metrics.writeJson(a);
        parallel[i].metrics.writeJson(b);
        EXPECT_EQ(a.str(), b.str()) << "config " << procs[i];
    }
}

TEST(Metrics, JsonAndHumanReportsAreNonEmpty)
{
    const auto app = apps::perfectAppByName("FLO52");
    const auto r = core::runExperiment(app, 4, quickOpts());
    std::ostringstream js, hu;
    r.metrics.writeJson(js);
    r.metrics.print(hu);
    EXPECT_NE(js.str().find("cedar-metrics-v1"), std::string::npos);
    EXPECT_NE(js.str().find("hot_spots"), std::string::npos);
    EXPECT_NE(hu.str().find("module wait imbalance"),
              std::string::npos);
}

// ----- Chrome trace_event export -----

TEST(ChromeTrace, RejectsNonPositiveClock)
{
    std::ostringstream os;
    EXPECT_THROW(obs::writeChromeTrace(os, {}, 0.0), sim::SimError);
    EXPECT_THROW(obs::writeChromeTrace(os, {}, -1.0), sim::SimError);
}

TEST(ChromeTrace, GoldenDocumentForFixedRecords)
{
    const std::vector<hpm::Record> recs = {
        {0, hpm::packLoopRef(1, 7),
         static_cast<std::uint16_t>(hpm::EventId::xdoall_post), 0},
        {2, 7, static_cast<std::uint16_t>(hpm::EventId::pickup_enter),
         1},
        {10, 7, static_cast<std::uint16_t>(hpm::EventId::pickup_exit),
         1},
        {12, 3, static_cast<std::uint16_t>(hpm::EventId::os_overlay),
         0},
    };
    std::ostringstream ss;
    obs::writeChromeTrace(ss, recs);
    const std::string golden = R"({
  "traceEvents": [
    {
      "name": "process_name",
      "ph": "M",
      "pid": 0,
      "args": {
        "name": "cedar"
      }
    },
    {
      "name": "thread_name",
      "ph": "M",
      "pid": 0,
      "tid": 0,
      "args": {
        "name": "CE 0"
      }
    },
    {
      "name": "thread_name",
      "ph": "M",
      "pid": 0,
      "tid": 1,
      "args": {
        "name": "CE 1"
      }
    },
    {
      "name": "xdoall_post",
      "cat": "rtl",
      "ph": "i",
      "ts": 0,
      "pid": 0,
      "tid": 0,
      "s": "t",
      "args": {
        "arg": 16777223
      }
    },
    {
      "name": "pickup",
      "cat": "rtl",
      "ph": "B",
      "ts": 0.1,
      "pid": 0,
      "tid": 1,
      "args": {
        "arg": 7
      }
    },
    {
      "name": "pickup",
      "cat": "rtl",
      "ph": "E",
      "ts": 0.5,
      "pid": 0,
      "tid": 1,
      "args": {
        "arg": 7
      }
    },
    {
      "name": "os_overlay",
      "cat": "os",
      "ph": "i",
      "ts": 0.6000000000000001,
      "pid": 0,
      "tid": 0,
      "s": "t",
      "args": {
        "arg": 3
      }
    }
  ],
  "displayTimeUnit": "ms"
}
)";
    EXPECT_EQ(ss.str(), golden);
}

// ----- span-trace export -----

/** A hand-built timeline touching every layout branch of
 *  writeSpanTrace: every TimeCat and FlowStage, an overlay span,
 *  tracks first seen in descending order, and ticks whose
 *  microsecond form needs 17 digits (tick 3 is 0.15000000000000002
 *  us at the default clock). */
std::vector<obs::TelemetryEvent>
goldenTimeline()
{
    using obs::EventKind;
    using obs::FlowStage;
    using os::TimeCat;
    auto span = [](sim::Tick when, sim::Tick dur, std::int32_t ce,
                   TimeCat cat, auto act, std::uint8_t flags = 0) {
        return obs::TelemetryEvent{
            .when = when, .dur = dur, .kind = EventKind::span,
            .cat = cat, .act = static_cast<std::uint8_t>(act),
            .flags = flags, .ce = ce};
    };
    auto flow = [](sim::Tick when, sim::Tick dur, std::uint32_t id,
                   FlowStage st, std::int32_t ce, std::int32_t res) {
        return obs::TelemetryEvent{
            .when = when, .dur = dur, .id = id, .kind = EventKind::flow,
            .act = static_cast<std::uint8_t>(st), .ce = ce, .res = res};
    };
    return {
        span(3, 4, 5, TimeCat::user, os::UserAct::iter_exec),
        span(0, 7, 0, TimeCat::user, os::UserAct::serial),
        span(7, 23, 1, TimeCat::system, os::OsAct::ctx),
        span(12, 1, 0, TimeCat::system, os::OsAct::cpi,
             obs::TelemetryEvent::flag_overlay),
        span(24, 6, 2, TimeCat::interrupt, os::OsAct::ast),
        span(28, 1234567, 6, TimeCat::kspin, 0),
        span(33, 1, 3, TimeCat::idle, 0),
        flow(29, 0, 1, FlowStage::issue, 6, -1),
        flow(38, 6, 1, FlowStage::stage1, 6, 3),
        flow(123456789, 7, 1, FlowStage::stage2, 6, 9),
        flow(123456799, 3, 1, FlowStage::module, 6, 17),
        flow(123456823, 6, 1, FlowStage::ret, 6, 4),
        flow(123456829, 0, 1, FlowStage::complete, 6, -1),
        flow(41, 0, 2, FlowStage::issue, 1, -1),
        flow(47, 6, 2, FlowStage::stage1, 1, 0),
        flow(59, 7, 2, FlowStage::stage2, 1, 2),
        flow(77, 3, 2, FlowStage::module, 1, 5),
        flow(99, 6, 2, FlowStage::ret, 1, 1),
        flow(103, 0, 2, FlowStage::complete, 1, -1),
    };
}

/** Two windows with odd ratios (17-digit counter values) and one
 *  resource class without resources (no utilization track). */
obs::TimeSeries
goldenSeries()
{
    obs::TimeSeries ts;
    ts.window = 3000;
    ts.numCes = 8;
    for (sim::Tick start : {sim::Tick(0), sim::Tick(3000)}) {
        obs::TimeSeriesWindow w;
        w.start = start;
        w.end = start + (start == 0 ? 3000 : 1234);
        for (std::size_t c = 0; c + 1 < obs::num_resource_classes; ++c) {
            w.classes.resources[c] = static_cast<std::uint32_t>(2 + c);
            w.classes.requests[c] = 10 * c + start / 1000;
            w.classes.waitTicks[c] = 7 * c + start / 3 + 1;
            w.classes.busyTicks[c] = 11 * c + start / 7 + 3;
        }
        for (std::size_t c = 0; c < obs::num_time_cats; ++c)
            w.catTicks[c] = 997 * c + start;
        w.fastHits = start == 0 ? 0 : 5;
        w.fastMisses = start == 0 ? 0 : 7;
        w.events = 1234 + start;
        ts.windows.push_back(w);
    }
    return ts;
}

TEST(SpanTrace, GoldenDocumentForFixedTimeline)
{
    const obs::TimeSeries ts = goldenSeries();
    obs::SpanTraceMeta meta;
    meta.ces_per_cluster = 4;
    meta.timeseries = &ts;
    std::ostringstream ss;
    obs::writeSpanTrace(ss, goldenTimeline(), meta);

    std::ifstream f(CEDAR_GOLDEN_DIR "/span_trace.json",
                    std::ios::binary);
    ASSERT_TRUE(f.good());
    std::stringstream golden;
    golden << f.rdbuf();
    EXPECT_EQ(ss.str(), golden.str());
    EXPECT_NE(golden.str().find("\"ts\": 0.15000000000000002"),
              std::string::npos);
}

TEST(SpanTrace, RejectsNegativeTrackIds)
{
    std::ostringstream os;
    const obs::TelemetryEvent span{.kind = obs::EventKind::span, .ce = -1};
    EXPECT_THROW(obs::writeSpanTrace(os, {span}), sim::SimError);
}

} // namespace
