/**
 * @file
 * Tests for the observability layer: per-resource metrics
 * collection, hot-spot attribution, JSON export determinism and the
 * Chrome trace_event converter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "apps/perfect.hh"
#include "bench_json.hh"
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
    if (m.totalWaitTicks > 0) {
        EXPECT_NEAR(share, 1.0, 1e-9);
    }

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

// ----- span-trace export against a per-field rendering -----

/**
 * The span trace rendered field by field, one JsonWriter call per
 * key and value: the oracle that writeSpanTrace's pre-rendered
 * record shapes must match byte for byte. Track discovery, metadata
 * and counter tracks follow the same layout.
 */
class PerFieldSpanTrace
{
  public:
    PerFieldSpanTrace(std::ostream &os,
                      const std::vector<obs::TelemetryEvent> &events,
                      const obs::SpanTraceMeta &meta)
        : j_(os), us_(1e6 / meta.clock_hz)
    {
        using obs::FlowStage;
        std::set<unsigned> ces, modules, s1, s2, ret;
        for (const auto &e : events) {
            if (e.kind == obs::EventKind::span)
                ces.insert(e.ce);
            else if (e.stage() == FlowStage::issue ||
                     e.stage() == FlowStage::complete)
                ces.insert(e.ce);
            else
                (e.stage() == FlowStage::stage1   ? s1
                 : e.stage() == FlowStage::stage2 ? s2
                 : e.stage() == FlowStage::module ? modules
                                                  : ret)
                    .insert(e.res);
        }
        j_.beginObject();
        j_.key("traceEvents").beginArray();
        processMeta(0, "CEs");
        for (const unsigned ce : ces)
            threadMeta(0, ce,
                       meta.ces_per_cluster == 0
                           ? "CE " + std::to_string(ce)
                           : "cluster " +
                                 std::to_string(ce / meta.ces_per_cluster) +
                                 " / CE " +
                                 std::to_string(ce % meta.ces_per_cluster));
        layer(modules, 1, "global memory", "GM module ");
        layer(s1, 2, "network stage 1", "stage1 port ");
        layer(s2, 3, "network stage 2", "stage2 port ");
        layer(ret, 4, "network return", "return port ");
        const bool series =
            meta.timeseries != nullptr && !meta.timeseries->empty();
        if (series)
            processMeta(5, "telemetry");
        for (const auto &e : events)
            record(e);
        if (series)
            counterTracks(*meta.timeseries);
        j_.endArray();
        j_.field("displayTimeUnit", "ms");
        j_.endObject();
    }

  private:
    void
    processMeta(unsigned pid, const std::string &name)
    {
        j_.beginObject();
        j_.field("name", "process_name");
        j_.field("ph", "M");
        j_.field("pid", pid);
        j_.key("args").beginObject().field("name", name).endObject();
        j_.endObject();
    }

    void
    threadMeta(unsigned pid, unsigned tid, const std::string &name)
    {
        j_.beginObject();
        j_.field("name", "thread_name");
        j_.field("ph", "M");
        j_.field("pid", pid);
        j_.field("tid", tid);
        j_.key("args").beginObject().field("name", name).endObject();
        j_.endObject();
    }

    void
    layer(const std::set<unsigned> &tracks, unsigned pid,
          const char *process, const char *track)
    {
        if (tracks.empty())
            return;
        processMeta(pid, process);
        for (const unsigned id : tracks)
            threadMeta(pid, id, track + std::to_string(id));
    }

    void
    slice(const char *name, const char *cat, double ts, double dur,
          unsigned pid, unsigned tid)
    {
        j_.beginObject();
        j_.field("name", name);
        j_.field("cat", cat);
        j_.field("ph", "X");
        j_.field("ts", ts);
        j_.field("dur", dur);
        j_.field("pid", pid);
        j_.field("tid", tid);
        j_.endObject();
    }

    void
    flowPoint(char ph, std::uint32_t id, double ts, unsigned pid,
              unsigned tid)
    {
        j_.beginObject();
        j_.field("name", "gm_request");
        j_.field("cat", "gm");
        j_.field("ph", std::string_view(&ph, 1));
        j_.field("id", id);
        j_.field("ts", ts);
        j_.field("pid", pid);
        j_.field("tid", tid);
        if (ph == 'f')
            j_.field("bp", "e");
        j_.endObject();
    }

    void
    record(const obs::TelemetryEvent &e)
    {
        using os::TimeCat;
        if (e.kind == obs::EventKind::span) {
            const char *name =
                e.cat == TimeCat::user ? os::toString(e.userAct())
                : e.cat == TimeCat::system || e.cat == TimeCat::interrupt
                    ? os::toString(e.osAct())
                : e.cat == TimeCat::kspin ? "kernel_spin"
                                          : "idle";
            j_.beginObject();
            j_.field("name", name);
            j_.field("cat", os::toString(e.cat));
            j_.field("ph", "X");
            j_.field("ts", static_cast<double>(e.when) * us_);
            j_.field("dur", static_cast<double>(e.dur) * us_);
            j_.field("pid", 0);
            j_.field("tid", static_cast<unsigned>(e.ce));
            if (e.overlay())
                j_.key("args").beginObject().field("overlay", 1).endObject();
            j_.endObject();
            return;
        }
        const auto tick = static_cast<double>(e.when) * us_;
        const auto dur = static_cast<double>(e.dur) * us_;
        const auto ce = static_cast<unsigned>(e.ce);
        const auto res = static_cast<unsigned>(e.res);
        switch (e.stage()) {
          case obs::FlowStage::issue:
            flowPoint('s', e.id, tick, 0, ce);
            break;
          case obs::FlowStage::stage1:
            slice("xfer", "net", tick - dur, dur, 2, res);
            flowPoint('t', e.id, tick - dur, 2, res);
            break;
          case obs::FlowStage::stage2:
            slice("xfer", "net", tick - dur, dur, 3, res);
            flowPoint('t', e.id, tick - dur, 3, res);
            break;
          case obs::FlowStage::module:
            slice("serve", "gm", tick - dur, dur, 1, res);
            flowPoint('t', e.id, tick - dur, 1, res);
            break;
          case obs::FlowStage::ret:
            slice("xfer", "net", tick - dur, dur, 4, res);
            flowPoint('t', e.id, tick - dur, 4, res);
            break;
          case obs::FlowStage::complete:
            flowPoint('f', e.id, tick, 0, ce);
            break;
        }
    }

    void
    counter(const std::string &name, double ts, double value)
    {
        j_.beginObject();
        j_.field("name", name);
        j_.field("cat", "timeseries");
        j_.field("ph", "C");
        j_.field("ts", ts);
        j_.field("pid", 5);
        j_.key("args").beginObject().field("value", value).endObject();
        j_.endObject();
    }

    void
    counterTracks(const obs::TimeSeries &ts)
    {
        for (const auto &w : ts.windows) {
            const double t = static_cast<double>(w.start) * us_;
            const double width = static_cast<double>(w.width());
            if (width <= 0)
                continue;
            for (std::size_t c = 0; c < obs::num_resource_classes; ++c) {
                const auto cls = static_cast<obs::ResourceClass>(c);
                const std::string name = obs::toString(cls);
                if (obs::isQueueingClass(cls))
                    counter("queue_depth." + name, t,
                            static_cast<double>(w.classes.waitTicks[c]) /
                                width);
                if (w.classes.resources[c] > 0)
                    counter("utilization." + name, t,
                            static_cast<double>(w.classes.busyTicks[c]) /
                                (width * w.classes.resources[c]));
            }
            for (std::size_t c = 0; c < obs::num_time_cats; ++c)
                counter(std::string("ces_in.") +
                            os::toString(static_cast<os::TimeCat>(c)),
                        t, static_cast<double>(w.catTicks[c]) / width);
            const double bursts =
                static_cast<double>(w.fastHits + w.fastMisses);
            counter("fastpath_hit_rate", t,
                    bursts > 0 ? static_cast<double>(w.fastHits) / bursts
                               : 0.0);
            counter("events_per_ktick", t,
                    1000.0 * static_cast<double>(w.events) / width);
        }
    }

    tools::JsonWriter j_;
    double us_;
};

/** A seeded random timeline: every TimeCat (each activity of user,
 *  system and interrupt), overlay on and off, every FlowStage; ticks
 *  below 2^40, durations below 2^32, any 32-bit flow id, CE and
 *  resource ids below 1024. Magnitudes are drawn per value, so small
 *  and large numbers (fixed and scientific text, negative slice
 *  starts) all occur. */
std::vector<obs::TelemetryEvent>
generatedTimeline(std::mt19937_64 &rng, std::size_t n)
{
    auto below2 = [&](unsigned bits) {
        const unsigned b = static_cast<unsigned>(rng() % (bits + 1));
        return b == 0 ? std::uint64_t{0} : rng() >> (64 - b);
    };
    std::vector<obs::TelemetryEvent> events;
    for (std::size_t i = 0; i < n; ++i) {
        obs::TelemetryEvent e;
        e.when = below2(40);
        e.dur = below2(32);
        e.ce = static_cast<std::int32_t>(rng() % 1024);
        if (rng() % 4 == 0) {
            e.kind = obs::EventKind::span;
            e.cat = static_cast<os::TimeCat>(rng() % obs::num_time_cats);
            const std::size_t acts =
                e.cat == os::TimeCat::user
                    ? static_cast<std::size_t>(os::UserAct::NUM)
                : e.cat == os::TimeCat::system ||
                        e.cat == os::TimeCat::interrupt
                    ? static_cast<std::size_t>(os::OsAct::NUM)
                    : 1;
            e.act = static_cast<std::uint8_t>(rng() % acts);
            e.flags = rng() % 2 ? obs::TelemetryEvent::flag_overlay : 0;
        } else {
            e.kind = obs::EventKind::flow;
            e.id = static_cast<std::uint32_t>(rng());
            e.act = static_cast<std::uint8_t>(rng() % 6);
            e.res = static_cast<std::int32_t>(rng() % 1024);
        }
        events.push_back(e);
    }
    return events;
}

/** Where @p got first departs from @p want, with context: the
 *  documents run to megabytes, too long for gtest's string diff. */
std::string
firstDifference(const std::string &got, const std::string &want)
{
    const auto at = static_cast<std::size_t>(
        std::mismatch(got.begin(), got.end(), want.begin(), want.end())
            .first -
        got.begin());
    const std::size_t from = at > 120 ? at - 120 : 0;
    return "first difference at byte " + std::to_string(at) +
           "\n--- got:\n" + got.substr(from, 240) + "\n--- want:\n" +
           want.substr(from, 240);
}

TEST(SpanTrace, MatchesPerFieldRenderingOnGeneratedTimelines)
{
    std::mt19937_64 rng(2024);
    const obs::TimeSeries series = goldenSeries();
    std::size_t checked = 0;
    for (const double clock : {sim::default_clock_hz, 33.3e6})
        for (const unsigned per_cluster : {0u, 4u})
            for (const bool with_series : {false, true})
                for (int rep = 0; rep < 3; ++rep) {
                    const auto events = generatedTimeline(rng, 3000);
                    obs::SpanTraceMeta meta;
                    meta.clock_hz = clock;
                    meta.ces_per_cluster = per_cluster;
                    meta.timeseries = with_series ? &series : nullptr;
                    std::ostringstream got, want;
                    obs::writeSpanTrace(got, events, meta);
                    PerFieldSpanTrace(want, events, meta);
                    ASSERT_TRUE(got.str() == want.str())
                        << firstDifference(got.str(), want.str())
                        << "\nclock " << clock << ", ces_per_cluster "
                        << per_cluster << ", series " << with_series
                        << ", rep " << rep;
                    ++checked;
                }
    EXPECT_EQ(checked, 24u);
}


} // namespace
