/**
 * @file
 * Tests for the windowed time-series telemetry (obs/timeseries.hh)
 * and the Histogram merge/rebuild primitives that power cross-study
 * aggregation (sim/stats.hh).
 *
 * The flagship guarantees under test:
 *  - recorder-off runs are bit-identical to recorder-on runs in
 *    every published field (the sampling hook is read-only and the
 *    recorder only takes spans from the tracer), at all five paper
 *    points;
 *  - the per-window series *conserves*: per-class deltas, fast-path
 *    deltas, span occupancy and event counts sum exactly to
 *    the end-of-run totals, and windows tile [0, CT] with aligned
 *    boundaries;
 *  - Histogram::merge/fromBuckets round-trip the serialized wait
 *    histograms with single-run percentile semantics (including the
 *    PR 3 overflow-bucket clamp).
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "apps/perfect.hh"
#include "core/experiment.hh"
#include "obs/timeseries.hh"
#include "sim/error.hh"
#include "sim/stats.hh"

namespace
{

using namespace cedar;
using sim::Histogram;
using sim::Tick;

// ------------------------------------------------------------------
// Histogram::merge / fromBuckets
// ------------------------------------------------------------------

TEST(HistogramMerge, SumsBucketsCountsAndMax)
{
    Histogram a(8, 16), b(8, 16);
    a.sample(3);
    a.sample(40);
    b.sample(3);
    b.sample(1000); // overflow bucket (values >= 15 * 8 = 120)
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.maxSample(), Tick{1000});
    EXPECT_EQ(a.buckets()[0], 2u);  // two samples of 3
    EXPECT_EQ(a.buckets()[5], 1u);  // 40 / 8
    EXPECT_EQ(a.buckets()[15], 1u); // overflow
}

TEST(HistogramMerge, GeometryMismatchThrows)
{
    Histogram a(8, 16);
    EXPECT_THROW(a.merge(Histogram(16, 16)), sim::SimError);
    EXPECT_THROW(a.merge(Histogram(8, 32)), sim::SimError);
}

TEST(HistogramMerge, FromBucketsRoundTrips)
{
    Histogram a(8, 64);
    for (Tick v : {0, 5, 9, 63, 200, 4000})
        a.sample(v);
    const Histogram b =
        Histogram::fromBuckets(a.bucketWidth(), a.buckets(),
                               a.maxSample());
    EXPECT_EQ(b.count(), a.count());
    EXPECT_EQ(b.maxSample(), a.maxSample());
    EXPECT_EQ(b.buckets(), a.buckets());
    for (double f : {0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(b.percentile(f), a.percentile(f)) << f;
}

TEST(HistogramMerge, FromBucketsEmptyThrows)
{
    EXPECT_THROW(Histogram::fromBuckets(8, {}, 0), sim::SimError);
}

/**
 * The PR 3 percentile regression shape must survive a merge: with
 * every sample in the overflow bucket, percentiles report the real
 * maximum instead of a bucket-boundary fiction, and mid-range
 * percentiles stay clamped to the largest observed sample.
 */
TEST(HistogramMerge, MergePreservesOverflowClampSemantics)
{
    Histogram a(8, 16), b(8, 16);
    a.sample(500);  // overflow (>= 120)
    b.sample(9000); // overflow, larger max
    a.merge(b);
    EXPECT_EQ(a.percentile(0.5), Tick{9000});
    EXPECT_EQ(a.percentile(1.0), Tick{9000});

    // Mixed: in-range samples keep ceil-bucket semantics, clamped
    // to the merged max when the bucket edge would exceed it.
    Histogram c(8, 16), d(8, 16);
    c.sample(3);
    c.sample(3);
    d.sample(5);
    c.merge(d);
    EXPECT_EQ(c.percentile(1.0), Tick{5}); // clamp below bucket edge 8
}

// ------------------------------------------------------------------
// Recorder on/off bit-identity
// ------------------------------------------------------------------

core::RunResult
runPoint(unsigned procs, Tick tsWindow)
{
    core::RunOptions opts;
    opts.scale = 0.02;
    opts.tsWindow = tsWindow;
    return core::runExperiment(apps::perfectAppByName("FLO52"), procs,
                               opts);
}

std::string
metricsJson(const core::RunResult &r)
{
    std::ostringstream os;
    r.metrics.writeJson(os); // no time series: the historical format
    return os.str();
}

/**
 * Every published field must be identical with the recorder on and
 * off, at every paper machine point: the boundary hook only reads
 * counters, and handing spans to the recorder cannot perturb the
 * model (the analytic fast path's gate reads only the toggle and the
 * fault plan).
 */
TEST(TimeSeriesRecorder, RecorderOffRunsBitIdenticalAtPaperPoints)
{
    for (unsigned procs : {1u, 4u, 8u, 16u, 32u}) {
        const auto off = runPoint(procs, 0);
        const auto on = runPoint(procs, 40000);
        EXPECT_TRUE(off.timeseries.empty());
        EXPECT_FALSE(on.timeseries.empty());

        EXPECT_EQ(off.ct, on.ct) << procs;
        EXPECT_EQ(off.status, on.status) << procs;
        EXPECT_EQ(off.eventsExecuted, on.eventsExecuted) << procs;
        EXPECT_EQ(off.peakPending, on.peakPending) << procs;
        EXPECT_EQ(off.resourceWait, on.resourceWait) << procs;
        EXPECT_EQ(off.ceQueueStall, on.ceQueueStall) << procs;
        EXPECT_EQ(off.globalWords, on.globalWords) << procs;
        EXPECT_EQ(off.fastPathHits, on.fastPathHits) << procs;
        EXPECT_EQ(off.fastPathMisses, on.fastPathMisses) << procs;
        EXPECT_EQ(off.seqFaults, on.seqFaults) << procs;
        EXPECT_EQ(off.concFaults, on.concFaults) << procs;
        EXPECT_DOUBLE_EQ(off.machineConcurrency,
                         on.machineConcurrency)
            << procs;
        // The whole per-resource metrics document, byte for byte.
        EXPECT_EQ(metricsJson(off), metricsJson(on)) << procs;
    }
}

// ------------------------------------------------------------------
// Window conservation and tiling
// ------------------------------------------------------------------

TEST(TimeSeries, WindowsTileCompletionTimeWithAlignedBoundaries)
{
    constexpr Tick W = 30000;
    const auto r = runPoint(8, W);
    const auto &ts = r.timeseries;
    ASSERT_FALSE(ts.empty());
    EXPECT_EQ(ts.window, W);
    EXPECT_EQ(ts.numCes, 8u);
    const std::size_t expected =
        static_cast<std::size_t>(r.ct / W + (r.ct % W ? 1 : 0));
    ASSERT_EQ(ts.windows.size(), expected);
    for (std::size_t i = 0; i < ts.windows.size(); ++i) {
        const auto &w = ts.windows[i];
        EXPECT_EQ(w.start, static_cast<Tick>(i) * W);
        EXPECT_EQ(w.end, i + 1 == ts.windows.size()
                             ? r.ct
                             : static_cast<Tick>(i + 1) * W);
        EXPECT_EQ(w.ceBusy.size(), std::size_t{8});
        for (const Tick busy : w.ceBusy)
            EXPECT_LE(busy, w.width());
    }
}

TEST(TimeSeries, DeltasSumToRunTotals)
{
    const auto r = runPoint(8, 25000);
    const auto &ts = r.timeseries;
    ASSERT_FALSE(ts.empty());

    std::uint64_t events = 0, fastHits = 0, fastMisses = 0;
    obs::ClassTotals classes;
    for (const auto &w : ts.windows) {
        events += w.events;
        fastHits += w.fastHits;
        fastMisses += w.fastMisses;
        for (std::size_t c = 0; c < obs::num_resource_classes; ++c) {
            classes.requests[c] += w.classes.requests[c];
            classes.waitTicks[c] += w.classes.waitTicks[c];
            classes.busyTicks[c] += w.classes.busyTicks[c];
        }
    }
    EXPECT_EQ(events, r.eventsExecuted);
    EXPECT_EQ(fastHits, r.fastPathHits);
    EXPECT_EQ(fastMisses, r.fastPathMisses);

    // Per-class sums must equal the end-of-run metrics document
    // (collected by the identical server walk).
    for (std::size_t c = 0; c < obs::num_resource_classes; ++c) {
        const auto cls = static_cast<obs::ResourceClass>(c);
        const auto &m = r.metrics.perClass(cls);
        EXPECT_EQ(classes.requests[c], m.requests) << toString(cls);
        EXPECT_EQ(classes.waitTicks[c], m.waitTicks) << toString(cls);
        EXPECT_EQ(classes.busyTicks[c], m.busyTicks) << toString(cls);
    }
}

/**
 * The span-derived occupancy must conserve against the raw timeline:
 * summing catTicks across windows reproduces the total span ticks
 * per TimeCat, and per-CE busy reproduces the non-idle, non-overlay
 * span ticks per CE — i.e. the overlap-split loses and duplicates
 * nothing.
 */
TEST(TimeSeries, SpanOccupancyConservesAgainstTimeline)
{
    core::RunOptions opts;
    opts.scale = 0.02;
    opts.tsWindow = 25000;
    opts.collectTimeline = true;
    const auto r = core::runExperiment(
        apps::perfectAppByName("FLO52"), 8, opts);
    const auto &ts = r.timeseries;
    ASSERT_FALSE(ts.empty());

    std::array<Tick, obs::num_time_cats> catFromSeries{};
    std::vector<Tick> busyFromSeries(ts.numCes, 0);
    for (const auto &w : ts.windows) {
        for (std::size_t c = 0; c < obs::num_time_cats; ++c)
            catFromSeries[c] += w.catTicks[c];
        for (std::size_t i = 0; i < w.ceBusy.size(); ++i)
            busyFromSeries[i] += w.ceBusy[i];
    }

    std::array<Tick, obs::num_time_cats> catFromTimeline{};
    std::vector<Tick> busyFromTimeline(ts.numCes, 0);
    for (const auto &e : r.timeline) {
        if (e.kind != obs::EventKind::span)
            continue;
        catFromTimeline[static_cast<std::size_t>(e.cat)] += e.dur;
        if (e.ce >= 0 && !e.overlay() &&
            e.cat != os::TimeCat::idle)
            busyFromTimeline[static_cast<std::size_t>(e.ce)] += e.dur;
    }

    for (std::size_t c = 0; c < obs::num_time_cats; ++c)
        EXPECT_EQ(catFromSeries[c], catFromTimeline[c])
            << os::toString(static_cast<os::TimeCat>(c));
    EXPECT_EQ(busyFromSeries, busyFromTimeline);
}

// ------------------------------------------------------------------
// Window-count cap
// ------------------------------------------------------------------

/**
 * A window far narrower than the run used to allocate one snapshot
 * and one window per boundary without limit (a 1-tick window on a
 * 1%-scale ADM run took ~1 GB). The recorder now refuses the run as
 * soon as it passes max_ts_windows windows — a typed error, fast.
 */
TEST(TimeSeries, TinyWindowOnLongRunThrowsConfigErrorFast)
{
    core::RunOptions opts;
    opts.scale = 0.01;
    opts.tsWindow = 1;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(core::runExperiment(apps::perfectAppByName("ADM"), 1,
                                     opts),
                 sim::ConfigError);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
#ifdef NDEBUG
    // Optimized builds only: debug and sanitizer builds run the
    // per-boundary counter walk many times slower.
    EXPECT_LT(took.count(), 1.0);
#endif
    (void)took;
}

TEST(TimeSeries, WindowCapIsInclusive)
{
    constexpr Tick cap = obs::max_ts_windows;

    // Exactly max_ts_windows windows is allowed, on both paths.
    obs::TimeSeriesRecorder ok(1);
    obs::TimeSeriesSnapshot s;
    s.boundary = cap;
    ok.onBoundary(s);
    EXPECT_EQ(ok.finalize(cap, s, 1).windows.size(), cap);

    // One boundary (or one completion tick) more is not.
    obs::TimeSeriesRecorder over(1);
    s.boundary = cap + 1;
    EXPECT_THROW(over.onBoundary(s), sim::ConfigError);
    EXPECT_THROW(over.finalize(cap + 1, s, 1), sim::ConfigError);
}

// ------------------------------------------------------------------
// JSON export compatibility
// ------------------------------------------------------------------

TEST(TimeSeries, MetricsJsonUnchangedUnlessSeriesPresent)
{
    const auto off = runPoint(4, 0);
    const auto on = runPoint(4, 40000);

    // Null and empty series leave the document byte-identical.
    std::ostringstream plain, withNull, withEmpty, withSeries;
    on.metrics.writeJson(plain);
    on.metrics.writeJson(withNull, nullptr);
    on.metrics.writeJson(withEmpty, &off.timeseries);
    EXPECT_EQ(plain.str(), withNull.str());
    EXPECT_EQ(plain.str(), withEmpty.str());

    on.metrics.writeJson(withSeries, &on.timeseries);
    EXPECT_NE(plain.str(), withSeries.str());
    EXPECT_NE(withSeries.str().find("cedar-timeseries-v2"),
              std::string::npos);
    EXPECT_NE(withSeries.str().find("class_queue_depth"),
              std::string::npos);
}

} // namespace
