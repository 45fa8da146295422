#include "obs/timeseries.hh"

#include <algorithm>
#include <string>

#include "bench_json.hh"
#include "sim/error.hh"

namespace cedar::obs
{

TimeSeriesRecorder::TimeSeriesRecorder(sim::Tick window) : window_(window)
{
    if (window == 0)
        throw sim::ConfigError(
            "time series: window must be a positive tick count");
}

void
TimeSeriesRecorder::checkWindowCount(std::uint64_t windows) const
{
    if (windows > max_ts_windows)
        throw sim::ConfigError(
            "time series: the run spans more than " +
            std::to_string(max_ts_windows) + " windows of " +
            std::to_string(window_) + " ticks; raise --ts-window");
}

TimeSeriesRecorder::SpanAccum &
TimeSeriesRecorder::accumAt(std::size_t idx)
{
    if (idx >= accum_.size()) {
        // A span is often recorded at its start with its whole
        // duration, so it can reach windows no boundary has opened.
        checkWindowCount(idx);
        accum_.resize(idx + 1);
    }
    return accum_[idx];
}

void
TimeSeriesRecorder::addSpan(const TelemetryEvent &e)
{
    const auto cat = static_cast<std::size_t>(e.cat);
    sim::Tick b = e.when;
    const sim::Tick end = sim::satAdd(e.when, e.dur);
    while (b < end) {
        const std::size_t idx = static_cast<std::size_t>(b / window_);
        const sim::Tick wEnd = sim::satAdd(b - b % window_, window_);
        const sim::Tick take = std::min(end, wEnd) - b;
        SpanAccum &a = accumAt(idx);
        a.cat[cat] += take;
        if (e.cat != os::TimeCat::idle && !e.overlay() && e.ce >= 0) {
            const auto ce = static_cast<std::size_t>(e.ce);
            if (ce >= a.ceBusy.size())
                a.ceBusy.resize(ce + 1, 0);
            a.ceBusy[ce] += take;
        }
        b += take;
    }
}

void
TimeSeriesRecorder::onBoundary(const TimeSeriesSnapshot &s)
{
    // Boundary k opens window k, so a run that passes it needs at
    // least k windows (exactly k when it ends on the boundary).
    checkWindowCount(s.boundary / window_);
    snaps_.push_back(s);
}

TimeSeries
TimeSeriesRecorder::finalize(sim::Tick ct,
                             const TimeSeriesSnapshot &final_snap,
                             unsigned num_ces)
{
    TimeSeries ts;
    ts.window = window_;
    ts.numCes = num_ces;
    if (ct == 0)
        return ts;
    // ceil(ct / W) windows; a run ending exactly on a boundary folds
    // its final events into the last window (see header contract).
    const std::uint64_t windows = ct / window_ + (ct % window_ != 0);
    checkWindowCount(windows);
    const auto n = static_cast<std::size_t>(windows);

    // Cumulative counters at each window's closing edge. Boundary
    // k*W only fires when an event at or past it executes, so any
    // boundary the stream never reached has final-snapshot values
    // (nothing ran after the last event) — missing entries can only
    // trail, and carrying the final snapshot there is exact.
    const TimeSeriesSnapshot zero{};
    std::vector<const TimeSeriesSnapshot *> cum(n + 1, &final_snap);
    cum[0] = &zero;
    for (const auto &s : snaps_) {
        const std::size_t k =
            static_cast<std::size_t>(s.boundary / window_);
        if (k >= 1 && k < n)
            cum[k] = &s;
    }

    // Spans past the last window's opening edge (events at exactly
    // CT on an aligned run) fold into the last window.
    for (std::size_t idx = n; idx < accum_.size(); ++idx) {
        SpanAccum &last = accumAt(n - 1);
        const SpanAccum &extra = accum_[idx];
        for (std::size_t c = 0; c < num_time_cats; ++c)
            last.cat[c] += extra.cat[c];
        if (last.ceBusy.size() < extra.ceBusy.size())
            last.ceBusy.resize(extra.ceBusy.size(), 0);
        for (std::size_t ce = 0; ce < extra.ceBusy.size(); ++ce)
            last.ceBusy[ce] += extra.ceBusy[ce];
    }

    ts.windows.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        TimeSeriesWindow &w = ts.windows[i];
        w.start = static_cast<sim::Tick>(i) * window_;
        w.end = i + 1 == n ? ct : w.start + window_;
        const TimeSeriesSnapshot &lo = *cum[i];
        const TimeSeriesSnapshot &hi = *cum[i + 1];
        w.classes.resources = hi.classes.resources;
        for (std::size_t c = 0; c < num_resource_classes; ++c) {
            w.classes.requests[c] =
                hi.classes.requests[c] - lo.classes.requests[c];
            w.classes.waitTicks[c] =
                hi.classes.waitTicks[c] - lo.classes.waitTicks[c];
            w.classes.busyTicks[c] =
                hi.classes.busyTicks[c] - lo.classes.busyTicks[c];
        }
        w.fastHits = hi.fastHits - lo.fastHits;
        w.fastMisses = hi.fastMisses - lo.fastMisses;
        w.events = hi.events - lo.events;
        if (i < accum_.size()) {
            w.catTicks = accum_[i].cat;
            w.ceBusy = std::move(accum_[i].ceBusy);
        }
        w.ceBusy.resize(num_ces, 0);
    }

    snaps_.clear();
    accum_.clear();
    return ts;
}

void
writeTimeSeriesJson(tools::JsonWriter &j, const TimeSeries &ts)
{
    j.beginObject();
    j.field("schema", "cedar-timeseries-v2");
    j.field("window_ticks", static_cast<std::uint64_t>(ts.window));
    j.field("num_ces", ts.numCes);

    j.key("classes").beginArray();
    for (std::size_t c = 0; c < num_resource_classes; ++c)
        j.value(toString(static_cast<ResourceClass>(c)));
    j.endArray();
    j.key("cats").beginArray();
    for (std::size_t c = 0; c < num_time_cats; ++c)
        j.value(os::toString(static_cast<os::TimeCat>(c)));
    j.endArray();

    j.key("windows").beginArray();
    for (const auto &w : ts.windows) {
        const double width = static_cast<double>(w.width());
        j.beginObject();
        j.field("start", static_cast<std::uint64_t>(w.start));
        j.field("end", static_cast<std::uint64_t>(w.end));
        j.field("events", w.events);
        j.field("fast_hits", w.fastHits);
        j.field("fast_misses", w.fastMisses);

        j.key("class_requests").beginArray();
        for (const auto v : w.classes.requests)
            j.value(v);
        j.endArray();
        j.key("class_wait_ticks").beginArray();
        for (const auto v : w.classes.waitTicks)
            j.value(static_cast<std::uint64_t>(v));
        j.endArray();
        j.key("class_busy_ticks").beginArray();
        for (const auto v : w.classes.busyTicks)
            j.value(static_cast<std::uint64_t>(v));
        j.endArray();

        // Derived series, precomputed so downstream consumers (the
        // Perfetto counter tracks, summarize) agree on definitions:
        // mean queue depth = wait ticks recorded in the window per
        // tick of window; utilization = busy per tick per server.
        j.key("class_queue_depth").beginArray();
        for (const auto v : w.classes.waitTicks)
            j.value(width > 0 ? static_cast<double>(v) / width : 0.0);
        j.endArray();
        j.key("class_utilization").beginArray();
        for (std::size_t c = 0; c < num_resource_classes; ++c) {
            const double servers =
                static_cast<double>(w.classes.resources[c]);
            j.value(width > 0 && servers > 0
                        ? static_cast<double>(w.classes.busyTicks[c]) /
                              (width * servers)
                        : 0.0);
        }
        j.endArray();

        j.key("cat_ticks").beginArray();
        for (const auto v : w.catTicks)
            j.value(static_cast<std::uint64_t>(v));
        j.endArray();
        j.key("ce_busy").beginArray();
        for (const auto v : w.ceBusy)
            j.value(static_cast<std::uint64_t>(v));
        j.endArray();
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

} // namespace cedar::obs
