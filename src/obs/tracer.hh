/**
 * @file
 * The machine's one observation point.
 *
 * A Tracer is what the machine substrate (CEs, Xylem, the network
 * with the memory behind it, the sync hardware) holds a pointer to,
 * and it feeds the machine's fixed observers directly:
 *
 *  - every queueing wait lands in the per-class wait histograms it
 *    owns (resourceWait);
 *  - when a timeline is attached (setTimeline), "this CE just charged
 *    40 ticks of user/global_access" becomes a span record and "this
 *    burst entered the network" a flow id with, per network stage,
 *    its first and last milestone (net::FlowPoints);
 *  - when a time-series recorder is attached (setTimeSeries), every
 *    span is also handed to it, after the timeline.
 *
 * With neither attached, a span or flow site pays one
 * predicted-false branch.
 *
 * Span durations are, by construction, exactly the values charged to
 * os::Accounting at the same call sites: summing a CE's span ticks
 * per TimeCat must reproduce the accounting breakdown tick-for-tick
 * (the conservation cross-check in cedar_cli report relies on this).
 * close() mirrors Accounting::finalize — spans and flows emitted
 * after the completion time are dropped, matching accounting's
 * treatment of post-finalize charges.
 */

#ifndef CEDAR_OBS_TRACER_HH
#define CEDAR_OBS_TRACER_HH

#include <vector>

#include "obs/resource.hh"
#include "obs/telemetry.hh"

namespace cedar::obs
{

class TimeSeriesRecorder;

class Tracer
{
  public:
    /** Append every span and flow to @p events (nullptr: none). */
    void setTimeline(std::vector<TelemetryEvent> *events)
    {
        timeline_ = events;
    }

    /** Hand every span to @p ts as well (nullptr: none). */
    void setTimeSeries(TimeSeriesRecorder *ts) { ts_ = ts; }

    /** Per-class wait-latency histograms of every wait so far. */
    const WaitHistograms &waitHists() const { return hists_; }

    /** @p count queueing waits of @p wait ticks each at a resource
     *  of class @p cls (the fast path replays its condensed waits
     *  in one call). */
    void
    resourceWait(ResourceClass cls, sim::Tick wait, std::uint64_t count = 1)
    {
        hists_.of(cls).sampleN(wait, count);
    }

    /** True when spans are recorded — producers may use this to
     *  skip begin-time bookkeeping entirely. */
    bool
    spansWanted() const
    {
        return !closed_ && (timeline_ != nullptr || ts_ != nullptr);
    }

    bool flowsWanted() const { return !closed_ && timeline_ != nullptr; }

    /** A user-mode span on @p ce: [begin, begin+dur) doing @p act. */
    void
    userSpan(int ce, os::UserAct act, sim::Tick begin, sim::Tick dur)
    {
        if (!spansWanted())
            return;
        span(ce, os::TimeCat::user, static_cast<std::uint8_t>(act), begin,
             dur, 0);
    }

    /** An OS span; @p cat is system or interrupt, @p act the OsAct.
     *  Overlay spans are asynchronous charges (interrupt processing,
     *  daemon overlays) that account against the CE's timeline but
     *  were initiated outside its sequential instruction stream. */
    void
    osSpan(int ce, os::TimeCat cat, os::OsAct act, sim::Tick begin,
           sim::Tick dur, bool overlay = false)
    {
        if (!spansWanted())
            return;
        span(ce, cat, static_cast<std::uint8_t>(act), begin, dur,
             overlay ? TelemetryEvent::flag_overlay : 0);
    }

    /** A kernel-lock spin span (TimeCat::kspin; no activity code). */
    void
    spinSpan(int ce, sim::Tick begin, sim::Tick dur, bool overlay = false)
    {
        if (!spansWanted())
            return;
        span(ce, os::TimeCat::kspin, 0, begin, dur,
             overlay ? TelemetryEvent::flag_overlay : 0);
    }

    /**
     * Begin a GM-request flow on @p ce. Returns the flow id to pass
     * through the network stages, or 0 when flows are unwatched (0 is
     * never a live id, so stages can cheaply test `if (flow)`).
     */
    std::uint32_t
    flowBegin(int ce, sim::Tick when)
    {
        if (!flowsWanted())
            return 0;
        TelemetryEvent e;
        e.kind = EventKind::flow;
        e.when = when;
        e.id = ++lastFlow_;
        e.act = static_cast<std::uint8_t>(FlowStage::issue);
        e.ce = ce;
        timeline_->push_back(e);
        return e.id;
    }

    /** A flow milestone: the request cleared @p stage at @p when on
     *  resource @p res (a module's index, or a port's position among
     *  its class's ports); @p dur carries the serve's service time. */
    void
    flowStage(std::uint32_t flow, FlowStage stage, sim::Tick when,
              std::int32_t res = -1, sim::Tick dur = 0)
    {
        if (flow == 0 || !flowsWanted())
            return;
        TelemetryEvent e;
        e.kind = EventKind::flow;
        e.when = when;
        e.dur = dur;
        e.id = flow;
        e.act = static_cast<std::uint8_t>(stage);
        e.res = res;
        timeline_->push_back(e);
    }

    /** The response for @p flow reached @p ce at @p when. */
    void
    flowEnd(std::uint32_t flow, int ce, sim::Tick when)
    {
        if (flow == 0 || !flowsWanted())
            return;
        TelemetryEvent e;
        e.kind = EventKind::flow;
        e.when = when;
        e.id = flow;
        e.act = static_cast<std::uint8_t>(FlowStage::complete);
        e.ce = ce;
        timeline_->push_back(e);
    }

    /**
     * Seal the tracer at the completion time. Mirrors
     * os::Accounting::finalize: every span and flow emitted after
     * this is dropped, so straggler events scheduled past the finish
     * line can't make span sums exceed the accounting sums. Waits
     * keep landing in the histograms, as they keep landing in the
     * servers' own counters.
     */
    void close() { closed_ = true; }

  private:
    /** Record one span: timeline first, then the time series. */
    void span(int ce, os::TimeCat cat, std::uint8_t act, sim::Tick begin,
              sim::Tick dur, std::uint8_t flags);

    WaitHistograms hists_;
    std::vector<TelemetryEvent> *timeline_ = nullptr;
    TimeSeriesRecorder *ts_ = nullptr;
    std::uint32_t lastFlow_ = 0;
    bool closed_ = false;
};

} // namespace cedar::obs

#endif // CEDAR_OBS_TRACER_HH
