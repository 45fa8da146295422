/**
 * @file
 * The producer facade of the telemetry subsystem.
 *
 * A Tracer is what the machine substrate (CEs, Xylem, the network,
 * global memory, the sync hardware) holds a pointer to. It turns
 * "this CE just charged 40 ticks of user/global_access" into a span
 * event, "this burst entered the network" into a flow id, and "this
 * server made a request wait 12 ticks" into a resource_wait event —
 * all gated on the bus actually having a subscriber for that kind,
 * so a run with no sinks pays one predicted-false branch per site.
 *
 * Span durations are, by construction, exactly the values charged to
 * os::Accounting at the same call sites: summing a CE's span ticks
 * per TimeCat must reproduce the accounting breakdown tick-for-tick
 * (the conservation cross-check in cedar_cli report relies on this).
 * close(ct) mirrors Accounting::finalize — spans that would begin at
 * or beyond the completion time are dropped, matching accounting's
 * treatment of post-finalize charges.
 */

#ifndef CEDAR_OBS_TRACER_HH
#define CEDAR_OBS_TRACER_HH

#include "obs/telemetry.hh"

namespace cedar::obs
{

class Tracer
{
  public:
    explicit Tracer(TelemetryBus &bus) : bus_(&bus) {}

    TelemetryBus &bus() const { return *bus_; }

    /** Register the machine's MetricsHub so resourceWait() can hand
     *  it waits directly (devirtualized) whenever it is provably the
     *  bus's sole resource_wait subscriber. Purely an optimisation:
     *  the hub's state ends up bit-identical either way. */
    void setMetricsHub(MetricsHub *hub) { hub_ = hub; }

    /**
     * Is the registered MetricsHub the bus's sole resource_wait
     * subscriber? Then a wait's time and resource index reach no
     * one (the hub ignores both), so waits may go to the hub
     * directly and in batches (resourceWaitBatch). The one owner of
     * this question: the network's analytic fast path asks it too.
     */
    bool
    waitsBatchable() const
    {
        return hub_ != nullptr &&
               bus_->soleSubscriber(EventKind::resource_wait) == hub_;
    }

    /** @p count waits of @p wait ticks at class @p cls in one step —
     *  bit-identical to @p count resourceWait() calls. Only valid
     *  while waitsBatchable(). */
    void
    resourceWaitBatch(ResourceClass cls, sim::Tick wait,
                      std::uint64_t count)
    {
        hub_->recordWaits(cls, wait, count);
    }

    /** True when some sink subscribed to spans — producers may use
     *  this to skip begin-time bookkeeping entirely. */
    bool spansWanted() const
    {
        return !closed_ && bus_->wants(EventKind::span);
    }

    bool flowsWanted() const
    {
        return !closed_ && bus_->wants(EventKind::flow);
    }

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
        bus_->publish(e);
        return e.id;
    }

    /** A flow milestone: the request cleared @p stage at @p when on
     *  resource @p res (module index, or port index within its bank);
     *  @p dur carries the service time for module stages. */
    void
    flowStage(std::uint32_t flow, FlowStage stage, sim::Tick when,
              std::int32_t res = -1, sim::Tick dur = 0)
    {
        if (flow == 0 || closed_)
            return;
        TelemetryEvent e;
        e.kind = EventKind::flow;
        e.when = when;
        e.dur = dur;
        e.id = flow;
        e.act = static_cast<std::uint8_t>(stage);
        e.res = res;
        bus_->publish(e);
    }

    /** The response for @p flow reached @p ce at @p when. */
    void
    flowEnd(std::uint32_t flow, int ce, sim::Tick when)
    {
        if (flow == 0 || closed_)
            return;
        TelemetryEvent e;
        e.kind = EventKind::flow;
        e.when = when;
        e.id = flow;
        e.act = static_cast<std::uint8_t>(FlowStage::complete);
        e.ce = ce;
        bus_->publish(e);
    }

    /** CE @p ce (in cluster @p cluster) flipped its statfx-active
     *  state to @p active at @p when. */
    void
    ceState(int ce, int cluster, sim::Tick when, bool active)
    {
        if (!bus_->wants(EventKind::ce_state))
            return;
        TelemetryEvent e;
        e.kind = EventKind::ce_state;
        e.when = when;
        e.ce = ce;
        e.res = cluster;
        e.flags = active ? TelemetryEvent::flag_active : 0;
        bus_->publish(e);
    }

    /** One queueing wait: a request arriving at @p when at resource
     *  @p res of class @p cls waited @p wait ticks before service. */
    void
    resourceWait(ResourceClass cls, std::int32_t res, sim::Tick when,
                 sim::Tick wait)
    {
        // Hot path: one resource_wait per streamed word. When the
        // MetricsHub is the only subscriber (the standard machine
        // wiring), skip the event build + bus dispatch + virtual
        // call; onTelemetry ignores when/res, so recordWaits'
        // outcome is identical by construction.
        if (waitsBatchable()) {
            resourceWaitBatch(cls, wait, 1);
            return;
        }
        if (!bus_->wants(EventKind::resource_wait))
            return;
        TelemetryEvent e;
        e.kind = EventKind::resource_wait;
        e.when = when;
        e.dur = wait;
        e.act = static_cast<std::uint8_t>(cls);
        e.res = res;
        bus_->publish(e);
    }

    /**
     * Seal the tracer at completion time @p ct. Mirrors
     * os::Accounting::finalize: everything emitted after this is
     * dropped, so straggler events scheduled past the finish line
     * can't make span sums exceed the accounting sums.
     */
    void close(sim::Tick ct);

    bool closed() const { return closed_; }
    sim::Tick closedAt() const { return closedAt_; }

  private:
    void
    span(int ce, os::TimeCat cat, std::uint8_t act, sim::Tick begin,
         sim::Tick dur, std::uint8_t flags)
    {
        if (dur == 0)
            return;
        TelemetryEvent e;
        e.kind = EventKind::span;
        e.when = begin;
        e.dur = dur;
        e.cat = cat;
        e.act = act;
        e.flags = flags;
        e.ce = ce;
        bus_->publish(e);
    }

    TelemetryBus *bus_;
    MetricsHub *hub_ = nullptr;
    std::uint32_t lastFlow_ = 0;
    bool closed_ = false;
    sim::Tick closedAt_ = 0;
};

} // namespace cedar::obs

#endif // CEDAR_OBS_TRACER_HH
