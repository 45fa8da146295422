/**
 * @file
 * The span timeline's record type.
 *
 * A run's timeline (RunOptions::collectTimeline) is a vector of
 * TelemetryEvents: per-CE time spans and GM-request flow milestones,
 * in the order obs::Tracer emitted them. The span exporter
 * (obs/chrome_trace.hh), the tracer-vs-accounting cross-check
 * (core/report.hh) and the time-series recorder read it.
 *
 * This header sits below mem/net/hw (like obs/resource.hh) so the
 * machine substrate can emit records without depending on the
 * collection layer.
 */

#ifndef CEDAR_OBS_TELEMETRY_HH
#define CEDAR_OBS_TELEMETRY_HH

#include <cstdint>

#include "os/accounting.hh"
#include "sim/types.hh"

namespace cedar::obs
{

/** The kinds of timeline records. */
enum class EventKind : std::uint8_t
{
    span, //!< closed per-CE time interval in one category
    flow, //!< GM-request milestone (issue/stages/complete)
};

/** Milestones of one global-memory request's path. */
enum class FlowStage : std::uint8_t
{
    issue,    //!< CE issues the burst/RMW
    stage1,   //!< cleared the stage-1 crossbar output port
    stage2,   //!< cleared the stage-2 switch input port
    module,   //!< service at a memory module (dur = service)
    ret,      //!< cleared the return path
    complete, //!< response reached the CE
};

/**
 * One timeline record. A compact POD rather than a variant so
 * recording is a couple of stores; which fields are meaningful
 * depends on kind:
 *
 *  - span: when=begin, dur=length, ce, cat, act
 *          (UserAct index when cat==user, OsAct index when
 *          cat==system/interrupt, unused for kspin),
 *          flags bit 0 = asynchronous overlay charge
 *  - flow: when, dur (module service), id=flow id, ce,
 *          act=FlowStage, res=resource index (module/port)
 */
struct TelemetryEvent
{
    sim::Tick when = 0;
    sim::Tick dur = 0;
    std::uint32_t id = 0;
    EventKind kind = EventKind::span;
    os::TimeCat cat = os::TimeCat::user;
    std::uint8_t act = 0;
    std::uint8_t flags = 0;
    std::int32_t ce = -1;
    std::int32_t res = -1;

    static constexpr std::uint8_t flag_overlay = 1;

    bool overlay() const { return (flags & flag_overlay) != 0; }
    os::UserAct userAct() const { return static_cast<os::UserAct>(act); }
    os::OsAct osAct() const { return static_cast<os::OsAct>(act); }
    FlowStage stage() const { return static_cast<FlowStage>(act); }
};

} // namespace cedar::obs

#endif // CEDAR_OBS_TELEMETRY_HH
