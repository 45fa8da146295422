#include "obs/tracer.hh"

#include "obs/timeseries.hh"

namespace cedar::obs
{

void
Tracer::span(int ce, os::TimeCat cat, std::uint8_t act, sim::Tick begin,
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
    if (timeline_ != nullptr)
        timeline_->push_back(e);
    if (ts_ != nullptr)
        ts_->addSpan(e);
}

} // namespace cedar::obs
