#include "hw/concurrency_bus.hh"

#include "hpm/trace.hh"
#include "obs/tracer.hh"

#include <cassert>

namespace cedar::hw
{

void
ConcurrencyBus::expect(unsigned n)
{
    assert(expected_ == 0 && "bus sync episode already in flight");
    assert(n > 0);
    expected_ = n;
    waiters_.clear();
}

void
ConcurrencyBus::arrive(Ce &ce, os::UserAct act, sim::Cont k)
{
    assert(expected_ > 0 && "arrive() without expect()");
    ce.trace().post(eq_.now(), ce.id(), hpm::EventId::cls_sync_enter,
                    static_cast<std::uint32_t>(act));
    ce.beginWait(/*passive=*/true);
    waiters_.push_back(Waiter{&ce, act, std::move(k), eq_.now()});

    if (waiters_.size() < expected_)
        return;

    // Last arrival: everyone resumes after the bus sync cost. Each
    // waiter's skew (time spent at the bus barrier) plus the sync
    // cost is accounted to the caller-selected activity.
    expected_ = 0;
    auto woken = std::move(waiters_);
    waiters_.clear();
    const sim::Tick resume = eq_.now() + costs_.cdoall_sync;
    for (auto &w : woken) {
        const sim::Tick skew = eq_.now() - w.arrival;
        stats_.record(skew, costs_.cdoall_sync);
        if (tracer_)
            tracer_->resourceWait(obs::ResourceClass::concurrency_bus, skew);
        eq_.schedule(resume, [this, w = std::move(w)] {
            w.ce->endWaitUser(w.act);
            w.ce->trace().post(eq_.now(), w.ce->id(),
                               hpm::EventId::cls_sync_exit,
                               static_cast<std::uint32_t>(w.act));
            w.k();
        });
    }
}

} // namespace cedar::hw
