#include "rtl/sync.hh"

#include <utility>

namespace cedar::rtl
{

void
SyncCell::update(hw::Ce &ce, hw::Ce::RmwFn f, os::UserAct act,
                 hw::Ce::ValCont k)
{
    ce.globalRmw(addr_, std::move(f), act,
                 [this, k = std::move(k)](std::uint64_t old) mutable {
                     notify();
                     k(old);
                 });
}

void
SyncCell::wait(hw::Ce &ce, Pred pred, os::UserAct act, sim::Cont k)
{
    if (pred(value())) {
        // Condition already true: the spinner still pays one poll
        // round trip before it notices.
        ce.beginWait();
        const sim::Tick poll = m_.costs().spin_wake_latency / 2 + 1;
        m_.eq().scheduleIn(poll, [&ce, act, k = std::move(k)] {
            ce.endWaitUser(act);
            k();
        });
        return;
    }
    ce.beginWait();
    waiters_.push_back(Waiter{&ce, std::move(pred), act, std::move(k)});
}

void
SyncCell::notify()
{
    if (waiters_.empty())
        return;
    // Wake every waiter whose predicate now holds; stagger wake-ups
    // slightly so a herd of spinners does not resume on the same
    // tick (their polls are not phase-aligned in reality).
    std::vector<Waiter> keep;
    std::vector<Waiter> woken;
    const std::uint64_t v = value();
    for (auto &w : waiters_) {
        if (w.pred(v))
            woken.push_back(std::move(w));
        else
            keep.push_back(std::move(w));
    }
    waiters_ = std::move(keep);
    for (std::size_t i = 0; i < woken.size(); ++i)
        wake(i, std::move(woken[i]));
}

void
SyncCell::wake(std::size_t stagger, Waiter w)
{
    const sim::Tick base = m_.costs().spin_wake_latency;
    const sim::Tick delay = base / 2 + 1 +
                            (static_cast<sim::Tick>(stagger) * 7) % base;
    m_.eq().scheduleIn(delay, [this, w = std::move(w)]() mutable {
        // The value may have changed again while the waiter was
        // waking; re-check, as a real poll loop would.
        if (w.pred(value())) {
            w.ce->endWaitUser(w.act);
            w.k();
        } else {
            waiters_.push_back(std::move(w));
        }
    });
}

} // namespace cedar::rtl
