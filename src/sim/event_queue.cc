#include "sim/event_queue.hh"

#include <cassert>
#include <limits>
#include <utility>

namespace cedar::sim
{

std::uint32_t
EventQueue::allocSlot(Cont fn)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
    } else {
        if (slots_.size() >
            std::numeric_limits<std::uint32_t>::max())
            throw ScheduleError("pending-event population overflow");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    }
    return slot;
}

void
EventQueue::schedule(Tick when, Cont fn)
{
    if (when < _now)
        throw ScheduleError("scheduling into the past");
    const std::uint32_t slot = allocSlot(std::move(fn));
    events_.push(Node{when, nextSeq_++, slot});
    if (events_.size() > peakPending_)
        peakPending_ = events_.size();
}

Cont
EventQueue::popNext()
{
    const Node node = events_.popMin();
    assert(node.when >= _now);
    _now = node.when;
    if (node.when >= sampleNext_)
        crossBoundary(node.when);
    ++executed_;
    Cont fn = std::move(slots_[node.slot]);
    freeSlots_.push_back(node.slot);
    return fn;
}

bool
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (!events_.empty()) {
        if (n >= limit)
            return false;
        ++n;
        popNext()();
    }
    return true;
}

bool
EventQueue::runUntil(Tick until, std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (!events_.empty() && events_.min().when <= until) {
        if (n >= limit)
            return false;
        ++n;
        popNext()();
    }
    // Both success exits — boundary reached and drain-to-empty —
    // leave now() == until, so a subsequent scheduleIn() measures
    // its delta from the boundary rather than from the last executed
    // event. The limit-hit exit above must NOT advance: the caller's
    // budget expired mid-window and time stays where execution
    // actually stopped.
    if (_now < until)
        _now = until;
    return true;
}

void
EventQueue::reset()
{
    events_.clear();
    slots_.clear();
    freeSlots_.clear();
    _now = 0;
    nextSeq_ = 0;
    executed_ = 0;
    peakPending_ = 0;
    sampleNext_ = sampleWindow_ ? sampleWindow_ : max_tick;
}

void
EventQueue::crossBoundary(Tick when)
{
    // One hook invocation per crossed boundary, even when one event
    // jumps several windows ahead: the recorder sees identical
    // cumulative counters at the skipped boundaries, which is the
    // truth (nothing executed in between).
    while (sampleNext_ <= when) {
        if (sampleHook_)
            sampleHook_(sampleNext_);
        const Tick next = satAdd(sampleNext_, sampleWindow_);
        if (next == sampleNext_) { // saturated at max_tick
            sampleNext_ = max_tick;
            break;
        }
        sampleNext_ = next;
    }
}

void
EventQueue::setSampleHook(Tick window, std::function<void(Tick)> hook)
{
    sampleWindow_ = window;
    if (window == 0) {
        sampleHook_ = {};
        sampleNext_ = max_tick;
        return;
    }
    sampleHook_ = std::move(hook);
    // Boundaries stay aligned to absolute simulated time: the next
    // one is the first multiple of the window strictly after now().
    sampleNext_ = satAdd(_now - _now % window, window);
}

} // namespace cedar::sim
