/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A global-ordered event queue drives the whole machine model.
 * Events are arbitrary callbacks scheduled at absolute ticks; ties
 * are broken by insertion order so simulations are fully
 * deterministic for a given seed. One queue drives one machine.
 */

#ifndef CEDAR_SIM_EVENT_QUEUE_HH
#define CEDAR_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/cont.hh"
#include "sim/dary_heap.hh"
#include "sim/error.hh"
#include "sim/types.hh"

namespace cedar::sim
{

/**
 * The event queue: a 4-ary indexed min-heap of (tick, seq) keys.
 *
 * The heap holds only small POD nodes ordered by (when, seq); each
 * node carries the index of its callback in a slot pool, so sift
 * operations move 24-byte keys instead of std::function payloads —
 * the dominant cost of the old std::priority_queue design (which
 * also required a const_cast move-out of top(), undefined
 * behaviour). Freed slots are recycled through a free list, so the
 * pool's size is bounded by the peak pending-event population.
 *
 * The queue owns simulated time. Model components never advance
 * time themselves; they schedule continuations and return.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must be >= now().
     * @param fn Callback to run at that tick.
     */
    void schedule(Tick when, Cont fn);

    /**
     * Schedule a callback @p delta ticks from now.
     *
     * @throws ScheduleError when now() + delta overflows Tick (a
     *         silent wrap would schedule into the past).
     */
    void
    scheduleIn(Tick delta, Cont fn)
    {
        const Tick base = now();
        if (delta > max_tick - base)
            throw ScheduleError("tick overflow: now + delta wraps");
        schedule(base + delta, std::move(fn));
    }

    /** True when no events remain. */
    bool empty() const { return events_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return events_.size(); }

    /** High-water mark of pending() over the queue's lifetime. */
    std::size_t peakPending() const { return peakPending_; }

    /** Events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Continuation-arena counters for the calling thread (the arena
     * is thread-local, so this reflects whichever thread runs this
     * queue — in a sweep, the worker that owns the run). Sampled
     * before/after a run to assert steady-state allocation-freedom:
     * `heapAllocs` must stop growing once every size class has
     * reached its high-water mark.
     */
    static const ContAllocStats &allocStats()
    {
        return ContArena::instance().stats();
    }

    /** Pre-size heap and slot pool for an expected population. */
    void
    reserve(std::size_t n)
    {
        events_.reserve(n);
        slots_.reserve(n);
        freeSlots_.reserve(n);
    }

    /**
     * Run events until the queue drains or @p limit events have
     * executed.
     *
     * @return true if the queue drained, false if the limit hit.
     */
    bool run(std::uint64_t limit = ~std::uint64_t(0));

    /**
     * Run events with timestamps <= @p until (inclusive), stopping
     * early if the queue drains or @p limit events have executed.
     * Unless the limit fires, afterwards now() == until — including
     * when the queue drained before reaching the boundary, so a
     * subsequent scheduleIn() is relative to the boundary. When the
     * limit fires, now() stays at the last executed event.
     *
     * @return true if the time boundary was reached (or the queue
     *         drained), false if the event limit hit first — the
     *         same budget/watchdog contract as run(limit).
     */
    bool runUntil(Tick until, std::uint64_t limit = ~std::uint64_t(0));

    /** Reset time and drop all pending events. A sampling hook
     *  stays armed, realigned to the first boundary after tick 0. */
    void reset();

    /**
     * Arm the window-boundary sampling hook: @p hook fires once per
     * crossed boundary tick k * @p window (k >= 1, ascending), just
     * before the first event at or past the boundary executes — so
     * at hook time every counter reflects exactly the events that
     * ran strictly before the boundary. A time jump across several
     * windows fires the hook once per skipped boundary. @p window 0
     * disarms (the default): the only residual cost is a single
     * always-false compare per event, which is what keeps disabled
     * runs bit-identical.
     *
     * The hook must not schedule events or mutate simulation state —
     * it is a read-only observation point (obs::TimeSeriesRecorder).
     */
    void setSampleHook(Tick window, std::function<void(Tick)> hook);

  private:
    /** Heap node: ordering key + slot index of the callback. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Order by time, ties by schedule order: deterministic runs. */
    struct NodeLess
    {
        bool
        operator()(const Node &a, const Node &b) const
        {
            if (a.when != b.when)
                return a.when < b.when;
            return a.seq < b.seq;
        }
    };

    /** Store @p fn in the slot pool and return its index. */
    std::uint32_t allocSlot(Cont fn);

    /** Pop the minimum node, advance time, return its callback. */
    Cont popNext();

    /** Cold path of the sampling hook: fire it for every boundary
     *  at or before @p when and advance the next-boundary tick. */
    void crossBoundary(Tick when);

    DaryHeap<Node, NodeLess> events_;
    std::vector<Cont> slots_;            //!< callback pool
    std::vector<std::uint32_t> freeSlots_; //!< recyclable pool slots
    Tick _now = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t peakPending_ = 0;

    /** Next sampling boundary (max_tick = disarmed: one predictable
     *  never-taken compare per event). */
    Tick sampleNext_ = max_tick;
    Tick sampleWindow_ = 0;
    std::function<void(Tick)> sampleHook_;
};

} // namespace cedar::sim

#endif // CEDAR_SIM_EVENT_QUEUE_HH
