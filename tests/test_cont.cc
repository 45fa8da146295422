/**
 * @file
 * Tests for the allocation-free continuation type (sim/cont.hh):
 * SmallFn's inline storage and move semantics, the thread-local
 * ContArena fallback for oversized captures, and the end-to-end
 * steady-state guarantee — a warm ADM run must not take fresh heap
 * allocations for its continuations.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <utility>

#include "apps/perfect.hh"
#include "core/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace
{

using cedar::sim::Cont;
using cedar::sim::ContAllocStats;
using cedar::sim::EventQueue;
using cedar::sim::RmwFn;
using cedar::sim::SmallFn;
using cedar::sim::ValCont;

ContAllocStats
snap()
{
    return EventQueue::allocStats();
}

/** A capture too large for the inline buffer, forcing the arena. */
struct BigBlob
{
    std::array<std::uint64_t, 16> words{}; // 128 bytes
};

/** A capture beyond the largest arena size class (4096 bytes). */
struct HugeBlob
{
    std::array<std::uint64_t, 640> words{}; // 5120 bytes
};

// ---------------------------------------------------------------
// Inline storage
// ---------------------------------------------------------------

TEST(ContStorage, SmallCapturesLiveInline)
{
    const auto s0 = snap();
    int hits = 0;
    {
        Cont c{[&hits] { ++hits; }};
        ASSERT_TRUE(static_cast<bool>(c));
        c();
        c();
    }
    EXPECT_EQ(hits, 2);
    // No arena traffic at all: neither a fresh block nor a reuse.
    const auto s1 = snap();
    EXPECT_EQ(s1.heapAllocs, s0.heapAllocs);
    EXPECT_EQ(s1.poolReuses, s0.poolReuses);
    EXPECT_EQ(s1.live, s0.live);
}

TEST(ContStorage, KernelShapedCaptureStaysInline)
{
    // The hot-path closure shape the inline buffer is sized for:
    // a this-pointer, a shared_ptr and a couple of scalars.
    const auto s0 = snap();
    auto sp = std::make_shared<int>(7);
    std::uint64_t acc = 0;
    {
        Cont c{[&acc, sp, x = std::uint64_t{5},
                y = std::uint32_t{3}] { acc += *sp + x + y; }};
        c();
    }
    EXPECT_EQ(acc, 15u);
    EXPECT_EQ(snap().heapAllocs, s0.heapAllocs);
}

TEST(ContStorage, MoveTransfersTargetAndNullsSource)
{
    int hits = 0;
    Cont a{[&hits] { ++hits; }};
    Cont b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    Cont c;
    EXPECT_FALSE(static_cast<bool>(c));
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    ASSERT_TRUE(static_cast<bool>(c));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(ContStorage, AssignmentDestroysTheOldTarget)
{
    int destroyed = 0;
    struct Tracker
    {
        int *d;
        Tracker(int *d) : d(d) {}
        Tracker(Tracker &&o) noexcept : d(o.d) { o.d = nullptr; }
        ~Tracker()
        {
            if (d)
                ++*d;
        }
    };
    {
        Cont c{[t = Tracker{&destroyed}] { (void)t; }};
        EXPECT_EQ(destroyed, 0);
        c = nullptr;
        EXPECT_EQ(destroyed, 1);
        EXPECT_FALSE(static_cast<bool>(c));
    }
    EXPECT_EQ(destroyed, 1); // destructor of an empty fn is a no-op

    {
        Cont c{[t = Tracker{&destroyed}] { (void)t; }};
        c = [] {}; // replacing the target destroys the old one
        EXPECT_EQ(destroyed, 2);
        Cont d{[t = Tracker{&destroyed}] { (void)t; }};
    }
    EXPECT_EQ(destroyed, 3); // scope exit destroys the live capture
}

TEST(ContStorage, AcceptsLvalueStdFunctionCopies)
{
    // The self-scheduling idiom in tests and drivers: a copyable
    // std::function is handed to the queue by lvalue, repeatedly.
    EventQueue eq;
    int runs = 0;
    std::function<void()> again = [&] {
        if (++runs < 3)
            eq.scheduleIn(1, again);
    };
    eq.schedule(0, again);
    eq.run();
    EXPECT_EQ(runs, 3);
}

TEST(ContStorage, ValueAndRmwSignatures)
{
    std::uint64_t seen = 0;
    ValCont v{[&seen](std::uint64_t x) { seen = x; }};
    v(42);
    EXPECT_EQ(seen, 42u);

    RmwFn f{[](std::uint64_t x) { return x + 8; }};
    EXPECT_EQ(f(34), 42u);

    SmallFn<bool(std::uint64_t)> pred{
        [](std::uint64_t x) { return x >= 10; }};
    EXPECT_TRUE(pred(10));
    EXPECT_FALSE(pred(9));
}

// ---------------------------------------------------------------
// Arena fallback for oversized captures
// ---------------------------------------------------------------

TEST(ContArena, OversizeCaptureFallsBackAndStaysCorrect)
{
    const auto s0 = snap();
    std::uint64_t sum = 0;
    {
        BigBlob blob;
        for (std::size_t i = 0; i < blob.words.size(); ++i)
            blob.words[i] = i + 1;
        Cont c{[blob, &sum] {
            for (const auto w : blob.words)
                sum += w;
        }};
        // One arena block checked out, by fresh alloc or pool reuse
        // depending on what earlier tests warmed up.
        const auto s1 = snap();
        EXPECT_EQ(s1.live, s0.live + 1);
        EXPECT_EQ(s1.heapAllocs + s1.poolReuses,
                  s0.heapAllocs + s0.poolReuses + 1);

        // Moving an arena-backed fn relocates the block pointer; it
        // must not allocate, copy or destroy anything.
        Cont d = std::move(c);
        EXPECT_FALSE(static_cast<bool>(c));
        const auto s2 = snap();
        EXPECT_EQ(s2.live, s1.live);
        EXPECT_EQ(s2.heapAllocs, s1.heapAllocs);
        d();
    }
    EXPECT_EQ(sum, 16u * 17u / 2u);
    const auto s3 = snap();
    EXPECT_EQ(s3.live, s0.live); // block returned to the pool
}

TEST(ContArena, FreedBlocksAreRecycled)
{
    // Warm the size class, then check a same-class allocation is
    // served from the free list instead of the heap.
    { Cont warm{[b = BigBlob{}] { (void)b; }}; }
    const auto s0 = snap();
    {
        Cont c{[b = BigBlob{}] { (void)b; }};
        const auto s1 = snap();
        EXPECT_EQ(s1.heapAllocs, s0.heapAllocs);
        EXPECT_EQ(s1.poolReuses, s0.poolReuses + 1);
    }
    EXPECT_EQ(snap().live, s0.live);
}

TEST(ContArena, BeyondLargestClassCountsEveryHeapAlloc)
{
    // Captures past the 4096-byte top class bypass the pool — every
    // construction is a visible fresh heap allocation, so a capture
    // that big can never hide in a "steady state".
    const auto s0 = snap();
    for (int r = 0; r < 2; ++r) {
        std::uint64_t out = 0;
        Cont c{[h = HugeBlob{}, &out] { out = h.words.size(); }};
        c();
        EXPECT_EQ(out, 640u);
    }
    const auto s1 = snap();
    EXPECT_EQ(s1.heapAllocs, s0.heapAllocs + 2);
    EXPECT_EQ(s1.poolReuses, s0.poolReuses);
    EXPECT_EQ(s1.live, s0.live);
}

// ---------------------------------------------------------------
// Steady state: a warm ADM run allocates nothing per event
// ---------------------------------------------------------------

TEST(ContSteadyState, WarmAdmRunTakesNoFreshContinuationAllocs)
{
    // First run warms the arena's free lists up to the workload's
    // peak concurrent continuation population; repeat runs of the
    // same deterministic workload must then be served entirely from
    // the pool. This is DESIGN.md §11's closing assertion: the
    // event-machinery-bound workload runs allocation-free per event.
    const auto app = cedar::apps::perfectAppByName("ADM");
    cedar::core::RunOptions o;
    o.scale = 0.05;

    const auto warmup = cedar::core::runExperiment(app, 8, o);
    ASSERT_GT(warmup.eventsExecuted, 0u);

    const auto s0 = snap();
    const auto res = cedar::core::runExperiment(app, 8, o);
    const auto s1 = snap();
    EXPECT_EQ(res.eventsExecuted, warmup.eventsExecuted);

    const std::uint64_t fresh = s1.heapAllocs - s0.heapAllocs;
    EXPECT_EQ(fresh, 0u)
        << fresh << " fresh heap allocations in a warm run of "
        << res.eventsExecuted << " events";
    // The run does lean on the arena — the pool serves it.
    EXPECT_GT(s1.poolReuses, s0.poolReuses);
    EXPECT_EQ(s1.live, s0.live); // everything checked back in
}

} // namespace
