/**
 * @file
 * Small-buffer, move-only continuation storage (DESIGN.md §11).
 *
 * The machine model executes continuation-passing programs, so the
 * DES hot loop constructs, moves and destroys one closure per
 * primitive. `std::function` served that role through PR 7 but
 * heap-allocates any capture list over two pointers — and a chain
 * closure capturing this + a loop handle + the next continuation is
 * always over that line, which put ~17 allocations behind every ADM
 * event (DESIGN.md §11).
 *
 * `SmallFn` replaces it with two storage tiers:
 *
 *  - **Inline**: captures up to `cont_inline_bytes` live directly in
 *    the object (the event-queue slot pool, a CE's pending slot, a
 *    sync-cell waiter). Covers every closure that does not itself
 *    capture a continuation — in particular the `[this]` completion
 *    events the converted producers schedule.
 *  - **Arena**: larger captures (necessarily including every closure
 *    that captures a `Cont` by value, since a Cont can never fit
 *    inside its own inline buffer) go to a thread-local size-class
 *    free-list pool. Steady-state churn pops and pushes a pointer;
 *    `operator new` is only reached while a size class's high-water
 *    mark still grows. The pool is thread-local, so sweep workers
 *    stay independent (bit-identical at any --jobs, TSan-clean).
 *
 * The arena counts fresh heap blocks vs pool reuses; EventQueue
 * exposes the counters (`EventQueue::allocStats`) and the perf
 * harness guards "zero fresh allocations per event in steady state"
 * on an ADM-class run (bench/sweep_perf).
 *
 * Semantics relative to std::function: move-only (so captured
 * continuations are moved, never duplicated), invocation through
 * `operator() const` like std::function (the target is stored
 * non-const, so mutable lambdas work), no allocation on move, and
 * invoking an empty SmallFn is undefined (asserted) rather than a
 * thrown bad_function_call — an empty continuation is always a
 * model bug here.
 */

#ifndef CEDAR_SIM_CONT_HH
#define CEDAR_SIM_CONT_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace cedar::sim
{

/** Continuation-arena counters (per thread, monotonic). */
struct ContAllocStats
{
    std::uint64_t heapAllocs = 0; //!< fresh `operator new` blocks
    std::uint64_t poolReuses = 0; //!< allocations served by a free list
    std::uint64_t live = 0;       //!< blocks currently checked out
};

/**
 * Thread-local size-class pool for oversized SmallFn captures.
 *
 * Classes are powers of two from 64 to 4096 bytes; a freed block
 * parks on its class's free list and the next allocation of that
 * class pops it. Captures beyond the largest class (none exist in
 * the model today) fall through to plain new/delete and count as a
 * fresh heap allocation every time — visible in the stats rather
 * than silently absorbed.
 */
class ContArena
{
  public:
    static ContArena &
    instance()
    {
        static thread_local ContArena arena;
        return arena;
    }

    void *
    allocate(std::size_t bytes)
    {
        const unsigned c = sizeClass(bytes);
        ++stats_.live;
        if (c >= num_classes) {
            ++stats_.heapAllocs;
            return ::operator new(bytes);
        }
        auto &fl = free_[c];
        if (!fl.empty()) {
            ++stats_.poolReuses;
            void *p = fl.back();
            fl.pop_back();
            return p;
        }
        ++stats_.heapAllocs;
        return ::operator new(classBytes(c));
    }

    void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        const unsigned c = sizeClass(bytes);
        --stats_.live;
        if (c >= num_classes) {
            ::operator delete(p);
            return;
        }
        try {
            free_[c].push_back(p);
        } catch (...) {
            ::operator delete(p);
        }
    }

    const ContAllocStats &stats() const { return stats_; }

    ContArena(const ContArena &) = delete;
    ContArena &operator=(const ContArena &) = delete;

    ~ContArena()
    {
        for (auto &fl : free_)
            for (void *p : fl)
                ::operator delete(p);
    }

  private:
    ContArena() = default;

    static constexpr unsigned num_classes = 7; //!< 64..4096 bytes
    static constexpr std::size_t min_class_bytes = 64;

    static constexpr std::size_t
    classBytes(unsigned c)
    {
        return min_class_bytes << c;
    }

    static constexpr unsigned
    sizeClass(std::size_t bytes)
    {
        std::size_t b = min_class_bytes;
        unsigned c = 0;
        while (b < bytes && c < num_classes) {
            b <<= 1;
            ++c;
        }
        return c;
    }

    std::vector<void *> free_[num_classes];
    ContAllocStats stats_;
};

/** Inline capture capacity of the default continuation types. Sized
 *  for the largest kernel closure that does not itself carry a
 *  continuation: `[this, shared_ptr, &ref, small scalars]` — 40
 *  bytes keeps sizeof(Cont) at 48 with the dispatch pointer. */
inline constexpr std::size_t cont_inline_bytes = 40;

template <typename Sig, std::size_t Inline = cont_inline_bytes>
class SmallFn;

/**
 * Move-only callable with @p Inline bytes of in-object storage and
 * ContArena fallback. See the file comment for the storage model.
 */
template <typename R, typename... Args, std::size_t Inline>
class SmallFn<R(Args...), Inline>
{
    /** Manual vtable: one static instance per stored target type
     *  and tier. Kept to three entries so the object stays two
     *  cache-line-friendly pieces: buffer + dispatch pointer. */
    struct Ops
    {
        R (*invoke)(unsigned char *buf, Args &&...args);
        void (*relocate)(unsigned char *from,
                         unsigned char *to) noexcept;
        void (*destroy)(unsigned char *buf) noexcept;
    };

    template <typename D>
    struct InlineOps
    {
        static D *
        obj(unsigned char *b) noexcept
        {
            return std::launder(reinterpret_cast<D *>(b));
        }
        static R
        invoke(unsigned char *b, Args &&...args)
        {
            return (*obj(b))(std::forward<Args>(args)...);
        }
        static void
        relocate(unsigned char *from, unsigned char *to) noexcept
        {
            ::new (static_cast<void *>(to)) D(std::move(*obj(from)));
            obj(from)->~D();
        }
        static void
        destroy(unsigned char *b) noexcept
        {
            obj(b)->~D();
        }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    template <typename D>
    struct ArenaOps
    {
        static D *
        ptr(unsigned char *b) noexcept
        {
            D *p;
            std::memcpy(&p, b, sizeof p);
            return p;
        }
        static R
        invoke(unsigned char *b, Args &&...args)
        {
            return (*ptr(b))(std::forward<Args>(args)...);
        }
        static void
        relocate(unsigned char *from, unsigned char *to) noexcept
        {
            std::memcpy(to, from, sizeof(D *));
        }
        static void
        destroy(unsigned char *b) noexcept
        {
            D *p = ptr(b);
            p->~D();
            ContArena::instance().deallocate(p, sizeof(D));
        }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    template <typename D>
    static constexpr bool fits_inline =
        sizeof(D) <= Inline && alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename F>
    using enable_target = std::enable_if_t<
        !std::is_same_v<std::decay_t<F>, SmallFn> &&
        !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
        std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>;

  public:
    SmallFn() noexcept = default;
    SmallFn(std::nullptr_t) noexcept {}

    template <typename F, typename = enable_target<F>>
    SmallFn(F &&f)
    {
        init<std::decay_t<F>>(std::forward<F>(f));
    }

    SmallFn(SmallFn &&o) noexcept : ops_(o.ops_)
    {
        if (ops_ != nullptr) {
            ops_->relocate(o.buf_, buf_);
            o.ops_ = nullptr;
        }
    }

    SmallFn &
    operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            ops_ = o.ops_;
            if (ops_ != nullptr) {
                ops_->relocate(o.buf_, buf_);
                o.ops_ = nullptr;
            }
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    SmallFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    template <typename F, typename = enable_target<F>>
    SmallFn &
    operator=(F &&f)
    {
        reset();
        init<std::decay_t<F>>(std::forward<F>(f));
        return *this;
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the target. Empty is a model bug (asserted), not a
     *  thrown bad_function_call. Const like std::function: the
     *  stored target is logically part of the continuation value
     *  and may be a mutable lambda. */
    R
    operator()(Args... args) const
    {
        assert(ops_ != nullptr && "invoking an empty continuation");
        return ops_->invoke(const_cast<unsigned char *>(buf_),
                            std::forward<Args>(args)...);
    }

  private:
    template <typename D, typename F>
    void
    init(F &&f)
    {
        if constexpr (fits_inline<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &InlineOps<D>::ops;
        } else {
            void *mem = ContArena::instance().allocate(sizeof(D));
            try {
                ::new (mem) D(std::forward<F>(f));
            } catch (...) {
                ContArena::instance().deallocate(mem, sizeof(D));
                throw;
            }
            D *p = static_cast<D *>(mem);
            std::memcpy(buf_, &p, sizeof p);
            ops_ = &ArenaOps<D>::ops;
        }
    }

    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[Inline];
    const Ops *ops_ = nullptr;
};

} // namespace cedar::sim

#endif // CEDAR_SIM_CONT_HH
