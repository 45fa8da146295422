/**
 * @file
 * The Cedar shared global memory: interleaved independent modules,
 * each a FIFO server taking 4 processor cycles per double-word
 * request (8 for an atomic read-modify-write such as test&set).
 *
 * The memory also keeps the *values* of synchronisation words (lock
 * cells, iteration indices, barrier counters) so the runtime
 * library's atomics are serialised exactly in module service order.
 */

#ifndef CEDAR_MEM_GLOBAL_MEMORY_HH
#define CEDAR_MEM_GLOBAL_MEMORY_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mem/address_map.hh"
#include "sim/fifo_server.hh"
#include "sim/types.hh"

namespace cedar::obs
{
class Tracer;
}

namespace cedar::mem
{

/** Timing/occupancy result of a memory-side chunk access. */
struct MemAccessResult
{
    sim::Tick complete; //!< when the last touched module finished
    sim::Tick wait;     //!< total queueing ticks across modules
};

/**
 * An injected service fault on one memory module, active for
 * arrivals in [from, until).
 *
 * factor >= 2 degrades service by that multiplier. factor == 0 means
 * the module is stuck: arrivals wait until the window closes before
 * being served, and when the window never closes (until ==
 * sim::max_tick) the access never completes — its completion tick is
 * the sim::max_tick sentinel and the request is not served at all.
 */
struct ModuleFault
{
    sim::Tick from = 0;
    sim::Tick until = sim::max_tick;
    unsigned factor = 0; //!< 0 = stuck; >= 2 = service multiplier
};

/**
 * The global memory: AddressMap geometry plus one FifoServer per
 * module and a sparse value store for synchronisation words.
 */
class GlobalMemory
{
  public:
    /** Service time per double-word request, in cycles (paper: 4). */
    static constexpr sim::Tick word_service = 4;
    /** Service time for an atomic read-modify-write. */
    static constexpr sim::Tick rmw_service = 8;

    explicit GlobalMemory(const AddressMap &map) : map_(map)
    {
        modules_.resize(map.numModules());
    }

    const AddressMap &map() const { return map_; }

    /** Attach the telemetry tracer (module waits, flow milestones). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** One module request reserved by serveWord. */
    struct WordServe
    {
        sim::Tick freeBefore; //!< the module's horizon before it
        sim::Tick start;      //!< service start (stuck floor included)
        sim::Tick done;       //!< completion tick
        bool dead;            //!< the module never serves: no reservation
    };

    /**
     * Reserve one request of @p base service ticks arriving at
     * module @p m at @p arrival, under the module's fault plan. The
     * one module serve every access path shares: accessChunk, rmw
     * and the network's reservation chain (net::reserveAccess).
     * Publishes nothing (see noteServe).
     */
    WordServe
    serveWord(unsigned m, sim::Tick arrival, sim::Tick base)
    {
        const ServiceEffect ef = faults_.empty()
                                     ? ServiceEffect{base, 0, false}
                                     : effect(m, arrival, base);
        if (ef.dead)
            return WordServe{0, 0, sim::max_tick, true};
        sim::FifoServer &srv = modules_[m];
        const sim::Tick before = srv.freeAt();
        const sim::Tick done =
            srv.serve(arrival, ef.service, ef.notBefore);
        return WordServe{before, done - ef.service, done, false};
    }

    /** Publish one served request's queueing wait and flow milestone
     *  through the attached tracer (a no-op without one). */
    void noteServe(unsigned m, sim::Tick arrival, sim::Tick start,
                   sim::Tick done, std::uint32_t flow) const;

    /**
     * Access a chunk (all words within one module group): each
     * touched module serves one word. A non-zero @p flow tags the
     * module milestones in the telemetry stream.
     */
    MemAccessResult accessChunk(sim::Tick arrival, const Chunk &chunk,
                                std::uint32_t flow = 0);

    /**
     * Atomically apply @p f to the word at @p addr, serialised in
     * module order.
     *
     * @return access timing plus the *previous* value of the word.
     */
    MemAccessResult
    rmw(sim::Tick arrival, sim::Addr addr, const sim::RmwFn &f,
        std::uint64_t *old_out = nullptr, std::uint32_t flow = 0);

    /**
     * Apply @p f to the word at @p addr without timing or module
     * service: the resilience layer's software fallback for atomics
     * whose home module is dead. Keeps synchronisation state
     * consistent for runs that complete in degraded mode.
     *
     * @return the previous value of the word.
     */
    std::uint64_t
    forceRmw(sim::Addr addr, const sim::RmwFn &f)
    {
        std::uint64_t &cell = words_[addr];
        const std::uint64_t old = cell;
        cell = f(cell);
        return old;
    }

    /** Non-atomic read of a word's current value (timing separate). */
    std::uint64_t peek(sim::Addr addr) const;

    /** Non-timed store, for initialisation. */
    void poke(sim::Addr addr, std::uint64_t value) { words_[addr] = value; }

    /** Per-module queueing statistics. */
    const sim::FifoServer &moduleServer(unsigned m) const
    {
        return modules_[m];
    }

    /** Mutable module access, for wiring observability hooks. */
    sim::FifoServer &moduleServerMut(unsigned m) { return modules_[m]; }

    /**
     * Install a service fault on module @p m.
     *
     * @throws sim::ConfigError when @p m is out of range or the
     *         fault's window/factor is malformed.
     */
    void injectModuleFault(unsigned m, const ModuleFault &f);

    /** True when module @p m never serves arrivals at @p at. */
    bool moduleDead(unsigned m, sim::Tick at) const;

    /** True when any module has an injected fault installed. The
     *  analytic fast path refuses to fire on a faulted memory — the
     *  slow path alone evaluates fault windows. */
    bool hasFaults() const { return !faults_.empty(); }

    /** The tracer this memory publishes through (fast-path gate). */
    const obs::Tracer *tracerPtr() const { return tracer_; }

    /** Sum of queueing wait across all modules. */
    sim::Tick totalWaitTicks() const;

    /** Sum of busy (service) ticks across all modules. */
    sim::Tick totalBusyTicks() const;

    void reset();

  private:
    /** Fault-adjusted service parameters for one arrival. */
    struct ServiceEffect
    {
        sim::Tick service;    //!< effective service time
        sim::Tick notBefore;  //!< earliest service start (stuck window)
        bool dead;            //!< module never serves this arrival
    };

    ServiceEffect effect(unsigned m, sim::Tick arrival,
                         sim::Tick base) const;

    obs::Tracer *tracer_ = nullptr;
    AddressMap map_;
    std::vector<sim::FifoServer> modules_;
    std::unordered_map<sim::Addr, std::uint64_t> words_;
    /** Injected faults, per module; empty unless faults are active. */
    std::vector<std::vector<ModuleFault>> faults_;
};

} // namespace cedar::mem

#endif // CEDAR_MEM_GLOBAL_MEMORY_HH
