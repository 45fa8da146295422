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
#include <unordered_map>
#include <vector>

#include "mem/address_map.hh"
#include "sim/fifo_server.hh"
#include "sim/types.hh"

namespace cedar::mem
{

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

    /** One module request reserved by serveWord. */
    struct WordServe
    {
        sim::Tick start; //!< service start (stuck floor included)
        sim::Tick done;  //!< completion tick
        bool dead;       //!< the module never serves: no reservation
    };

    /**
     * Reserve one request of @p base service ticks arriving at
     * module @p m at @p arrival, under the module's fault plan: the
     * module leg of the network's reservation chain
     * (net::reserveChain) for a faulted module, which reports the
     * serve. The chain serves an unfaulted module's server directly.
     */
    WordServe
    serveWord(unsigned m, sim::Tick arrival, sim::Tick base)
    {
        const ServiceEffect ef = faults_.empty()
                                     ? ServiceEffect{base, 0, false}
                                     : effect(m, arrival, base);
        if (ef.dead)
            return WordServe{0, sim::max_tick, true};
        const sim::Tick done =
            modules_[m].serve(arrival, ef.service, ef.notBefore);
        return WordServe{done - ef.service, done, false};
    }

    /**
     * Apply @p f to the word at @p addr without timing or module
     * service. The network's RMW calls it once the chain has served
     * the word, so values change in module service order; the
     * resilience layer's software fallback calls it for atomics whose
     * home module is dead, keeping synchronisation state consistent
     * for runs that complete in degraded mode.
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

    /** Mutable module access, for the network's fast-path replay. */
    sim::FifoServer &moduleServerMut(unsigned m) { return modules_[m]; }

    /**
     * Install a service fault on module @p m.
     *
     * @throws sim::ConfigError when @p m is out of range or the
     *         fault's window/factor is malformed.
     */
    void injectModuleFault(unsigned m, const ModuleFault &f);

    /** True when any module has an injected fault installed. The
     *  analytic fast path refuses to fire on a faulted memory — the
     *  slow path alone evaluates fault windows. */
    bool hasFaults() const { return !faults_.empty(); }

    /** True when module @p m has an injected fault installed: only
     *  its serves go through serveWord's fault windows. */
    bool
    faulted(unsigned m) const
    {
        return !faults_.empty() && !faults_[m].empty();
    }

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

    AddressMap map_;
    std::vector<sim::FifoServer> modules_;
    std::unordered_map<sim::Addr, std::uint64_t> words_;
    /** Injected faults, per module; empty unless faults are active. */
    std::vector<std::vector<ModuleFault>> faults_;
};

} // namespace cedar::mem

#endif // CEDAR_MEM_GLOBAL_MEMORY_HH
