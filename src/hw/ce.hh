/**
 * @file
 * Computational element (CE) model.
 *
 * A CE executes a continuation-passing program: each primitive
 * (compute burst, global-memory access, atomic RMW, kernel work)
 * accounts its duration, occupies the CE, and invokes the supplied
 * continuation through the event queue when it completes. A CE has
 * at most one outstanding primitive; program order is the chain of
 * continuations.
 *
 * Interrupt overlay: the OS can charge interrupt/system time onto a
 * CE at any moment (cross-processor interrupts, context switches).
 * If the CE is busy, the charge elongates the current primitive; if
 * it is spin-waiting, the charge overlaps the wait (and is deducted
 * from the wait's accounting so no tick is counted twice); if it is
 * idle, the charge simply eats into idle time.
 */

#ifndef CEDAR_HW_CE_HH
#define CEDAR_HW_CE_HH

#include <cstdint>

#include "hw/config.hh"
#include "net/network.hh"
#include "os/accounting.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace cedar::hpm
{
class Trace;
}

namespace cedar::fault
{
class FaultLog;
enum class FaultKind;
}

namespace cedar::obs
{
class Tracer;
}

namespace cedar::hw
{

/** One pipelined vector processor of a cluster. */
class Ce
{
  public:
    using RmwFn = sim::RmwFn;
    using ValCont = sim::ValCont;

    Ce(sim::EventQueue &eq, net::Network &net, os::Accounting &acct,
       hpm::Trace &trace, const CostModel &costs, sim::CeId id,
       sim::ClusterId cluster, int local_index);

    Ce(const Ce &) = delete;
    Ce &operator=(const Ce &) = delete;

    sim::CeId id() const { return id_; }
    sim::ClusterId cluster() const { return cluster_; }
    int localIndex() const { return local_; }
    sim::Tick now() const { return eq_.now(); }

    /** True when the CE is doing or awaiting work (statfx sense). */
    bool
    active() const
    {
        return !parked_ && (busy_ || (waiting_ && !passiveWait_));
    }

    /** Mark the CE detached/idle (counts as inactive for statfx). */
    void markIdle();

    // ----- global-memory resilience -----

    /**
     * True when a global access hit a dead memory module with no
     * timeout configured: the CE is stuck forever, as the stock
     * hardware would be. The runtime reports this as a deadlock.
     */
    bool parked() const { return parked_; }

    /** Accesses completed through the degraded fallback path. */
    std::uint64_t degradedAccesses() const { return degradedAccesses_; }

    /** Attach the fault log recording this CE's resilience events. */
    void setFaultLog(fault::FaultLog *log) { flog_ = log; }

    /** Attach the telemetry tracer (spans, flows, activity edges). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    // ----- program-order primitives -----

    /** Execute @p n cycles of user computation. */
    void compute(sim::Tick n, os::UserAct act, sim::Cont k);

    /**
     * Stream @p words consecutive double-words to/from global
     * memory starting at @p addr (reads and writes time alike).
     * The CE stalls until the last response returns; the stall is
     * user time in @p act, as on the real machine.
     */
    void globalAccess(sim::Addr addr, unsigned words, os::UserAct act,
                      sim::Cont k);

    /**
     * Vector-prefetched execution: stream @p words from @p addr
     * while computing @p n cycles; the CE is busy until whichever
     * finishes last. Hides memory latency behind computation (the
     * prefetch mode studied for Cedar in Kuck et al.), without
     * adding bandwidth.
     */
    void computeWithPrefetch(sim::Tick n, sim::Addr addr, unsigned words,
                             os::UserAct act, sim::Cont k);

    /** Atomic read-modify-write of one global word. */
    void globalRmw(sim::Addr addr, RmwFn f, os::UserAct act, ValCont k);

    /** Kernel-mode computation on this CE (system/interrupt time). */
    void osCompute(sim::Tick n, os::TimeCat cat, os::OsAct act,
                   sim::Cont k);

    /**
     * Occupy the CE until absolute tick @p t without accounting
     * (the caller has already attributed the time), then continue.
     */
    void occupyUntil(sim::Tick t, sim::Cont k);

    // ----- wait protocol (spins / barriers / bus syncs) -----

    /**
     * Begin an accounted wait. A software spin (helper wait, loop
     * barrier) keeps the CE active in the statfx sense — it is
     * executing a poll loop. A @p passive wait (concurrency-bus
     * hardware sync) does not.
     */
    void beginWait(bool passive = false);

    /**
     * End the wait started by beginWait().
     *
     * @return wall duration minus any interrupt time charged onto
     *         this CE during the wait (so the caller's accounting
     *         plus the interrupt accounting conserves time).
     */
    sim::Tick endWait();

    /** End the wait and account it as user time in @p act. */
    sim::Tick endWaitUser(os::UserAct act);

    bool waiting() const { return waiting_; }

    // ----- interrupt overlay -----

    /** Charge @p n ticks of OS time onto this CE right now. */
    void chargeInterrupt(sim::Tick n, os::TimeCat cat, os::OsAct act);

    /** Charge @p n ticks of kernel-lock spin onto this CE now. */
    void chargeKernelSpin(sim::Tick n);

    // ----- observed traffic statistics -----

    /** Double-words moved through the global network by this CE. */
    std::uint64_t globalWords() const { return globalWords_; }

    /** Global accesses issued (bursts + RMWs). */
    std::uint64_t globalAccesses() const { return globalAccesses_; }

    /**
     * Stall ticks beyond the zero-contention latency of this CE's
     * own accesses: the ground-truth queueing its traffic saw.
     */
    sim::Tick queueingStall() const { return queueingStall_; }

    hpm::Trace &trace() { return trace_; }

  private:
    /** Count a global access of @p words and open its telemetry
     *  flow; returns the flow id (0 = unwatched). */
    std::uint32_t beginAccess(unsigned words);

    /**
     * Book a global access issued at @p start that the network
     * answered with @p res, overlapped with @p n cycles of
     * computation (0 for a plain access or an RMW): the queueing
     * stall beyond max(n, unloaded latency), the user ledger and
     * span over the CE's busy time, and the end of @p flow.
     *
     * @return the tick at which the CE is free again.
     */
    sim::Tick bookAccess(sim::Tick start, sim::Tick n,
                         const net::XferResult &res, std::uint32_t flow,
                         os::UserAct act);

    /**
     * Occupy the CE until @p completion, then invoke @p k. The
     * continuation parks in the CE's own pending slot (legal because
     * a CE has at most one outstanding primitive) so the scheduled
     * completion event captures only `this` — the per-event
     * continuation hand-off costs no allocation regardless of how
     * big @p k's capture is.
     */
    void finishOp(sim::Tick completion, sim::Cont k);

    /** finishOp for value-carrying completions: invoke k(v). */
    void finishOpVal(sim::Tick completion, ValCont k, std::uint64_t v);

    void opDone();

    // ----- dead-module handling (see docs/FAULTS.md) -----

    void issuePrefetch(sim::Tick n, sim::Addr addr, unsigned words,
                       os::UserAct act, unsigned attempt, sim::Cont k);
    void issueRmw(sim::Addr addr, RmwFn f, os::UserAct act,
                  unsigned attempt, ValCont k);

    /**
     * React to an access whose completion came back as the
     * sim::max_tick sentinel (dead module): end its @p flow, then
     * park forever when no timeout is configured, otherwise wait out
     * the timeout plus exponential backoff and call @p retry with the
     * next attempt number — or @p fallback once retries are
     * exhausted.
     */
    void faultedAccess(sim::Addr addr, os::UserAct act, unsigned attempt,
                       std::uint32_t flow,
                       sim::SmallFn<void(unsigned)> retry,
                       sim::Cont fallback);

    void recordFault(fault::FaultKind kind, std::uint64_t arg);

    sim::EventQueue &eq_;
    net::Network &net_;
    os::Accounting &acct_;
    hpm::Trace &trace_;
    const CostModel &costs_;

    sim::CeId id_;
    sim::ClusterId cluster_;
    int local_;

    bool busy_ = false;
    bool waiting_ = false;
    bool passiveWait_ = false;
    bool parked_ = false;       //!< stuck forever on a dead module
    sim::Tick penalty_ = 0;     //!< interrupt time to append to the op
    sim::Tick waitStart_ = 0;
    sim::Tick waitOverlap_ = 0; //!< interrupt time overlapped by a wait

    std::uint64_t globalWords_ = 0;
    std::uint64_t globalAccesses_ = 0;
    sim::Tick queueingStall_ = 0;

    // Pending-completion slots: the continuation of the (single)
    // outstanding primitive, parked here so completion events are
    // plain [this] captures. Exactly one of pendingK_/pendingVal_ is
    // non-empty while busy_.
    sim::Cont pendingK_;
    ValCont pendingVal_;
    std::uint64_t pendingValArg_ = 0;

    fault::FaultLog *flog_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    std::uint64_t degradedAccesses_ = 0;
};

} // namespace cedar::hw

#endif // CEDAR_HW_CE_HH
