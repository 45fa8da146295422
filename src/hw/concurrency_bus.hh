/**
 * @file
 * The per-cluster concurrency control bus.
 *
 * On Cedar/Alliant this bus distributes cdoall iterations and
 * synchronises the 8 CEs of one cluster within a few cycles, with
 * no global-network traffic. We model it as (a) a cheap dispatch
 * cost and (b) a gathering barrier whose waiters are accounted via
 * the CE wait protocol.
 */

#ifndef CEDAR_HW_CONCURRENCY_BUS_HH
#define CEDAR_HW_CONCURRENCY_BUS_HH

#include <utility>
#include <vector>

#include "hw/ce.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::obs
{
class Tracer;
}

namespace cedar::hw
{

/** Fast intra-cluster synchronisation hardware. */
class ConcurrencyBus
{
  public:
    ConcurrencyBus(sim::EventQueue &eq, const CostModel &costs)
        : eq_(eq), costs_(costs)
    {
    }

    /**
     * Open a synchronisation episode expecting @p n participants.
     * Must not be called while an episode is in flight.
     */
    void expect(unsigned n);

    /**
     * A CE arrives at the bus barrier. When all expected CEs have
     * arrived, every participant resumes after the bus sync cost;
     * waiting time is accounted to @p act on each waiting CE.
     */
    void arrive(Ce &ce, os::UserAct act, sim::Cont k);

    /** Dispatch cost of starting a cdoall over the bus. */
    sim::Tick dispatchCost() const { return costs_.cdoall_dispatch; }

    /** Attach the telemetry tracer (barrier skew as waits). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** Barrier statistics: one request per arrival, wait = skew at
     *  the barrier, service = the bus sync cost. */
    const sim::ServerStats &stats() const { return stats_; }

  private:
    struct Waiter
    {
        Ce *ce;
        os::UserAct act;
        sim::Cont k;
        sim::Tick arrival;
    };

    sim::EventQueue &eq_;
    const CostModel &costs_;
    obs::Tracer *tracer_ = nullptr;
    sim::ServerStats stats_;
    unsigned expected_ = 0;
    std::vector<Waiter> waiters_;
};

} // namespace cedar::hw

#endif // CEDAR_HW_CONCURRENCY_BUS_HH
