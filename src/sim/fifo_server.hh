/**
 * @file
 * Reservation-based FIFO server.
 *
 * The network and memory models are built from single-resource FIFO
 * servers (crossbar output ports, switch input ports, memory
 * modules). A request arriving at tick A needing S ticks of service
 * starts at max(A, free_at) and completes at start + S. Because the
 * whole path of a transfer can be reserved at issue time, no per-hop
 * events are needed; contention emerges from the reservations.
 */

#ifndef CEDAR_SIM_FIFO_SERVER_HH
#define CEDAR_SIM_FIFO_SERVER_HH

#include <algorithm>

#include "sim/error.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cedar::sim
{

/** A single-resource FIFO queueing server. */
class FifoServer
{
  public:
    /**
     * Reserve @p service ticks starting no earlier than @p arrival.
     *
     * @return completion tick of this request.
     * @throws SimError when start + service would overflow Tick.
     */
    Tick
    serve(Tick arrival, Tick service)
    {
        return serve(arrival, service, 0);
    }

    /**
     * Reserve @p service ticks starting no earlier than both
     * @p arrival and @p not_before. The gap waiting on @p not_before
     * counts as queueing (the requester experiences it as such);
     * used by fault-degraded modules whose service floor postpones
     * work past a stuck window.
     *
     * @throws SimError when start + service would overflow Tick —
     *         fault-injected not_before windows can push the start
     *         near the tick ceiling (mirrors EventQueue::scheduleIn).
     */
    Tick
    serve(Tick arrival, Tick service, Tick not_before)
    {
        const Tick start =
            std::max(std::max(arrival, not_before), freeAt_);
        if (service > max_tick - start)
            throw SimError(
                "fifo server: tick overflow (start + service wraps)");
        const Tick wait = start - arrival;
        stats_.record(wait, service);
        freeAt_ = start + service;
        return freeAt_;
    }

    /** Next tick at which the server is free. */
    Tick freeAt() const { return freeAt_; }

    /**
     * Replay @p n reservations whose outcome was computed
     * analytically: bump the statistics by the precomputed sums and
     * move the free horizon to @p new_free_at. Only valid when the
     * sums were produced by the exact serve() sequence being skipped
     * (see net::BurstPatternCache) — the server state afterwards is
     * bit-identical to having executed it.
     */
    void
    applyBatch(std::uint64_t n, Tick wait_sum, Tick busy_sum,
               Tick new_free_at)
    {
        stats_.recordBulk(n, wait_sum, busy_sum);
        freeAt_ = new_free_at;
    }

    /** Cumulative queueing/busy statistics. */
    const ServerStats &stats() const { return stats_; }

    void
    reset()
    {
        freeAt_ = 0;
        stats_.reset();
    }

  private:
    Tick freeAt_ = 0;
    ServerStats stats_;
};

} // namespace cedar::sim

#endif // CEDAR_SIM_FIFO_SERVER_HH
