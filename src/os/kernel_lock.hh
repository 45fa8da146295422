/**
 * @file
 * Kernel memory locks protecting critical sections.
 *
 * Xylem protects cluster resources with cluster-memory locks and
 * machine-wide resources with global-memory locks. A CE entering a
 * critical section spins until the lock frees (kernel-lock spin
 * time, the paper's "spin" category — measured to be < 1 % of
 * completion time) and then holds the lock for the section body.
 *
 * The lock only *reserves* timing; the caller decides how the spin
 * and hold are accounted (synchronously on the CE's program, or as
 * an asynchronous overlay charge from a daemon).
 */

#ifndef CEDAR_OS_KERNEL_LOCK_HH
#define CEDAR_OS_KERNEL_LOCK_HH

#include "obs/tracer.hh"
#include "sim/fifo_server.hh"
#include "sim/types.hh"

namespace cedar::os
{

/** Timing of one critical-section entry. */
struct SectionTiming
{
    sim::Tick spin; //!< ticks spent spinning before lock acquisition
    sim::Tick exit; //!< absolute tick at which the section is left
};

/** A reservation-modelled kernel spin lock. */
class KernelLock
{
  public:
    /** Attach the telemetry tracer (queueing waits). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** Reserve the section: spin until free, hold for @p hold. */
    SectionTiming
    reserve(sim::Tick now, sim::Tick hold)
    {
        if (tracer_) {
            const sim::Tick free_at = server_.freeAt();
            tracer_->resourceWait(obs::ResourceClass::kernel_lock,
                                  free_at > now ? free_at - now : 0);
        }
        const sim::Tick exit = server_.serve(now, hold);
        return SectionTiming{exit - hold - now, exit};
    }

    const sim::ServerStats &stats() const { return server_.stats(); }

  private:
    sim::FifoServer server_;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace cedar::os

#endif // CEDAR_OS_KERNEL_LOCK_HH
