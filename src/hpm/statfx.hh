/**
 * @file
 * statfx: the software concurrency monitor.
 *
 * Samples the number of active CEs on each cluster at a fixed
 * period; the average over a run is the paper's "average
 * concurrency / processor utilisation". A CE busy-waiting counts as
 * active (it is executing the spin loop) while detached CEs of a
 * cluster are idle — which is exactly why, during serial code, the
 * concurrency is 1 per cluster.
 *
 * Like the real monitor, statfx polls: at each sample it asks a
 * callback for every cluster's active count (the machine passes
 * hw::Cluster::activeCount), so it costs nothing between samples.
 */

#ifndef CEDAR_HPM_STATFX_HH
#define CEDAR_HPM_STATFX_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace cedar::hpm
{

/** Periodic sampling concurrency monitor. */
class Statfx
{
  public:
    /** Active CEs on one cluster right now. */
    using ActiveFn = std::function<unsigned(sim::ClusterId)>;

    /**
     * @param eq event queue driving the samples.
     * @param n_clusters clusters to sample.
     * @param period sampling period in ticks.
     * @param active polled for every cluster at each sample.
     *
     * @throws sim::SimError when @p period is zero (a zero period
     *         would livelock the event queue at the current tick).
     */
    Statfx(sim::EventQueue &eq, unsigned n_clusters, sim::Tick period,
           ActiveFn active);

    Statfx(const Statfx &) = delete;
    Statfx &operator=(const Statfx &) = delete;

    /**
     * Begin sampling; keeps rescheduling itself until stop().
     * Idempotent: calling start() on a running (or restarted)
     * monitor never chains a duplicate sampling loop.
     */
    void start();

    /** Stop sampling (takes effect at the next sample point). */
    void stop() { running_ = false; }

    std::uint64_t samples() const { return samples_; }

    /** Mean active CEs on one cluster over the sampled window. */
    double clusterConcurrency(sim::ClusterId c) const;

    /** Sum of the per-cluster concurrency values (paper Table 1). */
    double machineConcurrency() const;

  private:
    void sample();

    sim::EventQueue &eq_;
    sim::Tick period_;
    ActiveFn active_;
    bool running_ = false;
    /** A sample() callback sits in the event queue right now. */
    bool pending_ = false;
    std::uint64_t samples_ = 0;
    std::vector<std::uint64_t> activeSum_;
};

} // namespace cedar::hpm

#endif // CEDAR_HPM_STATFX_HH
