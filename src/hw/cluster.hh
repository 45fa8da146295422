/**
 * @file
 * One Cedar cluster: a modified Alliant FX/8 with up to 8 CEs, a
 * concurrency control bus, local memory and a shared data cache.
 * Local memory and cache behaviour are folded into compute time
 * (the paper explicitly excludes cache-miss and cdoall-sync
 * overheads from its characterisation).
 */

#ifndef CEDAR_HW_CLUSTER_HH
#define CEDAR_HW_CLUSTER_HH

#include <memory>
#include <vector>

#include "hw/ce.hh"
#include "hw/concurrency_bus.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace cedar::hw
{

/** A cluster of CEs sharing a concurrency bus. */
class Cluster
{
  public:
    Cluster(sim::EventQueue &eq, net::Network &net,
            os::Accounting &acct, hpm::Trace &trace,
            const CostModel &costs, sim::ClusterId id, unsigned n_ces);

    sim::ClusterId id() const { return id_; }
    unsigned numCes() const { return static_cast<unsigned>(ces_.size()); }

    Ce &ce(int local) { return *ces_.at(local); }
    const Ce &ce(int local) const { return *ces_.at(local); }

    /** The cluster's lead CE (index 0): runs serial/spin work. */
    Ce &lead() { return *ces_.front(); }

    ConcurrencyBus &bus() { return bus_; }
    const ConcurrencyBus &bus() const { return bus_; }

    /** Number of active CEs right now (statfx's view). */
    unsigned activeCount() const;

  private:
    sim::ClusterId id_;
    std::vector<std::unique_ptr<Ce>> ces_;
    ConcurrencyBus bus_;
};

} // namespace cedar::hw

#endif // CEDAR_HW_CLUSTER_HH
