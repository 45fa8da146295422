#include "hpm/statfx.hh"

#include <utility>

#include "sim/error.hh"

namespace cedar::hpm
{

Statfx::Statfx(sim::EventQueue &eq, unsigned n_clusters, sim::Tick period,
               ActiveFn active)
    : eq_(eq), period_(period), active_(std::move(active)),
      activeSum_(n_clusters, 0)
{
    // A zero period would reschedule sample() at the current tick
    // forever — a livelock the watchdog would kill mid-run.
    if (period_ == 0)
        throw sim::SimError("statfx: sampling period must be positive");
}

void
Statfx::start()
{
    if (running_)
        return; // idempotent: never chain a second sampling loop
    running_ = true;
    if (!pending_) {
        pending_ = true;
        eq_.scheduleIn(period_, [this] { sample(); });
    }
}

void
Statfx::sample()
{
    pending_ = false;
    if (!running_)
        return;
    for (sim::ClusterId c = 0;
         c < static_cast<sim::ClusterId>(activeSum_.size()); ++c)
        activeSum_[c] += active_(c);
    ++samples_;
    pending_ = true;
    eq_.scheduleIn(period_, [this] { sample(); });
}

double
Statfx::clusterConcurrency(sim::ClusterId c) const
{
    if (samples_ == 0)
        return 0.0;
    return static_cast<double>(activeSum_.at(c)) /
           static_cast<double>(samples_);
}

double
Statfx::machineConcurrency() const
{
    double total = 0.0;
    for (sim::ClusterId c = 0;
         c < static_cast<sim::ClusterId>(activeSum_.size()); ++c) {
        total += clusterConcurrency(c);
    }
    return total;
}

} // namespace cedar::hpm
