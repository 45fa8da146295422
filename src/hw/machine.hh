/**
 * @file
 * The assembled Cedar machine: event queue, global memory, network,
 * clusters of CEs, the Xylem OS model, and the measurement
 * facilities (cedarhpm trace + statfx).
 */

#ifndef CEDAR_HW_MACHINE_HH
#define CEDAR_HW_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hh"
#include "hpm/statfx.hh"
#include "hpm/trace.hh"
#include "hw/cluster.hh"
#include "hw/config.hh"
#include "mem/global_memory.hh"
#include "net/network.hh"
#include "obs/resource.hh"
#include "obs/tracer.hh"
#include "os/accounting.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace cedar::os
{
class Xylem;
}

namespace cedar::hw
{

/** A complete simulated Cedar configuration. */
class Machine
{
  public:
    /** @p seed seeds every random stream of the run: the machine's,
     *  Xylem's and the fault injector's. */
    explicit Machine(const CedarConfig &cfg, std::uint64_t seed = 1);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const CedarConfig &config() const { return cfg_; }
    const CostModel &costs() const { return cfg_.costs; }
    std::uint64_t seed() const { return seed_; }

    /** The machine's single global event queue. */
    sim::EventQueue &eq() { return eq_; }
    sim::RandomGen &rng() { return rng_; }
    mem::GlobalMemory &gmem() { return gmem_; }
    const mem::GlobalMemory &gmem() const { return gmem_; }
    net::Network &net() { return net_; }
    const net::Network &net() const { return net_; }
    os::Accounting &acct() { return acct_; }
    hpm::Trace &trace() { return trace_; }
    hpm::Statfx &statfx() { return statfx_; }
    os::Xylem &xylem() { return *xylem_; }
    const os::Xylem &xylem() const { return *xylem_; }
    fault::FaultLog &faultLog() { return flog_; }
    const fault::FaultLog &faultLog() const { return flog_; }

    /** The machine's observation point (see obs/tracer.hh). */
    obs::Tracer &tracer() { return tracer_; }

    /** Per-resource-class wait-latency histograms (obs layer). */
    const obs::WaitHistograms &waitHists() const
    {
        return tracer_.waitHists();
    }

    unsigned numClusters() const { return cfg_.nClusters; }
    unsigned numCes() const { return cfg_.numCes(); }

    Cluster &cluster(sim::ClusterId c) { return *clusters_.at(c); }
    const Cluster &cluster(sim::ClusterId c) const
    {
        return *clusters_.at(c);
    }
    Ce &ce(sim::CeId id);

    sim::Tick now() const { return eq_.now(); }

    /**
     * Allocate @p words of global memory (bump allocator), aligned
     * to the module-group size so vector chunks stay aligned.
     */
    sim::Addr allocGlobal(unsigned words);

    /**
     * Allocate a single synchronisation word. Consecutive
     * allocations land on different memory modules so unrelated
     * lock cells do not accidentally share a hot module.
     */
    sim::Addr allocSyncWord();

  private:
    /** Validation hook run before any member is constructed. */
    static const CedarConfig &validated(const CedarConfig &cfg);

    CedarConfig cfg_;
    std::uint64_t seed_;
    sim::EventQueue eq_;
    sim::RandomGen rng_;
    /** Before any producer (memory, network, CEs) is wired to it. */
    obs::Tracer tracer_;
    mem::GlobalMemory gmem_;
    net::Network net_;
    os::Accounting acct_;
    hpm::Trace trace_;
    std::vector<std::unique_ptr<Cluster>> clusters_;
    std::unique_ptr<os::Xylem> xylem_;
    hpm::Statfx statfx_;
    fault::FaultLog flog_;
    sim::Addr nextAddr_ = 0;
    sim::Addr nextSync_ = 0;
};

} // namespace cedar::hw

#endif // CEDAR_HW_MACHINE_HH
