#include "hw/machine.hh"

#include <cassert>

#include "os/xylem.hh"

namespace cedar::hw
{

const CedarConfig &
Machine::validated(const CedarConfig &cfg)
{
    cfg.validate();
    return cfg;
}

Machine::Machine(const CedarConfig &cfg)
    : cfg_(validated(cfg)), rng_(cfg.seed),
      hub_(bus_), tracer_(bus_),
      gmem_(mem::AddressMap(cfg.nModules, cfg.groupSize)),
      net_(cfg.nClusters, cfg.cesPerCluster, gmem_),
      acct_(cfg.nClusters, cfg.cesPerCluster),
      statfx_(eq_, bus_, cfg.nClusters, cfg.costs.statfx_period)
{
    for (unsigned c = 0; c < cfg.nClusters; ++c) {
        clusters_.push_back(std::make_unique<Cluster>(
            eq_, net_, acct_, trace_, cfg_.costs,
            static_cast<sim::ClusterId>(c), cfg.cesPerCluster));
        auto &cl = *clusters_.back();
        cl.bus().setTracer(&tracer_, static_cast<int>(c));
        for (unsigned p = 0; p < cfg.cesPerCluster; ++p) {
            cl.ce(static_cast<int>(p)).setFaultLog(&flog_);
            cl.ce(static_cast<int>(p)).setTracer(&tracer_);
        }
    }
    xylem_ = std::make_unique<os::Xylem>(*this);

    // Every queueing wait in the machine reaches the MetricsHub (and
    // any other subscriber) through the tracer. The network also
    // learns which hub that is, so its analytic fast path can prove
    // "sole resource_wait subscriber" and deliver waits in batch.
    net_.setTracer(&tracer_);
    gmem_.setTracer(&tracer_);
    net_.setMetricsHub(&hub_);
    tracer_.setMetricsHub(&hub_);
}

Machine::~Machine() = default;

Ce &
Machine::ce(sim::CeId id)
{
    const auto per = static_cast<int>(cfg_.cesPerCluster);
    return cluster(id / per).ce(id % per);
}

sim::Addr
Machine::allocGlobal(unsigned words)
{
    const sim::Addr align = cfg_.groupSize;
    nextAddr_ = (nextAddr_ + align - 1) / align * align;
    const sim::Addr base = nextAddr_;
    nextAddr_ += words;
    return base;
}

sim::Addr
Machine::allocSyncWord()
{
    // Sync words live in a region far above data; stride one word
    // so consecutive cells land on consecutive (distinct) modules.
    constexpr sim::Addr sync_base = sim::Addr(1) << 40;
    return sync_base + nextSync_++;
}

} // namespace cedar::hw
