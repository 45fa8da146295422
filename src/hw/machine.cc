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

Machine::Machine(const CedarConfig &cfg, std::uint64_t seed)
    : cfg_(validated(cfg)), seed_(seed), rng_(seed),
      gmem_(mem::AddressMap(cfg.nModules, cfg.groupSize)),
      net_(cfg.nClusters, cfg.cesPerCluster, gmem_),
      acct_(cfg.nClusters, cfg.cesPerCluster),
      statfx_(eq_, cfg.nClusters, cfg.costs.statfx_period,
              [this](sim::ClusterId c) { return cluster(c).activeCount(); })
{
    for (unsigned c = 0; c < cfg.nClusters; ++c) {
        clusters_.push_back(std::make_unique<Cluster>(
            eq_, net_, acct_, trace_, cfg_.costs,
            static_cast<sim::ClusterId>(c), cfg.cesPerCluster));
        auto &cl = *clusters_.back();
        cl.bus().setTracer(&tracer_);
        for (unsigned p = 0; p < cfg.cesPerCluster; ++p) {
            cl.ce(static_cast<int>(p)).setFaultLog(&flog_);
            cl.ce(static_cast<int>(p)).setTracer(&tracer_);
        }
    }
    xylem_ = std::make_unique<os::Xylem>(*this);
    net_.setTracer(&tracer_);
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
