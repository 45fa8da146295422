#include "net/network.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/tracer.hh"
#include "sim/error.hh"

namespace cedar::net
{

namespace
{

/** Reject an issuing cluster or CE port the network does not have,
 *  before either indexes a server or the fast path's per-CE cache. */
void
checkIssuer(sim::ClusterId cluster, int ce_port, unsigned n_clusters,
            unsigned ces_per_cluster)
{
    if (cluster < 0 || static_cast<unsigned>(cluster) >= n_clusters)
        throw sim::SimError("network: cluster " +
                            std::to_string(cluster) +
                            " out of range (network has " +
                            std::to_string(n_clusters) + ")");
    if (ce_port < 0 || static_cast<unsigned>(ce_port) >= ces_per_cluster)
        throw sim::SimError("network: CE port " + std::to_string(ce_port) +
                            " out of range (a cluster has " +
                            std::to_string(ces_per_cluster) + ")");
}

obs::ResourceClass
classOfBank(FastBank bank)
{
    switch (bank) {
    case FastBank::stage1:
        return obs::ResourceClass::stage1_port;
    case FastBank::stage2:
        return obs::ResourceClass::stage2_port;
    case FastBank::returnA:
        return obs::ResourceClass::return_a_port;
    case FastBank::returnB:
        return obs::ResourceClass::return_b_port;
    case FastBank::module:
    default:
        return obs::ResourceClass::memory_module;
    }
}

/** The flow milestone a bank's serve stands for (returnA has none:
 *  the return path clears at returnB). */
obs::FlowStage
flowStageOf(FastBank bank)
{
    switch (bank) {
    case FastBank::stage1:
        return obs::FlowStage::stage1;
    case FastBank::stage2:
        return obs::FlowStage::stage2;
    case FastBank::module:
        return obs::FlowStage::module;
    default:
        return obs::FlowStage::ret;
    }
}

} // namespace

Network::Network(unsigned n_clusters, unsigned ces_per_cluster,
                 mem::GlobalMemory &gmem)
    : nClusters_(n_clusters), cesPerCluster_(ces_per_cluster),
      gmem_(gmem), cache_(gmem.map())
{
    if (n_clusters == 0 || ces_per_cluster == 0)
        throw sim::ConfigError(
            "network: needs at least one cluster and one CE per "
            "cluster");
    const unsigned groups = gmem.map().numGroups();
    for (unsigned c = 0; c < n_clusters; ++c) {
        stage1_.emplace_back("stage1.cluster" + std::to_string(c), groups);
        returnB_.emplace_back("returnB.cluster" + std::to_string(c),
                              ces_per_cluster);
    }
    for (unsigned g = 0; g < groups; ++g) {
        stage2In_.emplace_back("stage2.group" + std::to_string(g),
                               n_clusters);
        returnA_.emplace_back("returnA.group" + std::to_string(g),
                              n_clusters);
    }
}

std::int32_t
Network::flowResource(FastBank bank, unsigned idx, sim::ClusterId cluster,
                      int ce_port) const
{
    const auto c = static_cast<unsigned>(cluster);
    switch (bank) {
    case FastBank::stage1:
        return static_cast<std::int32_t>(
            c * static_cast<unsigned>(stage2In_.size()) + idx);
    case FastBank::stage2:
    case FastBank::returnA:
        return static_cast<std::int32_t>(idx * nClusters_ + c);
    case FastBank::returnB:
        return static_cast<std::int32_t>(
            c * cesPerCluster_ + static_cast<unsigned>(ce_port));
    case FastBank::module:
    default:
        return static_cast<std::int32_t>(idx);
    }
}

/**
 * The one reserveAccess policy over the live servers of the issuing
 * CE. Every serve hands its queueing wait to the tracer and, for a
 * watched access (flow != 0), its flow milestone. When a fast-path
 * miss earned a recording (@p rec), each serve also adds its wait to
 * its server's sum and its bank's tally, and moves the server's
 * horizon: serve counts and service ticks are the shape's
 * (ShapeInfo::requests, busy), so nothing else varies between two
 * runs of one shape.
 */
struct Network::Live
{
    Network &net;
    sim::ClusterId cluster;
    int cePort;
    sim::Tick start;
    std::uint32_t flow = 0;
    const ShapeInfo *rec = nullptr; //!< record the run for this shape

    sim::FifoServer &
    server(FastBank bank, unsigned idx)
    {
        return net.fastServer(bank, idx, cluster, cePort);
    }

    mem::GlobalMemory &memory() { return net.gmem_; }

    void
    served(FastBank bank, unsigned idx, sim::Tick arrival, sim::Tick s,
           sim::Tick done)
    {
        const obs::ResourceClass cls = classOfBank(bank);
        const sim::Tick wait = s - arrival;
        if (obs::Tracer *t = net.tracer_) {
            t->resourceWait(cls, wait);
            if (flow != 0 && bank != FastBank::returnA)
                t->flowStage(flow, flowStageOf(bank), done,
                             net.flowResource(bank, idx, cluster, cePort),
                             done - s);
        }
        if (rec == nullptr)
            return;
        net.waitCounts_[static_cast<unsigned>(bank)].add(wait);
        const std::size_t j =
            rec->bankBegin[static_cast<unsigned>(bank)] +
            (bank == FastBank::module    ? rec->moduleRank[idx]
             : bank == FastBank::returnB ? 0
                                         : rec->groupRank[idx]);
        PatternServer &e = net.recScratch_[j];
        e.waitSum += wait;
        // Every touched server serves at an arrival past start, so
        // its horizon sits beyond it.
        e.freeAt = done - start;
    }
};

XferResult
Network::burst(sim::Tick start, sim::ClusterId cluster, int ce_port,
               sim::Addr addr, unsigned words, std::uint32_t flow)
{
    checkIssuer(cluster, ce_port, nClusters_, cesPerCluster_);
    if (words == 0)
        throw sim::SimError("network: a burst needs at least one word");
    ShapeInfo &sh = cache_.shape(gmem_.map().module(addr), words);
    const Reservation r =
        reserveBurst(sh, start, cluster, ce_port, addr, flow);
    return XferResult{r.complete, sh.unloaded};
}

XferResult
Network::rmw(sim::Tick when, sim::ClusterId cluster, int ce_port,
             sim::Addr addr, const sim::RmwFn &f, std::uint32_t flow)
{
    checkIssuer(cluster, ce_port, nClusters_, cesPerCluster_);
    Live live{*this, cluster, ce_port, when, flow};
    const Reservation r = reserveAccess(live, when, addr, 1,
                                        mem::GlobalMemory::rmw_service);
    // The value mutation the module serve stands for, in the same
    // (synchronous) serialisation order. A dead module never answers
    // and mutates nothing, so an abandoned RMW cannot double-apply.
    return XferResult{r.complete, rmw_unloaded,
                      r.dead ? ~0ULL : gmem_.forceRmw(addr, f)};
}

Reservation
Network::reserveBurst(ShapeInfo &sh, sim::Tick start, sim::ClusterId cluster,
                      int ce_port, sim::Addr addr, std::uint32_t flow)
{
    Live live{*this, cluster, ce_port, start, flow};
    Reservation r;
    ShapeInfo *record = nullptr;
    // The replay is only legal when the toggle is on, nobody watches
    // individual flow milestones (a flow id means the timeline expects
    // per-stage records), and no fault plan touches the memory (fault
    // windows break the translation invariance).
    if (fastPath_ && flow == 0 && !gmem_.hasFaults()) {
        if (fastReplay(sh, start, cluster, ce_port, r, record)) {
            ++fastStats_.fastBursts;
            return r;
        }
        if (record != nullptr) {
            for (WaitCounts &c : waitCounts_)
                c.clear();
            recScratch_.assign(record->servers.size(), PatternServer{0, 0});
            live.rec = record;
        }
    }
    ++fastStats_.slowBursts;
    r = reserveAccess(live, start, addr, sh.words,
                      mem::GlobalMemory::word_service);
    // Second sighting: file the recorded run. Skip only the
    // degenerate saturated case, where "complete - start" is no
    // longer translation invariant.
    if (record != nullptr && r.complete != sim::max_tick)
        cache_.learn(*record, keyScratch_.data(), r.complete - start,
                     recScratch_, waitCounts_);
    return r;
}

sim::FifoServer &
Network::fastServer(FastBank bank, std::uint32_t idx,
                    sim::ClusterId cluster, int ce_port)
{
    switch (bank) {
    case FastBank::stage1:
        return stage1_[cluster].port(idx);
    case FastBank::stage2:
        return stage2In_[idx].port(cluster);
    case FastBank::returnA:
        return returnA_[idx].port(cluster);
    case FastBank::returnB:
        return returnB_[cluster].port(ce_port);
    case FastBank::module:
    default:
        return gmem_.moduleServerMut(idx);
    }
}

bool
Network::fastReplay(ShapeInfo &sh, sim::Tick start, sim::ClusterId cluster,
                    int ce_port, Reservation &r, ShapeInfo *&record)
{
    // The shape's servers for this CE, resolved on its first use
    // (checkIssuer() bounded both, so the index names one CE).
    if (sh.resolved.empty())
        sh.resolved.resize(static_cast<std::size_t>(nClusters_) *
                           cesPerCluster_);
    auto &srvs = sh.resolved[static_cast<std::size_t>(cluster) *
                                 cesPerCluster_ +
                             static_cast<unsigned>(ce_port)];
    if (srvs.empty())
        for (const ServerRef &ref : sh.servers)
            srvs.push_back(&fastServer(ref.bank, ref.idx, cluster, ce_port));
    const std::size_t n = srvs.size();

    // The key: every touched server's free horizon relative to start,
    // an offset at or below the server's idle first arrival zeroed
    // (it can never delay a serve: canonicalization, ShapeInfo::
    // firstArrival). An exact match means the pattern's run saw this
    // very queue state, so every serve is the recorded one shifted by
    // start. An offset past 32 bits is never stored: its burst takes
    // the slow path unrecorded. The hash is FNV-1a over the key,
    // seeded with the shape.
    keyScratch_.resize(n);
    std::uint64_t hash = 1469598103934665603ULL ^ sh.id;
    for (std::size_t j = 0; j < n; ++j) {
        const sim::Tick f = srvs[j]->freeAt();
        sim::Tick off = f > start ? f - start : 0;
        if (off <= sh.firstArrival[j])
            off = 0;
        if (off > max_rec_tick)
            return false;
        keyScratch_[j] = static_cast<std::uint32_t>(off);
        hash = (hash ^ off) * 1099511628211ULL;
    }

    const std::uint32_t *p =
        cache_.lookup(sh, hash, keyScratch_.data(), record);
    if (p == nullptr)
        return false;
    // Near the tick ceiling the slow path's overflow throw applies.
    // (The pattern exists, so no re-recording.)
    if (p[1] > sim::max_tick - start)
        return false;

    const std::uint32_t *e = p + rec_key + n;
    for (std::size_t j = 0; j < n; ++j, e += 2)
        srvs[j]->applyBatch(sh.requests[j], e[0], sh.busy[j], start + e[1]);
    if (tracer_ != nullptr)
        for (unsigned b = 0; b < fast_bank_count; ++b)
            for (std::uint32_t k = 0; k < p[2 + b]; ++k, e += 2)
                tracer_->resourceWait(classOfBank(FastBank(b)), e[0], e[1]);

    r.complete = start + p[1];
    return true;
}

void
Network::stallSwitch(sim::Tick when, unsigned stage, unsigned idx,
                     sim::Tick duration)
{
    const bool s1 = stage == 1 && idx < stage1_.size();
    if (!s1 && !(stage == 2 && idx < stage2In_.size()))
        throw sim::SimError("network: no stage" + std::to_string(stage) +
                            " switch " + std::to_string(idx));
    using Side = std::pair<Crossbar *, obs::ResourceClass>;
    const Side sides[] = {
        s1 ? Side{&stage1_[idx], obs::ResourceClass::stage1_port}
           : Side{&stage2In_[idx], obs::ResourceClass::stage2_port},
        s1 ? Side{&returnB_[idx], obs::ResourceClass::return_b_port}
           : Side{&returnA_[idx], obs::ResourceClass::return_a_port}};
    // The stall reservations go through serve() and therefore count
    // as requests in ServerStats; observe matching (zero or pile-up)
    // waits so per-class request counts stay consistent.
    for (const auto &[xb, cls] : sides) {
        for (unsigned p = 0; p < xb->numPorts(); ++p) {
            sim::FifoServer &port = xb->port(p);
            const sim::Tick free = port.freeAt();
            if (tracer_)
                tracer_->resourceWait(cls, free > when ? free - when : 0);
            port.serve(when, duration);
        }
    }
}

void
Network::visitPorts(
    const std::function<void(const PortSite &, const sim::FifoServer &)>
        &f) const
{
    const std::pair<const char *, const std::vector<Crossbar> *> banks[] = {
        {"stage1", &stage1_},
        {"stage2", &stage2In_},
        {"returnA", &returnA_},
        {"returnB", &returnB_}};
    for (const auto &[tag, xbs] : banks)
        for (const Crossbar &xb : *xbs)
            for (unsigned p = 0; p < xb.numPorts(); ++p)
                f(PortSite{tag, xb.name(), p}, xb.port(p));
}

sim::Tick
Network::totalWaitTicks() const
{
    sim::Tick t = gmem_.totalWaitTicks();
    for (const auto *bank : {&stage1_, &stage2In_, &returnA_, &returnB_})
        for (const Crossbar &x : *bank)
            t += x.totalWaitTicks();
    return t;
}

void
Network::reset()
{
    for (auto *bank : {&stage1_, &stage2In_, &returnA_, &returnB_})
        for (Crossbar &x : *bank)
            x.reset();
}

} // namespace cedar::net
