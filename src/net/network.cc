#include "net/network.hh"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <limits>
#include <ostream>
#include <string>

#include "obs/tracer.hh"
#include "sim/error.hh"

namespace cedar::net
{

namespace
{

void
checkCluster(sim::ClusterId cluster, unsigned n_clusters)
{
    if (cluster < 0 || static_cast<unsigned>(cluster) >= n_clusters)
        throw sim::SimError("network: cluster " +
                            std::to_string(cluster) +
                            " out of range (network has " +
                            std::to_string(n_clusters) + ")");
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

FastBank
bankOfClass(obs::ResourceClass cls)
{
    switch (cls) {
    case obs::ResourceClass::stage1_port:
        return FastBank::stage1;
    case obs::ResourceClass::stage2_port:
        return FastBank::stage2;
    case obs::ResourceClass::return_a_port:
        return FastBank::returnA;
    case obs::ResourceClass::return_b_port:
        return FastBank::returnB;
    case obs::ResourceClass::memory_module:
    default:
        return FastBank::module;
    }
}

/** The flow milestone a port bank's serve stands for (returnA has
 *  none: the return path clears at returnB). */
obs::FlowStage
flowStageOf(FastBank bank)
{
    return bank == FastBank::stage1   ? obs::FlowStage::stage1
           : bank == FastBank::stage2 ? obs::FlowStage::stage2
                                      : obs::FlowStage::ret;
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
Network::portIndex(FastBank bank, unsigned group, sim::ClusterId cluster,
                   int ce_port) const
{
    const auto c = static_cast<unsigned>(cluster);
    switch (bank) {
    case FastBank::stage1:
        return static_cast<std::int32_t>(
            c * static_cast<unsigned>(stage2In_.size()) + group);
    case FastBank::stage2:
    case FastBank::returnA:
        return static_cast<std::int32_t>(group * nClusters_ + c);
    case FastBank::returnB:
    default:
        return static_cast<std::int32_t>(
            c * cesPerCluster_ + static_cast<unsigned>(ce_port));
    }
}

/** What every live reserveAccess policy resolves the same way: the
 *  issuing CE's ports and the machine's modules. */
struct Network::LiveServers
{
    Network &net;
    sim::ClusterId cluster;
    int cePort;

    sim::FifoServer &
    server(FastBank bank, unsigned idx)
    {
        return net.fastServer(bank, idx, cluster, cePort);
    }

    mem::GlobalMemory &memory() { return net.gmem_; }
};

/** reserveAccess policy for every access the fast path may not
 *  touch: each serve published through the tracer (module serves
 *  through the memory's own) with its flow milestones. */
struct Network::Live : LiveServers
{
    std::uint32_t flow;

    void
    served(FastBank bank, unsigned idx, sim::Tick arrival, sim::Tick,
           sim::Tick start, sim::Tick done)
    {
        if (bank == FastBank::module) {
            net.gmem_.noteServe(idx, arrival, start, done, flow);
            return;
        }
        obs::Tracer *t = net.tracer_;
        if (t == nullptr)
            return;
        const std::int32_t res = net.portIndex(bank, idx, cluster, cePort);
        t->resourceWait(classOfBank(bank), res, arrival, start - arrival);
        if (bank != FastBank::returnA)
            t->flowStage(flow, flowStageOf(bank), done, res, done - start);
    }
};

/**
 * reserveAccess policy for a fast-path miss. fastEligible() held:
 * flow == 0 (every flow milestone would be a no-op) and the
 * telemetry route is either "publish nothing" (no tracer) or "the
 * MetricsHub absorbs every resource_wait", resolved once per access.
 * When the miss earned a recording, each serve is also captured: per
 * touched server its request/wait/busy sums and horizon, the
 * per-serve waits, and the family validity constants (§10.2) — for a
 * shift-keyed bank the worst arrival-minus-horizon over its serves,
 * for a passive bank the worst canonical offset minus first arrival
 * over its servers. c_b <= 0 leaves the bank a one-sided slack;
 * c_b > 0 restricts it to its exact recorded shift (see
 * ParamPattern::cmin).
 */
struct Network::Recorder : LiveServers
{
    sim::Tick start;
    const FastMissCtx &miss;
    std::array<std::int64_t, fast_bank_count> cmin;

    Recorder(Network &n, sim::ClusterId c, int ce_port, sim::Tick s,
             const FastMissCtx &m)
        : LiveServers{n, c, ce_port}, start(s), miss(m)
    {
        cmin.fill(std::numeric_limits<std::int64_t>::min());
        if (!miss.record)
            return;
        net.waitScratch_.clear();
        net.recScratch_.clear();
        for (const ServerRef &r : miss.sh->servers)
            net.recScratch_.push_back(PatternServer{r.bank, r.idx, 0, 0, 0, 0});
    }

    void
    served(FastBank bank, unsigned idx, sim::Tick arrival,
           sim::Tick free_before, sim::Tick s, sim::Tick done)
    {
        const obs::ResourceClass cls = classOfBank(bank);
        const sim::Tick wait = s - arrival;
        if (net.tracer_ != nullptr)
            net.tracer_->resourceWaitBatch(cls, wait, 1);
        if (!miss.record)
            return;
        net.waitScratch_.emplace_back(cls, wait);

        const ShapeInfo &sh = *miss.sh;
        const auto b = static_cast<unsigned>(bank);
        const std::size_t j =
            sh.bankBegin[b] + (bank == FastBank::module    ? sh.moduleRank[idx]
                               : bank == FastBank::returnB ? 0
                                                           : sh.groupRank[idx]);
        PatternServer &e = net.recScratch_[j];
        if (miss.paramRecord) {
            std::int64_t c = std::numeric_limits<std::int64_t>::min();
            if ((miss.paramMask >> b) & 1u)
                c = static_cast<std::int64_t>(arrival) -
                    static_cast<std::int64_t>(free_before);
            else if (e.requests == 0)
                c = static_cast<std::int64_t>(net.offsetScratch_[j]) -
                    static_cast<std::int64_t>(arrival - start);
            cmin[b] = std::max(cmin[b], c);
        }
        ++e.requests;
        e.waitSum += wait;
        e.busySum += done - s;
        // Every touched server serves at an arrival past start, so
        // its horizon sits beyond it.
        e.freeAt = done - start;
    }

    /**
     * Second sighting: file the recorded run @p r. The sums captured
     * are, by the fast path's translation invariance, exactly what a
     * scratch replay at start = 0 would compute — without paying
     * that second full serve sequence. A family variant subsumes the
     * exact pattern when the store keeps it (score = number of
     * exact-shift-only banks; a full family only trades up toward
     * fully general variants); otherwise fall back to the exact
     * vector if it earned recording itself.
     */
    void
    file(const Reservation &r)
    {
        ShapeInfo &sh = *miss.sh;
        bool storeAsParam = false;
        std::uint8_t non_rigid = 0;
        if (miss.paramRecord) {
            for (unsigned b = 0; b < fast_bank_count; ++b)
                if (sh.bankCount[b] != 0 && cmin[b] > 0)
                    ++non_rigid;
            storeAsParam = net.cache_.wouldAcceptParam(
                sh, net.paramScratch_, non_rigid);
        }
        if (storeAsParam) {
            ParamPattern pp;
            pp.pat = pattern(r);
            pp.mask = miss.paramMask;
            pp.nonRigid = non_rigid;
            pp.base = net.paramBase_;
            pp.cmin = cmin;
            net.cache_.storeParam(sh, net.paramScratch_, std::move(pp));
        } else if (miss.exactRecord) {
            net.cache_.store(sh, net.offsetScratch_, pattern(r));
        }
    }

    /** The captured run as a BurstPattern, its per-serve waits
     *  condensed by (class, value). The list order is irrelevant for
     *  bit-identity: histogram bucket counts and per-class wait sums
     *  are commutative. */
    BurstPattern
    pattern(const Reservation &r)
    {
        BurstPattern p;
        p.relComplete = r.complete - start;
        p.lastLen = r.lastLen;
        p.servers = net.recScratch_;
        auto &waits = net.waitScratch_;
        std::sort(waits.begin(), waits.end());
        for (std::size_t i = 0; i < waits.size();) {
            std::size_t k = i + 1;
            while (k < waits.size() && waits[k] == waits[i])
                ++k;
            p.waits.push_back(
                PatternWaits{waits[i].first, waits[i].second, k - i});
            i = k;
        }
        return p;
    }
};

XferResult
Network::chunkAccess(sim::Tick when, sim::ClusterId cluster, int ce_port,
                     const mem::Chunk &chunk, std::uint32_t flow)
{
    checkCluster(cluster, nClusters_);
    assert(chunk.len >= 1 && chunk.len <= gmem_.map().groupSize());
    Live live{{*this, cluster, ce_port}, flow};
    const Reservation r =
        reserveAccess(live, when, chunk.addr, chunk.len, Access::chunk);
    return XferResult{r.complete, unloadedLatency(chunk.len)};
}

XferResult
Network::burst(sim::Tick start, sim::ClusterId cluster, int ce_port,
               sim::Addr addr, unsigned words, std::uint32_t flow)
{
    checkCluster(cluster, nClusters_);
    if (words == 0)
        throw sim::SimError("network: a burst needs at least one word");
    const Reservation r =
        reserve(start, cluster, ce_port, addr, words, Access::burst, flow);
    // Zero-contention duration of the same stream: the pipelined
    // issue of every word plus the last chunk's full latency.
    return XferResult{r.complete, words + unloadedLatency(r.lastLen)};
}

XferResult
Network::rmw(sim::Tick when, sim::ClusterId cluster, int ce_port,
             sim::Addr addr, const sim::RmwFn &f, std::uint32_t flow)
{
    checkCluster(cluster, nClusters_);
    const Reservation r =
        reserve(when, cluster, ce_port, addr, 1, Access::rmw, flow);
    // The value mutation the module serve stands for, in the same
    // (synchronous) serialisation order. A dead module never answers
    // and mutates nothing, so an abandoned RMW cannot double-apply.
    return XferResult{r.complete, unloadedLatency(1, true),
                      r.dead ? ~0ULL : gmem_.forceRmw(addr, f)};
}

Reservation
Network::reserve(sim::Tick start, sim::ClusterId cluster, int ce_port,
                 sim::Addr addr, unsigned words, Access kind,
                 std::uint32_t flow)
{
    const bool is_rmw = kind == Access::rmw;
    if (!fastEligible(flow)) {
        ++(is_rmw ? fastStats_.slowRmws : fastStats_.slowBursts);
        Live live{{*this, cluster, ce_port}, flow};
        return reserveAccess(live, start, addr, words, kind);
    }

    FastMissCtx miss;
    Reservation r;
    sim::Tick rel = 0;
    if (fastReplay(start, cluster, ce_port, gmem_.map().module(addr),
                   words, is_rmw, miss, rel, r.lastLen)) {
        ++(is_rmw ? fastStats_.fastRmws : fastStats_.fastBursts);
        r.complete = start + rel;
        return r;
    }
    ++(is_rmw ? fastStats_.slowRmws : fastStats_.slowBursts);
    Recorder rec(*this, cluster, ce_port, start, miss);
    r = reserveAccess(rec, start, addr, words, kind);
    // Skip only the degenerate saturated case, where
    // "complete - start" is no longer translation invariant.
    if (miss.record && r.complete != sim::max_tick)
        rec.file(r);
    return r;
}

bool
Network::fastEligible(std::uint32_t flow) const
{
    // The pattern replay is only legal when (a) the toggle is on,
    // (b) nobody watches individual flow milestones (a live flow id
    // means a timeline subscriber expects per-stage events), (c) no
    // fault plan touches the memory — fault windows break the
    // translation invariance — and (d) the telemetry this access
    // would publish is exactly "MetricsHub absorbs every
    // resource_wait", which the tracer can then take in batch. The
    // memory must publish through the same tracer; otherwise the
    // slow path's module waits would go elsewhere.
    if (!fastPath_ || flow != 0 || gmem_.hasFaults())
        return false;
    if (gmem_.tracerPtr() != tracer_)
        return false;
    // Without a tracer the slow path publishes nothing either.
    return tracer_ == nullptr || tracer_->waitsBatchable();
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

const std::vector<sim::FifoServer *> &
Network::resolvedServers(ShapeInfo &sh, sim::ClusterId cluster,
                         int ce_port)
{
    const std::uint32_t key =
        (static_cast<std::uint32_t>(cluster) << 16) |
        static_cast<std::uint32_t>(ce_port);
    auto it = sh.resolved.find(key);
    if (it == sh.resolved.end()) {
        std::vector<sim::FifoServer *> v;
        v.reserve(sh.servers.size());
        for (const ServerRef &r : sh.servers)
            v.push_back(&fastServer(r.bank, r.idx, cluster, ce_port));
        it = sh.resolved.emplace(key, std::move(v)).first;
    }
    return it->second;
}

bool
Network::fastReplay(sim::Tick start, sim::ClusterId cluster, int ce_port,
                    unsigned first_module, unsigned words, bool is_rmw,
                    FastMissCtx &miss, sim::Tick &rel_complete,
                    unsigned &last_len)
{
    ShapeInfo &sh = cache_.shape(first_module, words, is_rmw);
    const auto &srvs = resolvedServers(sh, cluster, ce_port);

    // The replay key: every touched server's free horizon relative
    // to this access's start. An exact match means the pattern's
    // recorded run saw precisely this queue state, so every serve
    // start, wait and updated horizon — including the access's
    // self-queueing — is the recorded one shifted by start.
    //
    // Canonicalization: an offset at or below the server's idle
    // first-arrival tick can never delay a serve or record wait (the
    // request arrives later than the horizon clears), so it is
    // quotiented to zero before keying. Convoy phases at 16/32p
    // produce thousands of vectors differing only in such don't-care
    // entries — e.g. a return-path port whose residual backlog
    // clears long before this access's words come back — and they
    // all collapse onto one canonical pattern, bit-identically.
    offsetScratch_.clear();
    for (std::size_t j = 0; j < srvs.size(); ++j) {
        const sim::Tick f = srvs[j]->freeAt();
        sim::Tick off = f > start ? f - start : 0;
        if (off <= sh.firstArrival[j])
            off = 0;
        offsetScratch_.push_back(off);
    }

    if (const BurstPattern *p = cache_.find(sh, offsetScratch_)) {
        // Near the tick ceiling the slow path's overflow throw
        // applies. (The pattern exists, so no re-recording.)
        if (p->relComplete > sim::max_tick - start) {
            miss.sh = &sh;
            return false;
        }

        const auto &entries = p->servers;
        assert(entries.size() == srvs.size());
        for (std::size_t j = 0; j < entries.size(); ++j)
            srvs[j]->applyBatch(entries[j].requests, entries[j].waitSum,
                                entries[j].busySum,
                                start + entries[j].freeAt);

        if (tracer_ != nullptr)
            for (const auto &w : p->waits)
                tracer_->resourceWaitBatch(w.cls, w.wait, w.count);

        rel_complete = p->relComplete;
        last_len = p->lastLen;
        return true;
    }

    miss.sh = &sh;

    // Exact miss: try the parametric families (DESIGN.md §10.2).
    // Build the base-subtracted key — a bank whose canonical offsets
    // are all nonzero is shift-keyed (its base becomes a family
    // parameter); any other bank keeps its entries verbatim. The
    // rule is purely structural, so the recording side and every
    // lookup derive identical keys.
    bool paramCandidate = false;
    if (!is_rmw) {
        paramScratch_.clear();
        std::uint8_t mask = 0;
        for (unsigned b = 0; b < fast_bank_count; ++b) {
            const std::uint32_t begin = sh.bankBegin[b];
            const std::uint32_t n = sh.bankCount[b];
            if (n == 0) {
                paramBase_[b] = 0;
                continue;
            }
            sim::Tick mn = offsetScratch_[begin];
            for (std::uint32_t k = 1; k < n; ++k)
                mn = std::min(mn, offsetScratch_[begin + k]);
            // A stage1 bank below its static rigidity floors cannot
            // shift rigidly (some serve would be arrival-bound), so
            // it stays passive — which for stage1 is unconditionally
            // replayable, since its arrivals never shift.
            bool shiftable = mn > 0;
            if (shiftable &&
                b == static_cast<unsigned>(FastBank::stage1)) {
                for (std::uint32_t k = 0; k < n; ++k)
                    if (offsetScratch_[begin + k] <
                        sh.stage1Floor[begin + k]) {
                        shiftable = false;
                        break;
                    }
            }
            if (shiftable) {
                mask |= static_cast<std::uint8_t>(1u << b);
                paramBase_[b] = mn;
                for (std::uint32_t k = 0; k < n; ++k)
                    paramScratch_.push_back(offsetScratch_[begin + k] -
                                            mn);
            } else {
                paramBase_[b] = 0;
                for (std::uint32_t k = 0; k < n; ++k)
                    paramScratch_.push_back(offsetScratch_[begin + k]);
            }
        }
        paramScratch_.push_back(mask);
        miss.paramMask = mask;
        paramCandidate = mask != 0;
        if (paramCandidate) {
            if (const ParamFamily *fam =
                    cache_.findParam(sh, paramScratch_)) {
                for (const ParamPattern &pp : *fam)
                    if (applyParam(pp, paramBase_, start, sh, srvs,
                                   rel_complete, last_len))
                        return true;
            }
        }
    }

    miss.exactRecord = cache_.shouldRecord(sh, offsetScratch_);
    if (paramCandidate) {
        bool in_range = true;
        for (const sim::Tick o : offsetScratch_)
            if (o >= BurstPatternCache::max_offset) {
                in_range = false;
                break;
            }
        miss.paramRecord =
            in_range && cache_.shouldRecordParam(sh, paramScratch_);
    }
    miss.record = miss.exactRecord || miss.paramRecord;
    return false;
}

bool
Network::applyParam(const ParamPattern &pp,
                    const std::array<sim::Tick, fast_bank_count> &bases,
                    sim::Tick start, const ShapeInfo &sh,
                    const std::vector<sim::FifoServer *> &srvs,
                    sim::Tick &rel_complete, unsigned &last_len)
{
    // Per-bank shift algebra, in the burst DAG's topological order.
    // beta[b] is the shift of bank b's request arrivals — the serve-
    // start shift (alpha) of the bank feeding it; stage1 arrivals
    // are CE issue times, which no offset moves. A shift-keyed bank
    // serves on its own horizon chain, so its starts move with its
    // base delta; a passive bank's starts follow its arrivals.
    // Each one-sided constraint keeps every recorded max() branch
    // decision (horizon vs arrival) intact, which is what makes the
    // shifted replay bit-exact.
    static constexpr FastBank topo[fast_bank_count] = {
        FastBank::stage1, FastBank::stage2, FastBank::module,
        FastBank::returnA, FastBank::returnB};
    std::int64_t alpha[fast_bank_count];
    std::int64_t beta[fast_bank_count];
    std::int64_t in = 0;
    for (const FastBank fb : topo) {
        const auto b = static_cast<unsigned>(fb);
        beta[b] = in;
        if ((pp.mask >> b) & 1u) {
            const std::int64_t d = static_cast<std::int64_t>(bases[b]) -
                                   static_cast<std::int64_t>(pp.base[b]);
            if (d != in && (pp.cmin[b] > 0 || d - in < pp.cmin[b]))
                return false;
            alpha[b] = d;
        } else {
            // beta == 0 replays a passive bank verbatim — offsets
            // and arrivals both identical to the recording — so it
            // is valid whatever the recording looked like.
            if (in != 0 && (pp.cmin[b] > 0 || in < pp.cmin[b]))
                return false;
            alpha[b] = in;
        }
        in = alpha[b];
    }

    // Completion is the last returnB serve plus a hop: it shifts
    // with returnB's starts. Near the tick ceiling the slow path's
    // overflow behaviour stays authoritative, as on the exact path.
    const std::int64_t rel =
        static_cast<std::int64_t>(pp.pat.relComplete) +
        alpha[static_cast<unsigned>(FastBank::returnB)];
    if (rel < 0 || static_cast<sim::Tick>(rel) > sim::max_tick - start)
        return false;

    const auto &entries = pp.pat.servers;
    assert(entries.size() == srvs.size());
    for (std::size_t j = 0; j < entries.size(); ++j) {
        const auto b = static_cast<unsigned>(sh.servers[j].bank);
        const PatternServer &e = entries[j];
        // Every serve's wait moves by (alpha - beta); the validity
        // constraints bound that from below by minus the smallest
        // recorded wait, so no shifted wait goes negative.
        srvs[j]->applyBatch(
            e.requests,
            static_cast<sim::Tick>(static_cast<std::int64_t>(e.waitSum) +
                                   static_cast<std::int64_t>(e.requests) *
                                       (alpha[b] - beta[b])),
            e.busySum,
            start + static_cast<sim::Tick>(
                        static_cast<std::int64_t>(e.freeAt) + alpha[b]));
    }

    if (tracer_ != nullptr)
        for (const auto &w : pp.pat.waits) {
            const auto b =
                static_cast<unsigned>(bankOfClass(w.cls));
            tracer_->resourceWaitBatch(
                w.cls,
                static_cast<sim::Tick>(static_cast<std::int64_t>(w.wait) +
                                       (alpha[b] - beta[b])),
                w.count);
        }

    rel_complete = static_cast<sim::Tick>(rel);
    last_len = pp.pat.lastLen;
    return true;
}

sim::Tick
Network::unloadedLatency(unsigned len, bool is_rmw)
{
    // Six hop traversals (CE->s1, s1->s2, s2->mem, mem->rA, rA->rB,
    // rB->CE), one port service per switch stage in each direction,
    // and the module service time.
    const sim::Tick mem_service = is_rmw ? mem::GlobalMemory::rmw_service
                                         : mem::GlobalMemory::word_service;
    return 6 * hop_latency + 4 * static_cast<sim::Tick>(len) + mem_service;
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
    // as requests in ServerStats; publish matching (zero or pile-up)
    // waits so per-class request counts stay consistent.
    for (const auto &[xb, cls] : sides) {
        for (unsigned p = 0; p < xb->numPorts(); ++p) {
            sim::FifoServer &port = xb->port(p);
            const sim::Tick free = port.freeAt();
            if (tracer_)
                tracer_->resourceWait(
                    cls, static_cast<std::int32_t>(idx * xb->numPorts() + p),
                    when, free > when ? free - when : 0);
            port.serve(when, duration);
        }
    }
}

namespace
{

template <typename Banks, typename Fn>
void
visitBank(const char *tag, Banks &banks, Fn &&f)
{
    for (auto &xb : banks) {
        for (unsigned p = 0; p < xb.numPorts(); ++p)
            f(PortSite{tag, xb.name(), p}, xb.port(p));
    }
}

} // namespace

void
Network::visitPorts(
    const std::function<void(const PortSite &, const sim::FifoServer &)>
        &f) const
{
    visitBank("stage1", stage1_, f);
    visitBank("stage2", stage2In_, f);
    visitBank("returnA", returnA_, f);
    visitBank("returnB", returnB_, f);
}

void
Network::visitPortsMut(
    const std::function<void(const PortSite &, sim::FifoServer &)> &f)
{
    visitBank("stage1", stage1_, f);
    visitBank("stage2", stage2In_, f);
    visitBank("returnA", returnA_, f);
    visitBank("returnB", returnB_, f);
}

sim::Tick
Network::switchWaitTicks() const
{
    sim::Tick t = 0;
    for (const auto &x : stage1_)
        t += x.totalWaitTicks();
    for (const auto &x : stage2In_)
        t += x.totalWaitTicks();
    for (const auto &x : returnA_)
        t += x.totalWaitTicks();
    for (const auto &x : returnB_)
        t += x.totalWaitTicks();
    return t;
}

sim::Tick
Network::totalWaitTicks() const
{
    return switchWaitTicks() + gmem_.totalWaitTicks();
}

namespace
{

void
reportBank(std::ostream &os, const std::string &label,
           const Crossbar &xb, sim::Tick elapsed)
{
    std::uint64_t requests = 0;
    for (unsigned p = 0; p < xb.numPorts(); ++p)
        requests += xb.port(p).stats().requests();
    const double busy =
        elapsed ? 100.0 * static_cast<double>(xb.totalBusyTicks()) /
                      (static_cast<double>(elapsed) * xb.numPorts())
                : 0.0;
    const double wait =
        requests ? static_cast<double>(xb.totalWaitTicks()) /
                       static_cast<double>(requests)
                 : 0.0;
    os << "  " << std::left << std::setw(18) << label << std::right
       << std::setw(10) << requests << " req " << std::setw(6)
       << std::fixed << std::setprecision(1) << busy << "% busy "
       << std::setw(7) << std::setprecision(1) << wait
       << " mean wait\n";
}

} // namespace

void
Network::report(std::ostream &os, sim::Tick elapsed) const
{
    os << "network utilisation over " << elapsed << " cycles:\n";
    for (unsigned c = 0; c < nClusters_; ++c)
        reportBank(os, stage1_[c].name(), stage1_[c], elapsed);
    for (unsigned g = 0; g < stage2In_.size(); ++g)
        reportBank(os, stage2In_[g].name(), stage2In_[g], elapsed);

    // Memory modules, grouped per stage-2 switch.
    const unsigned group_size = gmem_.map().groupSize();
    for (unsigned g = 0; g < gmem_.map().numGroups(); ++g) {
        std::uint64_t requests = 0;
        sim::Tick busy = 0, wait = 0;
        for (unsigned m = 0; m < group_size; ++m) {
            const auto &st =
                gmem_.moduleServer(g * group_size + m).stats();
            requests += st.requests();
            busy += st.busyTicks();
            wait += st.waitTicks();
        }
        const double busy_pct =
            elapsed ? 100.0 * static_cast<double>(busy) /
                          (static_cast<double>(elapsed) * group_size)
                    : 0.0;
        const double mean_wait =
            requests ? static_cast<double>(wait) /
                           static_cast<double>(requests)
                     : 0.0;
        os << "  modules.group" << g << "    " << std::right
           << std::setw(10) << requests << " req " << std::setw(6)
           << std::fixed << std::setprecision(1) << busy_pct
           << "% busy " << std::setw(7) << std::setprecision(1)
           << mean_wait << " mean wait\n";
    }
}

void
Network::reset()
{
    for (auto &x : stage1_)
        x.reset();
    for (auto &x : stage2In_)
        x.reset();
    for (auto &x : returnA_)
        x.reset();
    for (auto &x : returnB_)
        x.reset();
}

} // namespace cedar::net
