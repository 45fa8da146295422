#include "net/network.hh"

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>

#include "obs/tracer.hh"
#include "sim/error.hh"

namespace cedar::net
{

/**
 * The serves one watched access's GM-request flow keeps: of each flow
 * stage (stage1, stage2, module, and ret, the returnB serve), the
 * first serve and the last. With the CE's issue and completion records
 * a flow is at most 10 records, however many words it streams; a
 * one-word access, such as every RMW, keeps all 6 of its own. The
 * live walks hand every serve to serve(); the fast-path replay hands
 * it only serves it can derive (replayFlow below), among them every
 * one kept, in serve order. Either way forEach() sees the same
 * serves.
 */
class FlowPoints
{
  public:
    /** The next serve, in serve order: @p cls's server @p idx (as
     *  reserveChain's seen names it) busy over [@p s, @p done). */
    void
    serve(obs::ResourceClass cls, unsigned idx, sim::Tick s,
          sim::Tick done)
    {
        const auto c = static_cast<unsigned>(cls);
        const Point p{s, done, idx, ++seq_};
        if (first_[c].seq == 0)
            first_[c] = p;
        last_[c] = p;
    }

    /** @p f(cls, idx, s, done) for every kept serve, in serve order;
     *  a stage's only serve once. returnA serves mark no milestone
     *  (the return path clears at returnB). */
    template <typename F>
    void
    forEach(F &&f) const
    {
        using C = obs::ResourceClass;
        struct Kept
        {
            const Point *p;
            C cls;
        };
        std::array<Kept, 8> kept{};
        std::size_t n = 0;
        const auto keep = [&](const Point &p, C cls) {
            std::size_t k = n++;
            for (; k > 0 && kept[k - 1].p->seq > p.seq; --k)
                kept[k] = kept[k - 1];
            kept[k] = {&p, cls};
        };
        for (const C cls : {C::stage1_port, C::stage2_port,
                            C::memory_module, C::return_b_port}) {
            const auto i = static_cast<unsigned>(cls);
            if (first_[i].seq == 0)
                continue;
            keep(first_[i], cls);
            if (last_[i].seq != first_[i].seq)
                keep(last_[i], cls);
        }
        for (std::size_t k = 0; k < n; ++k)
            f(kept[k].cls, kept[k].p->idx, kept[k].p->s, kept[k].p->done);
    }

  private:
    struct Point
    {
        sim::Tick s = 0;
        sim::Tick done = 0;
        unsigned idx = 0;
        std::uint64_t seq = 0; //!< 0: the class has not served yet
    };
    std::array<Point, access_class_count> first_{};
    std::array<Point, access_class_count> last_{};
    std::uint64_t seq_ = 0;
};

namespace
{

/** @p cls's row in the port table (Network::table_). */
unsigned
portRow(obs::ResourceClass cls)
{
    return static_cast<unsigned>(cls) -
           static_cast<unsigned>(obs::ResourceClass::stage1_port);
}

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

/** The flow milestone a serve of @p cls stands for (returnA has none:
 *  the return path clears at returnB, FlowPoints::forEach). */
obs::FlowStage
flowStageOf(obs::ResourceClass cls)
{
    switch (cls) {
    case obs::ResourceClass::stage1_port:
        return obs::FlowStage::stage1;
    case obs::ResourceClass::stage2_port:
        return obs::FlowStage::stage2;
    case obs::ResourceClass::memory_module:
        return obs::FlowStage::module;
    default:
        return obs::FlowStage::ret;
    }
}

/**
 * Feed @p fp the serves a replayed access of @p sh at @p start keeps,
 * from its canonical offsets @p key and its pattern's per-server
 * (wait sum, free horizon) pairs @p servers. The first chunk is the
 * first access to touch each of its servers, and a canonical zero
 * offset never delays a serve (ShapeInfo::firstArrival), so each of
 * its serves starts at max(arrival, start + key). The last chunk is
 * the last to serve at each of its servers, so each of its serves ends
 * at the horizon the pattern stores. The first chunk goes in whole and
 * the last chunk's kept serves after it, so @p fp keeps what the live
 * walk's would.
 */
void
replayFlow(FlowPoints &fp, const ShapeInfo &sh, const std::uint32_t *key,
           const std::uint32_t *servers, sim::Tick start)
{
    using C = obs::ResourceClass;
    constexpr sim::Tick hop = Network::hop_latency;
    constexpr sim::Tick word = mem::GlobalMemory::word_service;
    const auto first = [&](C cls, std::uint32_t pos, unsigned idx,
                           sim::Tick arrival, sim::Tick service) {
        const sim::Tick s = std::max(arrival, start + key[pos]);
        fp.serve(cls, idx, s, s + service);
        return s + service;
    };
    const ChainStep &c = sh.chain.front(); // issued at start
    const sim::Tick t1 =
        first(C::stage1_port, c.stage1, c.group, start + hop, c.len);
    const sim::Tick t2 =
        first(C::stage2_port, c.stage2, c.group, t1 + hop, c.len);
    sim::Tick memdone = 0;
    for (unsigned i = 0; i < c.len; ++i)
        memdone = std::max(memdone, first(C::memory_module, c.modules + i,
                                          c.module + i, t2 + hop, word));
    const sim::Tick t3 =
        first(C::return_a_port, c.returnA, c.group, memdone + hop, c.len);
    first(C::return_b_port, c.returnB, 0, t3 + hop, c.len);
    if (sh.chain.size() == 1)
        return;

    const auto last = [&](C cls, std::uint32_t pos, unsigned idx,
                          sim::Tick service) {
        const sim::Tick done = start + servers[2 * pos + 1];
        fp.serve(cls, idx, done - service, done);
    };
    const ChainStep &l = sh.chain.back();
    last(C::stage1_port, l.stage1, l.group, l.len);
    last(C::stage2_port, l.stage2, l.group, l.len);
    last(C::memory_module, l.modules + l.len - 1, l.module + l.len - 1,
         word);
    last(C::return_b_port, l.returnB, 0, l.len);
}

} // namespace

std::string
PortSite::name() const
{
    static constexpr const char *switches[] = {
        "stage1.cluster", "stage2.group", "returnA.group", "returnB.cluster"};
    return std::string(switches[portRow(cls)]) + std::to_string(owner) +
           ".port" + std::to_string(port);
}

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
    table_ = {{{n_clusters, groups, 0},
               {groups, n_clusters, 0},
               {groups, n_clusters, 0},
               {n_clusters, ces_per_cluster, 0}}};
    std::size_t n = 0;
    for (PortClass &pc : table_) {
        pc.base = n;
        n += std::size_t{pc.switches} * pc.ports;
    }
    ports_.resize(n);
}

unsigned
Network::position(obs::ResourceClass cls, unsigned idx,
                  sim::ClusterId cluster, int ce_port) const
{
    const auto c = static_cast<unsigned>(cluster);
    unsigned owner = c;
    unsigned port = idx;
    switch (cls) {
    case obs::ResourceClass::memory_module:
        return idx;
    case obs::ResourceClass::stage2_port:
    case obs::ResourceClass::return_a_port:
        owner = idx;
        port = c;
        break;
    case obs::ResourceClass::return_b_port:
        port = static_cast<unsigned>(ce_port);
        break;
    default:
        break;
    }
    return owner * table_[portRow(cls)].ports + port;
}

XferResult
Network::burst(sim::Tick start, sim::ClusterId cluster, int ce_port,
               sim::Addr addr, unsigned words, std::uint32_t flow)
{
    checkIssuer(cluster, ce_port, nClusters_, cesPerCluster_);
    if (words == 0)
        throw sim::SimError("network: a burst needs at least one word");
    ShapeInfo &sh = cache_.shape(gmem_.map().module(addr), words);
    const Reservation r = reserveBurst(sh, start, cluster, ce_port, flow);
    return XferResult{r.complete, sh.unloaded};
}

XferResult
Network::rmw(sim::Tick when, sim::ClusterId cluster, int ce_port,
             sim::Addr addr, const sim::RmwFn &f, std::uint32_t flow)
{
    checkIssuer(cluster, ce_port, nClusters_, cesPerCluster_);
    ShapeInfo &sh = cache_.shape(gmem_.map().module(addr), 1);
    const Reservation r =
        reserveLive(sh, resolved(sh, cluster, ce_port), when,
                    mem::GlobalMemory::rmw_service, cluster, ce_port, flow);
    // The value mutation the module serve stands for, in the same
    // (synchronous) serialisation order. A dead module never answers
    // and mutates nothing, so an abandoned RMW cannot double-apply.
    return XferResult{r.complete, rmw_unloaded,
                      r.dead ? ~0ULL : gmem_.forceRmw(addr, f)};
}

Reservation
Network::reserveLive(const ShapeInfo &sh, sim::FifoServer *const *srv,
                     sim::Tick start, sim::Tick mem_service,
                     sim::ClusterId cluster, int ce_port, std::uint32_t flow)
{
    mem::GlobalMemory *faults = gmem_.hasFaults() ? &gmem_ : nullptr;
    obs::Tracer *const t = tracer_;
    if (flow == 0 || t == nullptr)
        return reserveChain(
            sh, srv, faults, start, mem_service,
            [t](obs::ResourceClass cls, std::uint32_t, unsigned,
                sim::Tick arrival, sim::Tick s, sim::Tick) {
                if (t != nullptr)
                    t->resourceWait(cls, s - arrival);
            });
    FlowPoints fp;
    const Reservation r = reserveChain(
        sh, srv, faults, start, mem_service,
        [&](obs::ResourceClass cls, std::uint32_t, unsigned idx,
            sim::Tick arrival, sim::Tick s, sim::Tick done) {
            t->resourceWait(cls, s - arrival);
            fp.serve(cls, idx, s, done);
        });
    emitFlow(fp, flow, cluster, ce_port);
    return r;
}

Reservation
Network::reserveBurst(ShapeInfo &sh, sim::Tick start, sim::ClusterId cluster,
                      int ce_port, std::uint32_t flow)
{
    sim::FifoServer *const *srv = resolved(sh, cluster, ce_port);
    obs::Tracer *const t = tracer_;
    const bool watched = flow != 0 && t != nullptr;
    Reservation r;
    bool record = false;
    // The replay is only legal when the toggle is on and no fault plan
    // touches the memory (fault windows break the translation
    // invariance). A watched hit derives its flow from the key and the
    // pattern (replayFlow).
    if (fastPath_ && !gmem_.hasFaults()) {
        if (const std::uint32_t *p = fastReplay(sh, srv, start, r, record)) {
            ++fastStats_.fastBursts;
            if (watched) {
                FlowPoints fp;
                replayFlow(fp, sh, keyScratch_.data(),
                           p + rec_key + sh.servers.size(), start);
                emitFlow(fp, flow, cluster, ce_port);
            }
            return r;
        }
    }
    ++fastStats_.slowBursts;
    if (!record)
        return reserveLive(sh, srv, start, mem::GlobalMemory::word_service,
                           cluster, ce_port, flow);

    // The miss earned a recording: each serve also adds its wait to
    // its server's sum and its class's tally, and moves the server's
    // horizon. Serve counts and service ticks are the shape's
    // (ShapeInfo::requests, busy), so nothing else varies between two
    // runs of one shape. The access is unfaulted; a watched one also
    // keeps its flow's serves, as the live walk does.
    for (WaitCounts &c : waitCounts_)
        c.clear();
    recScratch_.assign(sh.servers.size(), PatternServer{0, 0});
    FlowPoints fp;
    r = reserveChain(
        sh, srv, nullptr, start, mem::GlobalMemory::word_service,
        [&](obs::ResourceClass cls, std::uint32_t pos, unsigned idx,
            sim::Tick arrival, sim::Tick s, sim::Tick done) {
            const sim::Tick wait = s - arrival;
            if (t != nullptr)
                t->resourceWait(cls, wait);
            waitCounts_[static_cast<unsigned>(cls)].add(wait);
            PatternServer &e = recScratch_[pos];
            e.waitSum += wait;
            // Every touched server serves at an arrival past start, so
            // its horizon sits beyond it.
            e.freeAt = done - start;
            if (watched)
                fp.serve(cls, idx, s, done);
        });
    if (watched)
        emitFlow(fp, flow, cluster, ce_port);
    // Second sighting: file the recorded run. Skip only the
    // degenerate saturated case, where "complete - start" is no
    // longer translation invariant.
    if (r.complete != sim::max_tick)
        cache_.learn(sh, keyScratch_.data(), r.complete - start,
                     recScratch_, waitCounts_);
    return r;
}

void
Network::emitFlow(const FlowPoints &fp, std::uint32_t flow,
                  sim::ClusterId cluster, int ce_port) const
{
    fp.forEach([&](obs::ResourceClass cls, unsigned idx, sim::Tick s,
                   sim::Tick done) {
        tracer_->flowStage(flow, flowStageOf(cls), done,
                           static_cast<std::int32_t>(
                               position(cls, idx, cluster, ce_port)),
                           done - s);
    });
}

sim::FifoServer &
Network::server(obs::ResourceClass cls, std::uint32_t idx,
                sim::ClusterId cluster, int ce_port)
{
    const unsigned pos = position(cls, idx, cluster, ce_port);
    if (cls == obs::ResourceClass::memory_module)
        return gmem_.moduleServerMut(pos);
    return ports_[table_[portRow(cls)].base + pos];
}

sim::FifoServer *const *
Network::resolved(ShapeInfo &sh, sim::ClusterId cluster, int ce_port)
{
    // checkIssuer() bounded both, so the index names one CE.
    if (sh.resolved.empty())
        sh.resolved.resize(static_cast<std::size_t>(nClusters_) *
                           cesPerCluster_);
    auto &srv = sh.resolved[static_cast<std::size_t>(cluster) *
                                cesPerCluster_ +
                            static_cast<unsigned>(ce_port)];
    if (srv == nullptr) {
        srv = std::make_unique_for_overwrite<sim::FifoServer *[]>(
            sh.servers.size());
        for (std::size_t j = 0; j < sh.servers.size(); ++j)
            srv[j] = &server(sh.servers[j].cls, sh.servers[j].idx, cluster,
                             ce_port);
    }
    return srv.get();
}

const std::uint32_t *
Network::fastReplay(const ShapeInfo &sh, sim::FifoServer *const *srv,
                    sim::Tick start, Reservation &r, bool &record)
{
    const std::size_t n = sh.servers.size();

    // The key: every touched server's free horizon relative to start,
    // an offset at or below the server's idle first arrival zeroed
    // (it can never delay a serve: canonicalization, ShapeInfo::
    // firstArrival). An exact match means the pattern's run saw this
    // very queue state, so every serve is the recorded one shifted by
    // start. An offset past 32 bits is never stored: its burst takes
    // the slow path unrecorded. The hash folds in during the gather.
    keyScratch_.resize(n);
    std::uint64_t hash = keyHashBasis(sh.id);
    for (std::size_t j = 0; j < n; ++j) {
        const sim::Tick f = srv[j]->freeAt();
        sim::Tick off = f > start ? f - start : 0;
        if (off <= sh.firstArrival[j])
            off = 0;
        if (off > max_rec_tick)
            return nullptr;
        keyScratch_[j] = static_cast<std::uint32_t>(off);
        hash = keyHashFold(hash, off);
    }

    const std::uint32_t *p =
        cache_.lookup(sh, hash, keyScratch_.data(), record);
    if (p == nullptr)
        return nullptr;
    // Near the tick ceiling the slow path's overflow throw applies.
    // (The pattern exists, so no re-recording.)
    if (p[1] > sim::max_tick - start)
        return nullptr;

    const std::uint32_t *e = p + rec_key + n;
    for (std::size_t j = 0; j < n; ++j, e += 2)
        srv[j]->applyBatch(sh.requests[j], e[0], sh.busy[j], start + e[1]);
    if (tracer_ != nullptr)
        for (unsigned c = 0; c < access_class_count; ++c)
            for (std::uint32_t k = 0; k < p[2 + c]; ++k, e += 2)
                tracer_->resourceWait(obs::ResourceClass(c), e[0], e[1]);

    r.complete = start + p[1];
    return p;
}

void
Network::stallSwitch(sim::Tick when, unsigned stage, unsigned idx,
                     sim::Tick duration)
{
    // A stage-1 switch is its cluster's stage1 and returnB ports, a
    // stage-2 one its group's stage2 and returnA ports.
    using C = obs::ResourceClass;
    const std::array<C, 2> sides =
        stage == 1 ? std::array{C::stage1_port, C::return_b_port}
                   : std::array{C::stage2_port, C::return_a_port};
    if ((stage != 1 && stage != 2) ||
        idx >= table_[portRow(sides[0])].switches)
        throw sim::SimError("network: no stage" + std::to_string(stage) +
                            " switch " + std::to_string(idx));
    // The stall reservations go through serve() and therefore count
    // as requests in ServerStats; observe matching (zero or pile-up)
    // waits so per-class request counts stay consistent.
    for (const C cls : sides) {
        const PortClass &pc = table_[portRow(cls)];
        for (unsigned p = 0; p < pc.ports; ++p) {
            sim::FifoServer &port = ports_[pc.base + idx * pc.ports + p];
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
    for (unsigned r = 0; r < table_.size(); ++r) {
        const PortClass &pc = table_[r];
        const auto cls = obs::ResourceClass(
            static_cast<unsigned>(obs::ResourceClass::stage1_port) + r);
        for (unsigned s = 0; s < pc.switches; ++s)
            for (unsigned p = 0; p < pc.ports; ++p)
                f(PortSite{cls, s, p}, ports_[pc.base + s * pc.ports + p]);
    }
}

sim::Tick
Network::totalWaitTicks() const
{
    sim::Tick t = gmem_.totalWaitTicks();
    for (const sim::FifoServer &p : ports_)
        t += p.stats().waitTicks();
    return t;
}

void
Network::reset()
{
    for (sim::FifoServer &p : ports_)
        p.reset();
}

} // namespace cedar::net
