/**
 * @file
 * The Cedar two-stage shuffle-exchange interconnection network,
 * generalized to arbitrary geometry.
 *
 * Forward path (CE -> global memory): each cluster owns a stage-1
 * crossbar with one output port per stage-2 switch; each stage-2
 * switch has one input port per cluster and fronts one group of
 * consecutive memory modules. The stage-2 width is therefore
 * *derived* from the memory geometry (numGroups = modules /
 * group_size) rather than assumed — Cedar as measured is 8 switches
 * of 4 modules each, but any validated CedarConfig shape works. The
 * return path (memory -> CE) mirrors it with its own switches, as on
 * Cedar where the two directions are separate networks.
 *
 * All timing is reservation based: a transfer reserves its whole
 * path at issue time, and contention (queueing at ports and modules)
 * falls out of overlapping reservations.
 */

#ifndef CEDAR_NET_NETWORK_HH
#define CEDAR_NET_NETWORK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/global_memory.hh"
#include "net/fastpath.hh"
#include "obs/resource.hh"
#include "sim/fifo_server.hh"
#include "sim/types.hh"

namespace cedar::obs
{
class Tracer;
}

namespace cedar::net
{

/** Outcome of one network transaction. */
struct XferResult
{
    sim::Tick complete; //!< tick at which the response reaches the CE
    /** Zero-contention latency: the same access's completion on an
     *  idle machine, relative to its issue (a burst's includes its
     *  later chunks queueing behind its own earlier ones). */
    sim::Tick unloaded;
    std::uint64_t oldValue = 0; //!< previous word value (RMW only)

    /** Queueing delay experienced relative to an idle machine. */
    sim::Tick
    queueing(sim::Tick issued) const
    {
        const sim::Tick total = complete - issued;
        return total > unloaded ? total - unloaded : 0;
    }
};

/**
 * Identity of one network port, as Network::visitPorts hands it out:
 * its class, the switch that owns it (a cluster for stage1 and
 * returnB ports, a module group for stage2 and returnA ones) and its
 * index on that switch. Its position among its class's ports is
 * owner * (ports per switch) + port.
 */
struct PortSite
{
    obs::ResourceClass cls; //!< stage1_port .. return_b_port
    unsigned owner;
    unsigned port;

    /** Its report name: "stage1.cluster1.port3", "stage2.group3.port1",
     *  "returnA.group3.port1" or "returnB.cluster1.port7". */
    std::string name() const;
};

/** How often the analytic fast path replayed a burst vs fell back;
 *  purely informational (bench reporting, test assertions). RMWs
 *  always take the reference chain and count as neither. */
struct FastPathStats
{
    std::uint64_t fastBursts = 0; //!< bursts replayed from a pattern
    std::uint64_t slowBursts = 0; //!< bursts served by reserveChain

    std::uint64_t hits() const { return fastBursts; }
    std::uint64_t misses() const { return slowBursts; }
};

/** What reserveChain leaves behind. */
struct Reservation
{
    /** When the response reaches the CE; sim::max_tick when a dead
     *  module swallowed a word. */
    sim::Tick complete = 0;
    bool dead = false; //!< some module never served its word
};

/** The milestones a watched access's flow keeps (network.cc). */
class FlowPoints;

/**
 * The network plus the memory behind it; the single entry point the
 * CE's global interface uses for all global-memory traffic.
 */
class Network
{
  public:
    /** Per-stage wire/setup latency in cycles. */
    static constexpr sim::Tick hop_latency = 2;

    /** Zero-contention latency of an RMW: six hop traversals, a
     *  one-word service at each switch stage in each direction, and
     *  the module's RMW service (the reservation chain's idle
     *  completion of one word). */
    static constexpr sim::Tick rmw_unloaded =
        6 * hop_latency + 4 + mem::GlobalMemory::rmw_service;

    /**
     * Build the two-stage network for @p n_clusters clusters of
     * @p ces_per_cluster CEs in front of @p gmem (whose AddressMap
     * determines the stage-2 switch count).
     *
     * @throws sim::ConfigError on a degenerate geometry.
     */
    Network(unsigned n_clusters, unsigned ces_per_cluster,
            mem::GlobalMemory &gmem);

    /** Attach the telemetry tracer: every serve's queueing wait, the
     *  memory modules' included, and each watched access's flow
     *  milestones (FlowPoints). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** Enable/disable the analytic fast path (RunOptions::fastPath,
     *  `cedar_cli --no-fast-path`). Results are bit-identical either
     *  way; the toggle exists for A/B timing and debugging. */
    void setFastPath(bool on) { fastPath_ = on; }

    /** Fast-path hit/miss counters (informational). */
    const FastPathStats &fastStats() const { return fastStats_; }

    /** Distinct (shape, offset-vector) patterns learned so far. */
    std::uint64_t fastPatterns() const { return cache_.patternsBuilt(); }

    /**
     * Stream @p words consecutive double-words starting at @p addr
     * through the network as one pipelined burst issued at @p start
     * (chunks issue at one word per cycle). This is the CE's burst
     * entry point; it dispatches to the analytic fast path when the
     * touched servers' queue state matches a learned pattern, and
     * otherwise reserves chunk by chunk (reserveChain). unloaded is
     * the shape's idle completion (ShapeInfo::unloaded).
     * complete == sim::max_tick when a dead module swallowed part of
     * the stream. A non-zero @p flow watches the burst: its flow
     * milestones (FlowPoints) go to the tracer, on either path.
     *
     * @throws sim::SimError when @p cluster or @p ce_port is out of
     *         range or @p words is 0.
     */
    XferResult burst(sim::Tick start, sim::ClusterId cluster, int ce_port,
                     sim::Addr addr, unsigned words,
                     std::uint32_t flow = 0);

    /**
     * Atomic read-modify-write of one global word (test&set,
     * fetch&add). Serialised at the memory module; always reserved
     * through the reference chain of its word's one-word shape, for
     * the module's RMW service (an RMW touches five servers, too few
     * for a pattern lookup to beat serving them).
     */
    XferResult rmw(sim::Tick when, sim::ClusterId cluster, int ce_port,
                   sim::Addr addr, const sim::RmwFn &f,
                   std::uint32_t flow = 0);

    /**
     * Fault injection: block every port of one switch (forward and
     * mirrored return crossbar) for @p duration ticks starting at
     * @p when. Traffic already reserved queues normally behind the
     * stall. @p stage selects stage-1 (per-cluster, @p idx is a
     * cluster) or stage-2 (per-group, @p idx is a module group).
     *
     * @throws sim::SimError when the stage or index is out of range.
     */
    void stallSwitch(sim::Tick when, unsigned stage, unsigned idx,
                     sim::Tick duration);

    /** Untimed RMW fallback (see mem::GlobalMemory::forceRmw). */
    std::uint64_t
    forceRmw(sim::Addr addr, const sim::RmwFn &f)
    {
        return gmem_.forceRmw(addr, f);
    }

    /** Queueing wait accumulated in switches and memory modules. */
    sim::Tick totalWaitTicks() const;

    /** Visit every port in the network, class by class (stage1,
     *  stage2, returnA, returnB) and switch by switch. */
    void visitPorts(
        const std::function<void(const PortSite &,
                                 const sim::FifoServer &)> &f) const;

    void reset();

  private:
    unsigned nClusters_;
    unsigned cesPerCluster_;
    mem::GlobalMemory &gmem_;
    obs::Tracer *tracer_ = nullptr;
    bool fastPath_ = true;
    BurstPatternCache cache_;
    FastPathStats fastStats_;

    /** One class of ports: its switches, their ports, and where the
     *  class starts in ports_. */
    struct PortClass
    {
        unsigned switches; //!< one per cluster, or per module group
        unsigned ports;    //!< per switch
        std::size_t base;  //!< its first port's index in ports_
    };

    /** Every port, in visitPorts order. A stage-1 switch has a port
     *  per module group, a stage-2 and a return-A one a port per
     *  cluster, a return-B one a port per CE. Ports never move. */
    std::vector<sim::FifoServer> ports_;
    /** The port classes, in ResourceClass order: stage1 to returnB. */
    std::array<PortClass, 4> table_{};

    /** The position, among its class's ports, of the server a serve
     *  of @p cls at @p idx (a ServerRef's) stands for when the
     *  issuing CE is (@p cluster, @p ce_port); a module's is its
     *  index. A flow milestone names its resource by it. */
    unsigned position(obs::ResourceClass cls, unsigned idx,
                      sim::ClusterId cluster, int ce_port) const;

    /** The live server a ServerRef's @p cls and @p idx stand for when
     *  the issuing CE is (@p cluster, @p ce_port). */
    sim::FifoServer &server(obs::ResourceClass cls, std::uint32_t idx,
                            sim::ClusterId cluster, int ce_port);

    /** @p sh's servers for the issuing CE, in ShapeInfo::servers
     *  order, resolved on the CE's first access of the shape. */
    sim::FifoServer *const *resolved(ShapeInfo &sh, sim::ClusterId cluster,
                                     int ce_port);

    /** One unrecorded access of @p sh on the live servers @p srv:
     *  every serve's wait goes to the tracer, and for a watched access
     *  (@p flow != 0) its flow milestones. */
    Reservation reserveLive(const ShapeInfo &sh, sim::FifoServer *const *srv,
                            sim::Tick start, sim::Tick mem_service,
                            sim::ClusterId cluster, int ce_port,
                            std::uint32_t flow);

    /** One burst of shape @p sh: the fast-path replay when eligible
     *  and a pattern matches, otherwise the chain on the live servers
     *  (recording the run when the miss earned it). A watched burst's
     *  milestones come from whichever ran. */
    Reservation reserveBurst(ShapeInfo &sh, sim::Tick start,
                             sim::ClusterId cluster, int ce_port,
                             std::uint32_t flow);

    /** Hand the serves @p fp kept to the tracer as @p flow's
     *  milestones, each on its resource for the issuing CE. */
    void emitFlow(const FlowPoints &fp, std::uint32_t flow,
                  sim::ClusterId cluster, int ce_port) const;

    // ----- analytic fast path (see net/fastpath.hh) -----

    /** Gather the canonical offsets of @p sh's touched servers @p srv
     *  into keyScratch_ and look up their pattern. On a match, apply it
     *  (the shape's serve counts and service ticks, the pattern's wait
     *  sums, horizons and condensed waits) and its timing into @p r —
     *  bit-identical to the slow path — and return it. Returns nullptr
     *  to take the slow path; @p record is then set when the slow-path
     *  run should be recorded (second sighting). */
    const std::uint32_t *fastReplay(const ShapeInfo &sh,
                                    sim::FifoServer *const *srv,
                                    sim::Tick start, Reservation &r,
                                    bool &record);

    /** Reused canonical-offset key (single-threaded per Machine). */
    std::vector<std::uint32_t> keyScratch_;
    /** Reused per-class wait tallies and per-server sums for pattern
     *  recording, the sums in the shape's canonical server order. */
    ClassWaits waitCounts_;
    std::vector<PatternServer> recScratch_;
};

/**
 * The reservation chain of one global access, walked from its shape's
 * compiled steps (ShapeInfo::chain): the one place it is served. Every
 * chunk of a burst, or the one word of an RMW, reserves stage1 ->
 * stage2 -> each module word (served for @p mem_service) -> returnA ->
 * returnB on @p srv, the shape's servers in ShapeInfo::servers order,
 * the CE issuing the stream pipelined at one word per cycle from
 * @p start. Latency compositions saturate; a saturated arrival makes
 * FifoServer::serve throw its overflow error.
 *
 * A module with a fault plan in @p faults (nullptr: no plan anywhere)
 * serves through GlobalMemory::serveWord, which applies its windows;
 * every other module word is served directly. A dead module swallows
 * its word: its chunk has no return traffic and the access never
 * completes.
 *
 * @p seen(cls, pos, idx, arrival, start, done) sees each reservation,
 * in serve order: cls is the server's class, pos its position in
 * @p srv, idx its ServerRef::idx (a group, a module, or 0). The
 * live variants are in network.cc (Network::reserveLive and the
 * recording in Network::reserveBurst), the idle probe in fastpath.cc
 * (BurstPatternCache::makeShape).
 */
template <typename Seen>
Reservation
reserveChain(const ShapeInfo &sh, sim::FifoServer *const *srv,
             mem::GlobalMemory *faults, sim::Tick start,
             sim::Tick mem_service, Seen &&seen)
{
    using C = obs::ResourceClass;
    constexpr sim::Tick hop = Network::hop_latency;
    const auto port = [srv, &seen](C cls, std::uint32_t pos, unsigned idx,
                                   sim::Tick arrival, unsigned len) {
        const sim::Tick done = srv[pos]->serve(arrival, len);
        seen(cls, pos, idx, arrival, done - len, done);
        return done;
    };

    Reservation r;
    r.complete = start;
    for (const ChainStep &c : sh.chain) {
        const sim::Tick issue = sim::satAdd(start, c.issue);
        const sim::Tick t1 = port(C::stage1_port, c.stage1, c.group,
                                  sim::satAdd(issue, hop), c.len);
        const sim::Tick t2 = port(C::stage2_port, c.stage2, c.group,
                                  sim::satAdd(t1, hop), c.len);
        const sim::Tick arrival = sim::satAdd(t2, hop);
        sim::Tick memdone = 0;
        for (unsigned i = 0; i < c.len; ++i) {
            const unsigned m = c.module + i;
            sim::Tick s;
            sim::Tick done;
            if (faults != nullptr && faults->faulted(m)) {
                const auto w = faults->serveWord(m, arrival, mem_service);
                if (w.dead) {
                    r.dead = true;
                    memdone = sim::max_tick;
                    continue;
                }
                s = w.start;
                done = w.done;
            } else {
                done = srv[c.modules + i]->serve(arrival, mem_service);
                s = done - mem_service;
            }
            seen(C::memory_module, c.modules + i, m, arrival, s, done);
            memdone = std::max(memdone, done);
        }
        if (memdone == sim::max_tick) {
            r.complete = sim::max_tick; // no response, no return traffic
            continue;
        }
        const sim::Tick t3 = port(C::return_a_port, c.returnA, c.group,
                                  sim::satAdd(memdone, hop), c.len);
        const sim::Tick t4 = port(C::return_b_port, c.returnB, 0,
                                  sim::satAdd(t3, hop), c.len);
        r.complete = std::max(r.complete, sim::satAdd(t4, hop));
    }
    return r;
}

} // namespace cedar::net

#endif // CEDAR_NET_NETWORK_HH
