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
#include <iosfwd>
#include <utility>
#include <vector>

#include "mem/global_memory.hh"
#include "net/crossbar.hh"
#include "net/fastpath.hh"
#include "obs/resource.hh"
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
    sim::Tick unloaded; //!< zero-contention latency of the same path
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
 * Identity of one crossbar port, as handed to Network::visitPorts:
 * the bank tag names the structural role (the observability layer
 * maps it to a resource class), bankName is the owning crossbar's
 * display name.
 */
struct PortSite
{
    const char *bank; //!< "stage1" | "stage2" | "returnA" | "returnB"
    const std::string &bankName;
    unsigned portIdx;
};

/** How often the analytic fast path fired vs fell back; purely
 *  informational (bench reporting, test assertions). */
struct FastPathStats
{
    std::uint64_t fastBursts = 0; //!< bursts replayed from a pattern
    std::uint64_t slowBursts = 0; //!< bursts served by reserveAccess
    std::uint64_t fastRmws = 0;   //!< RMWs replayed from a pattern
    std::uint64_t slowRmws = 0;   //!< RMWs served by reserveAccess

    std::uint64_t hits() const { return fastBursts + fastRmws; }
    std::uint64_t misses() const { return slowBursts + slowRmws; }
};

/** What one global access reserves (reserveAccess). */
enum class Access : std::uint8_t
{
    burst, //!< a pipelined stream, chunk by chunk
    chunk, //!< one chunk as given (Network::chunkAccess)
    rmw,   //!< one atomic read-modify-write word
};

/** What reserveAccess leaves behind. */
struct Reservation
{
    /** When the response reaches the CE; sim::max_tick when a dead
     *  module swallowed a word. */
    sim::Tick complete = 0;
    unsigned lastLen = 0; //!< the last chunk's word count
    bool dead = false;    //!< some module never served its word
};

/**
 * The network plus the memory behind it; the single entry point the
 * CE's global interface uses for all global-memory traffic.
 */
class Network
{
  public:
    /** Per-stage wire/setup latency in cycles. */
    static constexpr sim::Tick hop_latency = 2;

    /**
     * Build the two-stage network for @p n_clusters clusters of
     * @p ces_per_cluster CEs in front of @p gmem (whose AddressMap
     * determines the stage-2 switch count).
     *
     * @throws sim::ConfigError on a degenerate geometry.
     */
    Network(unsigned n_clusters, unsigned ces_per_cluster,
            mem::GlobalMemory &gmem);

    unsigned numClusters() const { return nClusters_; }

    /** Interleaving geometry of the memory behind the network. */
    const mem::AddressMap &gmemMap() const { return gmem_.map(); }

    /** Attach the telemetry tracer (queueing waits, flow stages). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** Enable/disable the analytic fast path (RunOptions::fastPath,
     *  `cedar_cli --no-fast-path`). Results are bit-identical either
     *  way; the toggle exists for A/B timing and debugging. */
    void setFastPath(bool on) { fastPath_ = on; }
    bool fastPathEnabled() const { return fastPath_; }

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
     * otherwise reserves chunk by chunk (reserveAccess).
     * complete == sim::max_tick when a dead module swallowed part of
     * the stream.
     *
     * @throws sim::SimError when @p cluster is out of range or
     *         @p words is 0.
     */
    XferResult burst(sim::Tick start, sim::ClusterId cluster, int ce_port,
                     sim::Addr addr, unsigned words,
                     std::uint32_t flow = 0);

    /**
     * Transfer one chunk (<= one module-group span) between a CE and
     * the global memory. Reads and writes share path timing. A
     * non-zero @p flow tags the transfer's telemetry milestones.
     */
    XferResult chunkAccess(sim::Tick when, sim::ClusterId cluster,
                           int ce_port, const mem::Chunk &chunk,
                           std::uint32_t flow = 0);

    /**
     * Atomic read-modify-write of one global word (test&set,
     * fetch&add). Serialised at the memory module.
     */
    XferResult rmw(sim::Tick when, sim::ClusterId cluster, int ce_port,
                   sim::Addr addr, const sim::RmwFn &f,
                   std::uint32_t flow = 0);

    /** Zero-contention latency of a chunk of @p len words. */
    static sim::Tick unloadedLatency(unsigned len, bool is_rmw = false);

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

    /** Queueing wait accumulated in switches (not memory modules). */
    sim::Tick switchWaitTicks() const;

    /** Queueing wait accumulated in switches and memory modules. */
    sim::Tick totalWaitTicks() const;

    const Crossbar &stage1(sim::ClusterId c) const { return stage1_.at(c); }
    const Crossbar &stage2(unsigned g) const { return stage2In_.at(g); }

    /** Visit every port server in the network (snapshotting). */
    void visitPorts(
        const std::function<void(const PortSite &,
                                 const sim::FifoServer &)> &f) const;

    /** Visit every port server for wiring (e.g. attaching the
     *  observability layer's wait histograms). */
    void visitPortsMut(
        const std::function<void(const PortSite &, sim::FifoServer &)>
            &f);

    /**
     * Human-readable utilisation report of every switch stage and
     * the memory modules over the first @p elapsed ticks: request
     * counts, busy fractions and mean queueing waits. The tool for
     * finding *where* contention concentrated.
     */
    void report(std::ostream &os, sim::Tick elapsed) const;

    void reset();

  private:
    unsigned nClusters_;
    unsigned cesPerCluster_;
    mem::GlobalMemory &gmem_;
    obs::Tracer *tracer_ = nullptr;
    bool fastPath_ = true;
    BurstPatternCache cache_;
    FastPathStats fastStats_;

    /** Per cluster: output ports, one per stage-2 switch. */
    std::vector<Crossbar> stage1_;
    /** Per module group: input ports, one per cluster. */
    std::vector<Crossbar> stage2In_;
    /** Return path, stage A: per group, output ports per cluster. */
    std::vector<Crossbar> returnA_;
    /** Return path, stage B: per cluster, output ports per CE. */
    std::vector<Crossbar> returnB_;

    /** Telemetry resource index of the port fastServer() resolves
     *  a port @p bank and @p group to. */
    std::int32_t portIndex(FastBank bank, unsigned group,
                           sim::ClusterId cluster, int ce_port) const;

    /** reserveAccess policies over the live servers: observed
     *  through the tracer (Live) or, on a fast-path miss, straight
     *  into the MetricsHub and optionally recorded as a pattern
     *  (Recorder). */
    struct LiveServers;
    struct Live;
    struct Recorder;

    /** One burst or RMW: the fast-path replay when eligible and a
     *  pattern matches, otherwise reserveAccess on the live servers
     *  (recording the run when the miss earned it). */
    Reservation reserve(sim::Tick start, sim::ClusterId cluster,
                        int ce_port, sim::Addr addr, unsigned words,
                        Access kind, std::uint32_t flow);

    // ----- analytic fast path (see net/fastpath.hh) -----

    /** What a fast-path miss leaves behind for the recording: the
     *  shape and whether the run about to happen should be recorded
     *  as this offset vector's pattern (second sighting). The
     *  canonical offsets themselves stay in offsetScratch_. */
    struct FastMissCtx
    {
        ShapeInfo *sh = nullptr;
        bool record = false;      //!< capture the run's serves
        bool exactRecord = false; //!< exact vector sighted twice
        bool paramRecord = false; //!< family key sighted twice
        std::uint8_t paramMask = 0; //!< gather-time shift-keyed banks
    };

    /** May the fast path even be attempted for this access? */
    bool fastEligible(std::uint32_t flow) const;

    /** Resolve a position-free bank/index pair to the live server it
     *  stands for, given the issuing cluster and CE port. */
    sim::FifoServer &fastServer(FastBank bank, std::uint32_t idx,
                                sim::ClusterId cluster, int ce_port);

    /** The shape's touched servers resolved for (cluster, ce_port),
     *  cached in the ShapeInfo on first use. */
    const std::vector<sim::FifoServer *> &
    resolvedServers(ShapeInfo &sh, sim::ClusterId cluster, int ce_port);

    /** Gather the touched servers' relative free-horizon offsets,
     *  look up the matching pattern, and apply it: batched server
     *  statistics, batched telemetry, and the returned timing are
     *  bit-identical to the slow path. Returns false to take the
     *  slow path (no pattern yet, store capped, an offset out of
     *  range, or too close to the tick ceiling); @p miss then
     *  carries what the recording needs. */
    bool fastReplay(sim::Tick start, sim::ClusterId cluster, int ce_port,
                    unsigned first_module, unsigned words, bool is_rmw,
                    FastMissCtx &miss, sim::Tick &rel_complete,
                    unsigned &last_len);

    /**
     * Replay a pattern *family* member (DESIGN.md §10.2). Computes
     * the per-bank shift algebra in DAG order — beta_b (arrival
     * shift) is the alpha of the upstream bank, alpha_b (serve-start
     * shift) is the bank's own base delta when shift-keyed and
     * beta_b when passive — validates the one-sided constraints the
     * recording proved sufficient, and applies the recorded pattern
     * with each bank's stats, horizons and published waits shifted
     * by its (alpha, alpha - beta). Returns false (take the slow
     * path) when the member lies outside the family's validity
     * range or too close to the tick ceiling.
     */
    bool applyParam(const ParamPattern &pp,
                    const std::array<sim::Tick, fast_bank_count> &bases,
                    sim::Tick start, const ShapeInfo &sh,
                    const std::vector<sim::FifoServer *> &srvs,
                    sim::Tick &rel_complete, unsigned &last_len);

    /** Reused offset-gather buffer (single-threaded per Machine). */
    std::vector<sim::Tick> offsetScratch_;
    /** Reused per-serve (class, wait) capture for pattern recording. */
    std::vector<std::pair<obs::ResourceClass, sim::Tick>> waitScratch_;
    /** Reused per-server sums for pattern recording, in the shape's
     *  canonical server order. */
    std::vector<PatternServer> recScratch_;
    /** Reused family-key buffer (base-subtracted offsets + mask). */
    std::vector<sim::Tick> paramScratch_;
    /** Gather-time per-bank bases of the candidate family key. */
    std::array<sim::Tick, fast_bank_count> paramBase_{};
};

/**
 * The reservation chain of one global access, written once. Every
 * chunk of a burst, the one chunk of Network::chunkAccess, or the
 * one RMW word (@p kind) reserves stage1 -> stage2 -> each module
 * word -> returnA -> returnB, the CE issuing the stream pipelined at
 * one word per cycle from @p start. Latency compositions saturate
 * instead of wrapping; a saturated arrival makes FifoServer::serve
 * throw its overflow error, which is the behaviour the reservation
 * layer defines at the ceiling. A dead module swallows its word: its
 * chunk has no return traffic and the access never completes.
 *
 * The policy @p pol decides where the serves land and who sees them:
 *  - `sim::FifoServer &server(FastBank bank, unsigned idx)`: the
 *    stage1/stage2/returnA port of group @p idx, or the issuing CE's
 *    returnB port (idx 0);
 *  - `mem::GlobalMemory &memory()`: the modules and their faults;
 *  - `void served(FastBank bank, unsigned idx, sim::Tick arrival,
 *    sim::Tick free_before, sim::Tick start, sim::Tick done)`: one
 *    reservation, in serve order (@p idx as above, or the module).
 * Three policies exist: the Network's live telemetry and fast-path
 * recording, and BurstPatternCache::makeShape's idle probe.
 */
template <typename Policy>
Reservation
reserveAccess(Policy &pol, sim::Tick start, sim::Addr addr,
              unsigned words, Access kind)
{
    constexpr sim::Tick hop = Network::hop_latency;
    mem::GlobalMemory &gmem = pol.memory();
    const mem::AddressMap &map = gmem.map();
    const sim::Tick mem_service = kind == Access::rmw
                                      ? mem::GlobalMemory::rmw_service
                                      : mem::GlobalMemory::word_service;

    const auto port = [&pol](FastBank bank, unsigned idx,
                             sim::Tick arrival, unsigned len) {
        sim::FifoServer &s = pol.server(bank, idx);
        const sim::Tick free_before = s.freeAt();
        const sim::Tick done = s.serve(arrival, len);
        pol.served(bank, idx, arrival, free_before, done - len, done);
        return done;
    };

    Reservation r;
    r.complete = start;
    for (unsigned issued = 0; issued < words;) {
        // A burst splits at module-group boundaries; a chunk or RMW
        // is reserved as given.
        const mem::Chunk c{addr + issued,
                           kind == Access::burst
                               ? map.chunkLen(addr + issued, words - issued)
                               : words};
        const sim::Tick issue = sim::satAdd(start, issued);
        issued += c.len;
        r.lastLen = c.len;
        const unsigned g = map.group(c.addr);
        const sim::Tick t1 =
            port(FastBank::stage1, g, sim::satAdd(issue, hop), c.len);
        const sim::Tick t2 =
            port(FastBank::stage2, g, sim::satAdd(t1, hop), c.len);
        const sim::Tick arrival = sim::satAdd(t2, hop);
        sim::Tick memdone = 0;
        for (unsigned i = 0; i < c.len; ++i) {
            const unsigned m = map.module(c.addr + i);
            const auto w = gmem.serveWord(m, arrival, mem_service);
            if (w.dead) {
                r.dead = true;
                memdone = sim::max_tick;
                continue;
            }
            pol.served(FastBank::module, m, arrival, w.freeBefore,
                       w.start, w.done);
            memdone = std::max(memdone, w.done);
        }
        if (memdone == sim::max_tick) {
            r.complete = sim::max_tick; // no response, no return traffic
            continue;
        }
        const sim::Tick t3 =
            port(FastBank::returnA, g, sim::satAdd(memdone, hop), c.len);
        const sim::Tick t4 =
            port(FastBank::returnB, 0, sim::satAdd(t3, hop), c.len);
        r.complete = std::max(r.complete, sim::satAdd(t4, hop));
    }
    return r;
}

} // namespace cedar::net

#endif // CEDAR_NET_NETWORK_HH
