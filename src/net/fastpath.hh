/**
 * @file
 * Analytic fast-forward patterns for global-memory bursts.
 *
 * Every global access in the model is reservation based: the whole
 * stage1 -> stage2 -> module -> returnA -> returnB path of a burst
 * is reserved synchronously at issue time (sim/fifo_server.hh). The
 * set of servers a burst touches is a pure function of its *shape*
 * (home module of the first word and word count) — the routing
 * depends only on addresses. Given the shape, the entire
 * reservation outcome is determined by one more input: each touched
 * server's free horizon *relative to the access start*,
 *
 *   offsets[i] = max(0, freeAt_i - start).
 *
 * This holds because FifoServer::serve computes
 * start = max(arrival, not_before, free_at); with no fault windows
 * (not_before = 0) every serve start, wait and updated horizon is a
 * function of (arrival - start, offset) alone, so
 *
 *   outcome(start, offsets) = outcome(0, offsets) + start.
 *
 * The special case offsets == 0 is the idle machine; non-zero
 * offsets capture *contention*, including the convoys a saturated
 * streaming phase forms, where the same few offset vectors recur
 * thousands of times (queueing reaches a near-periodic steady
 * state).
 *
 * Per touched server, the number of serves and their service ticks
 * are constants of the shape as well (routing follows addresses, and
 * without a memory fault plan every service is the port's chunk
 * length or the module's fixed service time), so the shape's idle
 * probe notes them once (ShapeInfo). A BurstPattern is learned per
 * (shape, offset vector) and stores only what differs between two
 * accesses of one shape: per touched server the wait sum and
 * relative free horizon, the completion tick, and the aggregated
 * per-class queueing waits the tracer would have been handed. The
 * pattern is *recorded off the live slow-path run* the missing
 * access takes anyway: the one reservation chain
 * (net::reserveAccess) captures every serve of it — by the
 * translation invariance above, those sums are exactly what a
 * scratch replay at start = 0 pre-loaded with the offsets would
 * produce, at almost no extra cost. Replaying a learned pattern is
 * O(touched servers) instead of O(words), and leaves server
 * statistics, the tracer's wait histograms and the returned timing
 * bit-identical
 * to the slow path — reuse requires an *exact* offset-vector match,
 * so the replay is self-verifying (the correctness bar: not a single
 * published number may change — see tests/test_fastpath.cc).
 *
 * Only bursts take this path. An RMW touches five servers, and
 * gathering, hashing and probing five offsets does not beat serving
 * them, so Network::rmw always reserves through the reference chain.
 */

#ifndef CEDAR_NET_FASTPATH_HH
#define CEDAR_NET_FASTPATH_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/address_map.hh"
#include "obs/resource.hh"
#include "sim/types.hh"

namespace cedar::sim
{
class FifoServer;
}

namespace cedar::net
{

/** Structural bank of one pattern entry's server. Which concrete
 *  FifoServer it resolves to depends on the issuing cluster/CE
 *  (Network::fastServer) — the pattern itself is position free. */
enum class FastBank : std::uint8_t
{
    stage1,  //!< stage-1 output port `idx` (a module group)
    stage2,  //!< stage-2 input port of group `idx` (cluster column)
    returnA, //!< return stage A port of group `idx`
    returnB, //!< return stage B port (the issuing CE's own port)
    module,  //!< memory module `idx`
};

/** Position-free identity of one server an access shape touches. */
struct ServerRef
{
    FastBank bank;
    std::uint32_t idx; //!< group or module index (bank-relative)
};

/** What one touched server's reservation outcome adds to the shape's
 *  constants (ShapeInfo::requests/busy), ticks relative to the access
 *  start. */
struct PatternServer
{
    sim::Tick waitSum; //!< queueing recorded
    sim::Tick freeAt;  //!< server's free horizon afterwards
};

/** Aggregated queueing waits of one pattern: @p count waits of
 *  @p wait ticks at class @p cls. */
struct PatternWaits
{
    obs::ResourceClass cls;
    sim::Tick wait;
    std::uint64_t count;
};

/** The reservation outcome of one (shape, offsets) pair at
 *  start = 0. */
struct BurstPattern
{
    sim::Tick relComplete = 0; //!< completion tick relative to start
    std::vector<PatternServer> servers;
    std::vector<PatternWaits> waits;
};

/** Number of FastBank values — per-bank arrays below index by the
 *  underlying enum value. */
inline constexpr unsigned fast_bank_count = 5;

/** FNV-1a over the raw offset ticks; equality stays the exact
 *  element-wise vector compare, so a hash collision can never apply
 *  the wrong pattern. */
struct OffsetVecHash
{
    std::size_t
    operator()(const std::vector<sim::Tick> &v) const
    {
        std::uint64_t h = 1469598103934665603ULL;
        for (const sim::Tick t : v)
            h = (h ^ t) * 1099511628211ULL;
        return static_cast<std::size_t>(h);
    }
};

/** One access shape: its touched-server set (fixed canonical order,
 *  the order offsets are gathered and keyed in), what every access of
 *  the shape serves there, and the patterns learned per distinct
 *  offset vector. */
struct ShapeInfo
{
    unsigned firstModule = 0;
    unsigned words = 0;
    std::vector<ServerRef> servers;

    /**
     * Per touched server (same order as @p servers): the tick of the
     * shape's *first* request arrival at that server in the idle
     * (all-offsets-zero) replay, relative to the access start. Used
     * to canonicalize offset vectors before keying: replay arrivals
     * are monotone non-decreasing in the offsets (every serve start
     * is a max of arrival and horizons), so any replay's arrival at
     * server j is >= firstArrival[j]. An offset o_j <=
     * firstArrival[j] therefore never delays the first serve
     * (max(arrival, o_j) == arrival) nor records wait, and after the
     * first serve the server queues behind its own work — the
     * outcome is bit-identical to o_j == 0. Such don't-care offsets
     * are zeroed before the cache lookup, collapsing the
     * convoy-diverse vectors 16/32p runs produce onto one canonical
     * key (DESIGN.md §10.1).
     */
    std::vector<sim::Tick> firstArrival;

    /** Per touched server: the serve() calls and service ticks of
     *  every access of the shape, noted by the idle probe. */
    std::vector<std::uint32_t> requests;
    std::vector<sim::Tick> busy;
    unsigned lastLen = 0; //!< the last chunk's word count (unloaded)

    std::unordered_map<std::vector<sim::Tick>, BurstPattern,
                       OffsetVecHash>
        patterns;

    /** Where bank b's entries start in @p servers (banks are
     *  contiguous: makeShape emits servers in flat-index order). */
    std::array<std::uint32_t, fast_bank_count> bankBegin{};

    /** Rank of a group / module among the shape's touched ones —
     *  maps a recorded serve's (bank, group/module) coordinates to
     *  the bank-relative position in @p servers. */
    std::vector<std::uint32_t> groupRank;
    std::vector<std::uint32_t> moduleRank;

    /**
     * Per issuing CE, at its flat index (cluster * CEs per cluster +
     * CE port): the concrete FifoServer each @p servers entry
     * resolves to, in the same order; empty until that CE first
     * issues the shape. Resolving the position-free refs costs a bank
     * switch per server per attempt; the offset gather and the replay
     * apply run once per global access, so the Network caches the
     * resolution here on first use (server storage is sized at
     * construction and never moves).
     */
    std::vector<std::vector<sim::FifoServer *>> resolved;
};

/**
 * Memoized pattern store, one per Network (and therefore per
 * Machine: single-threaded by the same ownership rule as the
 * machine's obs::Tracer). Applications issue a small set of access shapes
 * millions of times, and contended phases queue into near-periodic
 * steady states with few distinct offset vectors, so the cache stays
 * small while the replay savings compound.
 */
class BurstPatternCache
{
  public:
    /** Offsets at or above this bound skip the fast path: they would
     *  push the scratch replay's internal arithmetic toward the tick
     *  ceiling, where the slow path's own overflow behaviour (a
     *  SimError from serve()) must stay authoritative. */
    static constexpr sim::Tick max_offset = sim::Tick(1) << 40;

    /** Learned patterns stop growing past this approximate byte
     *  footprint across all shapes; later unseen offset vectors just
     *  take the slow path. A byte budget rather than an entry count:
     *  a pattern's size follows its shape's touched servers (5 for a
     *  one-word burst, about 57 for a long one), so a count would
     *  bound the footprint only to within an order of magnitude. */
    static constexpr std::size_t max_pattern_bytes = 192u << 20;

    explicit BurstPatternCache(const mem::AddressMap &map) : map_(map)
    {
        // Contended 16/32p sweeps note tens of thousands of one-shot
        // offset vectors; growing the sighting table from its default
        // size rehashes a dozen times along the way (measured in the
        // 32p profile). One up-front reservation amortises it.
        sightings_.reserve(1u << 15);
    }

    /** The shape record for a burst of @p words whose first word
     *  lives on @p first_module; its touched-server list is derived
     *  on first use. */
    ShapeInfo &
    shape(unsigned first_module, unsigned words)
    {
        const std::uint64_t key = shapeKey(first_module, words);
        auto it = shapes_.find(key);
        if (it == shapes_.end())
            it = shapes_.emplace(key, makeShape(first_module, words)).first;
        return it->second;
    }

    /** The learned pattern for @p sh under @p offsets (one entry per
     *  sh.servers element, same order), or nullptr when this vector
     *  has none yet. Pure lookup — learning happens through
     *  shouldRecord()/store(): the Network records the pattern off
     *  the slow-path run it is about to execute anyway, instead of
     *  paying a second full scratch replay to build it. */
    const BurstPattern *
    find(const ShapeInfo &sh, const std::vector<sim::Tick> &offsets) const
    {
        const auto it = sh.patterns.find(offsets);
        return it != sh.patterns.end() ? &it->second : nullptr;
    }

    /**
     * After a find() miss: should the slow-path run this access is
     * about to take be recorded as the pattern for @p offsets?
     * True only on the *second* sighting of an offset vector:
     * heavily contended sweeps produce long tails of one-shot queue
     * states whose patterns would never be replayed — the recording
     * bookkeeping and the stored bytes would be pure overhead. The
     * sighting note is a 64-bit hash, so a collision merely records
     * one pattern a sighting early; the pattern map itself still
     * matches vectors exactly. False as well when the store hit its
     * byte cap or an offset is out of replayable range.
     */
    bool
    shouldRecord(const ShapeInfo &sh,
                 const std::vector<sim::Tick> &offsets)
    {
        if (patternBytes_ >= max_pattern_bytes)
            return false;
        for (const sim::Tick o : offsets)
            if (o >= max_offset)
                return false;
        return ++sightings_[sightingKey(sh, offsets)] >= 2;
    }

    /** File a pattern recorded from a live slow-path run under
     *  @p offsets (the canonical vector the gather produced for it). */
    void
    store(ShapeInfo &sh, const std::vector<sim::Tick> &offsets,
          BurstPattern &&p)
    {
        ++patternsBuilt_;
        patternBytes_ += sizeof(BurstPattern) +
                         p.servers.size() * sizeof(PatternServer) +
                         p.waits.size() * sizeof(PatternWaits) +
                         offsets.size() * sizeof(sim::Tick);
        sh.patterns.emplace(offsets, std::move(p));
    }

    /** Distinct (shape, offsets) patterns learned so far. */
    std::uint64_t patternsBuilt() const { return patternsBuilt_; }

  private:
    /** A shape from its idle probe: the reservation chain replayed
     *  once on an empty scratch machine (net::reserveAccess). */
    ShapeInfo makeShape(unsigned first_module, unsigned words) const;

    static std::uint64_t
    shapeKey(unsigned first_module, unsigned words)
    {
        return (static_cast<std::uint64_t>(first_module) << 32) | words;
    }

    static std::uint64_t
    sightingKey(const ShapeInfo &sh, const std::vector<sim::Tick> &offsets)
    {
        const std::uint64_t h = OffsetVecHash{}(offsets) ^
                                shapeKey(sh.firstModule, sh.words);
        return h * 0x9e3779b97f4a7c15ULL;
    }

    mem::AddressMap map_;
    std::unordered_map<std::uint64_t, ShapeInfo> shapes_;
    std::unordered_map<std::uint64_t, std::uint32_t> sightings_;
    std::uint64_t patternsBuilt_ = 0;
    std::size_t patternBytes_ = 0;
};

} // namespace cedar::net

#endif // CEDAR_NET_FASTPATH_HH
