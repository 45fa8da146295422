/**
 * @file
 * Analytic fast-forward patterns for global-memory traffic.
 *
 * Every global access in the model is reservation based: the whole
 * stage1 -> stage2 -> module -> returnA -> returnB path of a burst
 * is reserved synchronously at issue time (sim/fifo_server.hh). The
 * set of servers an access touches is a pure function of its *shape*
 * (home module of the first word, word count, burst vs RMW) — the
 * routing depends only on addresses. Given the shape, the entire
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
 * A BurstPattern is therefore learned per (shape, offset vector). It
 * records per touched server the request/wait/busy sums and relative
 * free horizon, plus the aggregated per-class queueing waits the
 * telemetry layer would have published. The pattern is *recorded off
 * the live slow-path run* the missing access takes anyway: the one
 * reservation chain (net::reserveAccess) captures every serve of it
 * — by the translation invariance above, those sums are exactly what
 * a scratch replay at start = 0 pre-loaded with the offsets would
 * produce, at almost no extra cost. Replaying a learned pattern is
 * O(touched servers) instead of O(words), and leaves server
 * statistics, the MetricsHub and the returned timing bit-identical
 * to the slow path — reuse requires an *exact* offset-vector match,
 * so the replay is self-verifying (the correctness bar: not a single
 * published number may change — see tests/test_fastpath.cc).
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

/** One touched server's aggregated reservation outcome, all ticks
 *  relative to the access start. */
struct PatternServer
{
    FastBank bank;
    std::uint32_t idx;      //!< group or module index (bank-relative)
    std::uint32_t requests; //!< serve() calls replayed
    sim::Tick waitSum;      //!< queueing recorded
    sim::Tick busySum;      //!< service recorded
    sim::Tick freeAt;       //!< server's free horizon afterwards
};

/** Aggregated resource_wait telemetry of one pattern: @p count
 *  events of @p wait ticks at class @p cls. */
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
    unsigned lastLen = 0;      //!< last chunk's word count (unloaded)
    std::vector<PatternServer> servers;
    std::vector<PatternWaits> waits;
};

/** Number of FastBank values — per-bank arrays below index by the
 *  underlying enum value. */
inline constexpr unsigned fast_bank_count = 5;

/**
 * One *family* of reservation outcomes, parameterized by per-bank
 * uniform shifts of the offset vector (DESIGN.md §10.2).
 *
 * The serve DAG of a burst is feed-forward through the banks in the
 * fixed order stage1 -> stage2 -> module -> returnA -> returnB (CE
 * issue times are offset-independent). Saturated convoys at 16/32p
 * produce offset vectors that are per-bank rigid ladders — within a
 * bank, the entries keep a fixed relative profile while the bank's
 * *base* level drifts from burst to burst. When the recorded run
 * proves that every serve of a base-subtracted ("shift-keyed") bank
 * was horizon-bound, raising or lowering that bank's base by a
 * uniform delta shifts exactly that bank's serve starts, waits and
 * horizons by computable amounts and leaves branch decisions (every
 * max()) intact — so one recording replays bit-identically for the
 * whole one-sided family of base levels. See Network::applyParam for
 * the shift algebra and validity checks.
 */
struct ParamPattern
{
    BurstPattern pat;
    /** Recorded base level per shift-keyed bank (the minimum
     *  canonical offset of the bank, subtracted when keying). */
    std::array<sim::Tick, fast_bank_count> base{};
    /**
     * Per-bank validity constant c_b, from the recorded run.
     * Shift-keyed banks: c_b = max over the bank's serves of
     * arrival - pre-serve horizon. c_b <= 0 means every serve was
     * horizon-bound (a "rigid" bank) and any delta_b - beta_b >= c_b
     * replays exactly; c_b > 0 means some serve was arrival-bound
     * and only delta_b == beta_b (the whole bank shifting uniformly
     * with its arrivals, which preserves every max() branch
     * trivially) is accepted. Passive banks: c_b = max over the
     * bank's servers of canonical offset - first recorded arrival.
     * beta_b == 0 replays the bank verbatim (offsets and arrivals
     * both identical to the recording) and is always valid;
     * otherwise validity needs c_b <= 0 and beta_b >= c_b, the
     * condition under which every first serve stays arrival-bound.
     * A stage1 bank that is passive because it sits below its static
     * rigidity floors (ShapeInfo::stage1Floor) always replays with
     * beta == 0, so c_b > 0 there is harmless. beta_b is the shift
     * of the bank's request arrivals — the serve-start shift of the
     * bank feeding it.
     */
    std::array<std::int64_t, fast_bank_count> cmin{};
    std::uint8_t mask = 0; //!< bit b set: bank b is shift-keyed
    /** Number of banks with cmin > 0 — banks the variant can only
     *  replay at one exact shift. 0 = fully general (every validity
     *  check is a one-sided slack); used as the eviction score. */
    std::uint8_t nonRigid = 0;
};

/**
 * The variants recorded under one family key. Distinct contention
 * regimes (ramp-up, steady convoy, drain) produce recordings whose
 * validity ranges don't cover each other; keeping a handful side by
 * side lets each regime hit its own variant instead of evicting the
 * others. Lookup tries them in recording order.
 */
using ParamFamily = std::vector<ParamPattern>;

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
 *  the order offsets are gathered and keyed in) and the patterns
 *  learned per distinct offset vector. */
struct ShapeInfo
{
    unsigned firstModule = 0;
    unsigned words = 0;
    bool isRmw = false;
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

    std::unordered_map<std::vector<sim::Tick>, BurstPattern,
                       OffsetVecHash>
        patterns;

    /**
     * Parametric pattern families (ParamPattern), keyed by the
     * canonical offset vector with each shift-keyed bank's base
     * subtracted, plus one trailing element holding the shift-key
     * mask. A bank is shift-keyed in the key iff all its entries are
     * nonzero — a purely structural rule both the recording and
     * every lookup apply identically.
     */
    std::unordered_map<std::vector<sim::Tick>, ParamFamily,
                       OffsetVecHash>
        paramPatterns;

    /** [bankBegin[b], bankBegin[b] + bankCount[b]) is bank b's range
     *  in @p servers (banks are contiguous: makeShape emits servers
     *  in flat-index order). */
    std::array<std::uint32_t, fast_bank_count> bankBegin{};
    std::array<std::uint32_t, fast_bank_count> bankCount{};

    /**
     * Per server (aligned with @p servers, nonzero only for stage1
     * entries): the offset at or above which *every* serve of that
     * server is horizon-bound. Stage1 arrivals are CE issue times —
     * static per shape — so the floor is exact: with all of the
     * bank's offsets at or above their floors the whole bank replays
     * rigidly under any base shift that keeps them there, and the
     * family apply constraint (delta >= c_stage1) reduces to exactly
     * this floor test. Below a floor the bank cannot shift rigidly
     * and the vector joins no family (see Network::fastReplay).
     */
    std::vector<sim::Tick> stage1Floor;

    /** Rank of a group / module among the shape's touched ones —
     *  maps a recorded serve's (bank, group/module) coordinates to
     *  the bank-relative position in @p servers. */
    std::vector<std::uint32_t> groupRank;
    std::vector<std::uint32_t> moduleRank;

    /**
     * Per issuing (cluster, CE port): the concrete FifoServer each
     * @p servers entry resolves to, in the same order. Resolving the
     * position-free refs costs a bank switch per server per attempt;
     * the offset gather and the replay apply run once per global
     * access, so the Network caches the resolution here on first use
     * (server storage is sized at construction and never moves).
     */
    std::unordered_map<std::uint32_t, std::vector<sim::FifoServer *>>
        resolved;
};

/**
 * Memoized pattern store, one per Network (and therefore per
 * Machine: single-threaded by the same ownership rule as the
 * TelemetryBus). Applications issue a small set of access shapes
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
     *  contended RMW patterns are ~50x smaller than long-burst ones,
     *  and sync-heavy runs want many of exactly those. */
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
     *  lives on @p first_module (or the single-word RMW shape);
     *  its touched-server list is derived on first use. */
    ShapeInfo &
    shape(unsigned first_module, unsigned words, bool is_rmw)
    {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(first_module) << 33) |
            (static_cast<std::uint64_t>(words) << 1) | (is_rmw ? 1u : 0u);
        auto it = shapes_.find(key);
        if (it == shapes_.end())
            it = shapes_.emplace(key, makeShape(first_module, words, is_rmw))
                     .first;
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

    /** The pattern family for @p key (base-subtracted canonical
     *  vector + mask element), or nullptr. */
    const ParamFamily *
    findParam(const ShapeInfo &sh, const std::vector<sim::Tick> &key) const
    {
        const auto it = sh.paramPatterns.find(key);
        return it != sh.paramPatterns.end() ? &it->second : nullptr;
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

    /** shouldRecord() for a pattern *family*: second sighting of the
     *  base-subtracted key. Separate sighting space (salted hash) —
     *  a family key deliberately recurs across bursts whose exact
     *  vectors never do. */
    bool
    shouldRecordParam(const ShapeInfo &sh,
                      const std::vector<sim::Tick> &key)
    {
        if (patternBytes_ >= max_pattern_bytes)
            return false;
        // A full family whose worst variant is already fully general
        // can never be improved — stop paying recording bookkeeping.
        const auto it = sh.paramPatterns.find(key);
        if (it != sh.paramPatterns.end() &&
            it->second.size() >= max_family_variants &&
            worstVariant(it->second)->nonRigid == 0)
            return false;
        return ++sightings_[sightingKey(sh, key) ^
                            0x517cc1b727220a95ULL] >= 2;
    }

    /** Would storeParam() actually keep a variant scoring
     *  @p non_rigid under @p key? Lets the recording side skip
     *  condensing a run whose variant would just be dropped. */
    bool
    wouldAcceptParam(const ShapeInfo &sh,
                     const std::vector<sim::Tick> &key,
                     unsigned non_rigid) const
    {
        const auto it = sh.paramPatterns.find(key);
        if (it == sh.paramPatterns.end() ||
            it->second.size() < max_family_variants)
            return true;
        return worstVariant(it->second)->nonRigid > non_rigid;
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

    /** Cap on recorded variants per family key: enough for the
     *  distinct contention regimes a loop exhibits, small enough that
     *  a lookup trying all of them stays trivial. */
    static constexpr std::size_t max_family_variants = 32;

    /**
     * File a new variant under its family key. A variant only ever
     * gets recorded when every stored one rejected a structurally
     * matching applicant (or the key was new), so distinct
     * contention regimes accumulate side by side instead of evicting
     * each other. When the key is full, a strictly worse-scoring
     * variant (more non-rigid banks, so a narrower validity range)
     * is replaced — monotone improvement, so regimes can't thrash —
     * and otherwise the newcomer is dropped: its regime keeps taking
     * the slow path, which is merely the status quo ante.
     */
    void
    storeParam(ShapeInfo &sh, const std::vector<sim::Tick> &key,
               ParamPattern &&p)
    {
        ParamFamily &fam = sh.paramPatterns[key];
        const std::size_t bytes =
            sizeof(ParamPattern) +
            p.pat.servers.size() * sizeof(PatternServer) +
            p.pat.waits.size() * sizeof(PatternWaits);
        if (fam.size() < max_family_variants) {
            ++patternsBuilt_;
            patternBytes_ +=
                bytes +
                (fam.empty() ? key.size() * sizeof(sim::Tick) : 0);
            fam.push_back(std::move(p));
            return;
        }
        ParamPattern *worst = worstVariant(fam);
        if (worst->nonRigid <= p.nonRigid)
            return;
        ++patternsBuilt_;
        patternBytes_ +=
            bytes - (sizeof(ParamPattern) +
                     worst->pat.servers.size() * sizeof(PatternServer) +
                     worst->pat.waits.size() * sizeof(PatternWaits));
        *worst = std::move(p);
    }

    /** Distinct (shape, offsets) patterns learned so far. */
    std::uint64_t patternsBuilt() const { return patternsBuilt_; }

    /** The family's highest-scoring (least general) variant. */
    static const ParamPattern *
    worstVariant(const ParamFamily &fam)
    {
        const ParamPattern *worst = &fam.front();
        for (const ParamPattern &p : fam)
            if (p.nonRigid > worst->nonRigid)
                worst = &p;
        return worst;
    }
    static ParamPattern *
    worstVariant(ParamFamily &fam)
    {
        return const_cast<ParamPattern *>(
            worstVariant(static_cast<const ParamFamily &>(fam)));
    }

  private:
    /** A shape from its idle probe: the reservation chain replayed
     *  once on an empty scratch machine (net::reserveAccess). */
    ShapeInfo makeShape(unsigned first_module, unsigned words,
                        bool is_rmw) const;

    static std::uint64_t
    sightingKey(const ShapeInfo &sh, const std::vector<sim::Tick> &offsets)
    {
        std::uint64_t h = OffsetVecHash{}(offsets);
        h ^= (static_cast<std::uint64_t>(sh.firstModule) << 33) |
             (static_cast<std::uint64_t>(sh.words) << 1) |
             (sh.isRmw ? 1u : 0u);
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
