/**
 * @file
 * Analytic fast-forward patterns for global-memory bursts
 * (DESIGN.md §10).
 *
 * A burst reserves its whole stage1 -> stage2 -> module -> returnA
 * -> returnB path at issue time (sim/fifo_server.hh). Which servers
 * it touches, and how often and how long it serves at each, is a
 * pure function of its *shape* — home module of the first word and
 * word count — since routing follows addresses and, without a memory
 * fault plan, every service is the port's chunk length or the
 * module's fixed service time (ShapeInfo, noted once by an idle
 * probe). The rest of the outcome depends on one more input, each
 * touched server's free horizon relative to the access start,
 *
 *   offsets[i] = max(0, freeAt_i - start),
 *
 * because FifoServer::serve computes start = max(arrival,
 * not_before, free_at), and with no fault windows (not_before = 0)
 *
 *   outcome(start, offsets) = outcome(0, offsets) + start.
 *
 * Contended phases queue into near-periodic steady states where the
 * same few offset vectors recur thousands of times. A pattern is
 * learned per (shape, offset vector), *recorded off the live
 * slow-path run* the missing access takes anyway (net::reserveChain;
 * by the invariance above its sums are what a scratch replay at
 * start = 0 would produce). It stores only what differs between two
 * accesses of one shape: per touched server the wait sum and free
 * horizon, the completion tick, and the queueing waits the tracer
 * would have been handed, condensed to (wait, count) pairs. It is
 * one record of 32-bit ticks in the store's arena
 * (BurstPatternCache); a burst with any value past 32 bits is never
 * stored and takes the slow path. Replaying a pattern is O(touched
 * servers) instead of O(words) and leaves server statistics, the
 * wait histograms and the returned timing bit-identical to the slow
 * path: reuse requires an *exact* offset-vector match, so the replay
 * is self-verifying (tests/test_fastpath.cc).
 *
 * Only bursts take this path. An RMW touches five servers, too few
 * for gathering and probing their offsets to beat serving them, so
 * Network::rmw always walks its word's one-word shape through the
 * reference chain.
 */

#ifndef CEDAR_NET_FASTPATH_HH
#define CEDAR_NET_FASTPATH_HH

#include <array>
#include <cstdint>
#include <memory>
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

/** Position-free identity of one server an access shape touches.
 *  Which concrete FifoServer it resolves to depends on the issuing
 *  cluster/CE (Network::server) — the pattern itself is position
 *  free. */
struct ServerRef
{
    obs::ResourceClass cls;
    /** Its module group (stage1, stage2 and returnA ports), its
     *  module, or 0 (the issuing CE's own returnB port). */
    std::uint32_t idx;
};

/** What one touched server's reservation outcome adds to the shape's
 *  constants (ShapeInfo::requests/busy), ticks relative to the access
 *  start, as a recording captures it. */
struct PatternServer
{
    sim::Tick waitSum; //!< queueing recorded
    sim::Tick freeAt;  //!< server's free horizon afterwards
};

/** The resource classes a global access serves at: the first five of
 *  obs::ResourceClass, memory_module to return_b_port. Per-class
 *  arrays index by them. */
inline constexpr unsigned access_class_count = 5;
static_assert(static_cast<unsigned>(obs::ResourceClass::return_b_port) ==
              access_class_count - 1);

/** The widest value a pattern record holds. */
inline constexpr sim::Tick max_rec_tick = ~std::uint32_t(0);

/**
 * Layout of a learned pattern, one record of 32-bit words for a
 * shape of n touched servers:
 *
 *   [0]                   shape id (ShapeInfo::id)
 *   [1]                   completion tick relative to start
 *   [2, rec_key)          condensed waits per class, class order
 *   [rec_key, +n)         key: the canonical offsets
 *   [rec_key + n, +2n)    per server: wait sum, free horizon
 *   then each class's condensed waits as (wait, count) pairs.
 */
inline constexpr std::size_t rec_key = 2 + access_class_count;

/** The pattern-key hash's prime: FNV-1a over 64-bit words. */
inline constexpr std::uint64_t key_hash_prime = 1099511628211ULL;

/**
 * The hash a pattern key of shape @p id starts from: FNV-1a's offset
 * basis with the id folded in by a multiply round of its own, before
 * any offset (keyHashFold). Xoring the id and the first offset into
 * one word would cancel them, so two shapes whose ids differ exactly
 * as their first offsets do would collide.
 */
constexpr std::uint64_t
keyHashBasis(std::uint32_t id)
{
    return (1469598103934665603ULL ^ id) * key_hash_prime;
}

/** Fold one canonical offset into a pattern key's hash. */
constexpr std::uint64_t
keyHashFold(std::uint64_t hash, std::uint64_t off)
{
    return (hash ^ off) * key_hash_prime;
}

/** One chunk of a shape's compiled reservation chain: the words that
 *  route through one stage-2 switch, and where their servers sit in
 *  ShapeInfo::servers. A chunk never spans two groups, so its modules
 *  are consecutive, and so are their positions. */
struct ChainStep
{
    std::uint32_t issue;  //!< words issued before it: its issue offset
    std::uint32_t len;    //!< its words, at most the group size
    std::uint32_t group;  //!< its module group (stage-2 switch)
    std::uint32_t module; //!< its first word's module
    std::uint32_t stage1, stage2, returnA, returnB; //!< port positions
    std::uint32_t modules; //!< its first word's module's position
};

/** One access shape: its touched-server set (fixed canonical order,
 *  the order offsets are gathered and keyed in), its compiled
 *  reservation chain over that set, and what every access of the
 *  shape serves there. */
struct ShapeInfo
{
    std::uint32_t id = 0; //!< creation order; seeds the key hash
    unsigned words = 0;
    /** The touched servers: the touched groups' stage1, stage2 and
     *  returnA ports, the issuing CE's returnB port, then the touched
     *  modules (by index within a class). */
    std::vector<ServerRef> servers;
    /** The chain net::reserveChain walks, one step per chunk. */
    std::vector<ChainStep> chain;

    /**
     * Per touched server (same order as @p servers): the tick of the
     * shape's *first* request arrival there in the idle
     * (all-offsets-zero) replay, relative to the access start. Replay
     * arrivals are monotone non-decreasing in the offsets, so an
     * offset at or below it never delays a serve nor records wait:
     * the outcome is bit-identical to offset 0, and the gather zeroes
     * it before keying (canonicalization, DESIGN.md §10.1).
     */
    std::vector<sim::Tick> firstArrival;

    /** Per touched server: the serve() calls and service ticks of
     *  every access of the shape, noted by the idle probe. */
    std::vector<std::uint32_t> requests;
    std::vector<sim::Tick> busy;
    /** The idle probe's completion relative to the access start: the
     *  zero-contention latency of every access of the shape
     *  (XferResult::unloaded). */
    sim::Tick unloaded = 0;

    /** Per issuing CE, at its flat index (cluster * CEs per cluster
     *  + CE port): the concrete FifoServer of each @p servers entry,
     *  resolved on that CE's first access of the shape, so the chain,
     *  the gather and the replay walk pointers (server storage never
     *  moves). */
    std::vector<std::unique_ptr<sim::FifoServer *[]>> resolved;
};

/**
 * The wait -> count tally of one class's serves in one recording, open
 * addressed and cleared when a recording starts (~490 serves of a
 * 235-word burst condense to ~20 entries across the classes). A burst
 * serves a class at most `words` < 2^32 times, so a count fits 32
 * bits; a wait that does not spoils the recording (tooWide).
 */
struct WaitCounts
{
    struct Entry
    {
        std::uint32_t wait;
        std::uint32_t count; //!< 0: empty slot
    };
    std::vector<Entry> slots;
    std::vector<std::uint32_t> used; //!< occupied slots, first-seen order
    unsigned shift = 64;
    bool tooWide = false;

    std::size_t
    home(std::uint32_t wait) const
    {
        return static_cast<std::size_t>((wait * 0x9e3779b97f4a7c15ULL) >>
                                        shift);
    }

    void
    add(sim::Tick wait)
    {
        tooWide |= wait > max_rec_tick;
        if (2 * used.size() + 2 > slots.size())
            grow();
        const auto w = static_cast<std::uint32_t>(wait);
        std::size_t i = home(w);
        while (slots[i].count != 0 && slots[i].wait != w)
            i = (i + 1) & (slots.size() - 1);
        if (slots[i].count++ == 0) {
            slots[i].wait = w;
            used.push_back(static_cast<std::uint32_t>(i));
        }
    }

    void clear();
    void grow();
};

/** A recording's tallies, one per class in class order. */
using ClassWaits = std::array<WaitCounts, access_class_count>;

/**
 * Memoized pattern store, one per Network (and therefore per
 * Machine: single-threaded by the same ownership rule as the
 * machine's obs::Tracer). One open-addressed table, keyed by the
 * 64-bit hash of (shape, canonical offsets) the gather builds, holds
 * both kinds of keys: a slot is a first sighting or a learned
 * pattern, whose record sits in a fixed-block arena and never moves.
 * Patterns are learned on a key's *second* sighting: contended sweeps
 * produce long tails of one-shot queue states whose patterns would
 * never be replayed. A sighting is its hash alone, so a collision
 * merely records a pattern a sighting early; a pattern is reused
 * only after an exact compare of its shape id and every key offset,
 * so a collision takes the slow path, never a wrong pattern.
 */
class BurstPatternCache
{
  public:
    /** The store stops growing past this footprint, table and arena
     *  blocks together (the largest paper point, ARC2D 32p, ends at
     *  41 MB); later unseen offset vectors take the slow path. A byte
     *  budget, not an entry count: a pattern's size follows its
     *  shape's servers and distinct waits (5 servers for a one-word
     *  burst, 57 for a long one; ~860 bytes at 32p), so a count would
     *  bound the footprint only to within an order of magnitude. */
    static constexpr std::size_t max_pattern_bytes = 192u << 20;

    explicit BurstPatternCache(const mem::AddressMap &map) : map_(map) {}

    /** The shape record for an access of @p words whose first word
     *  lives on @p first_module (an RMW's is its word's one-word
     *  shape); its chain is compiled on first use. */
    ShapeInfo &
    shape(unsigned first_module, unsigned words)
    {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(first_module) << 32) | words;
        auto it = shapes_.find(key);
        if (it == shapes_.end()) {
            it = shapes_.emplace(key, makeShape(first_module, words)).first;
            it->second.id = static_cast<std::uint32_t>(shapes_.size() - 1);
        }
        return it->second;
    }

    /**
     * The learned pattern of @p sh under @p key (its canonical
     * offsets, one per sh.servers element) hashed to @p hash, or
     * nullptr. A first sighting is noted; on the second, @p record is
     * set: the slow-path run this access is about to take should be
     * recorded and filed by learn(). The first call
     * allocates the table, so a run that never takes the fast path
     * allocates nothing for it.
     */
    const std::uint32_t *lookup(const ShapeInfo &sh, std::uint64_t hash,
                                const std::uint32_t *key, bool &record);

    /** File the run recorded for the last lookup() that asked for one
     *  as the pattern of @p sh under @p key — unless a value does not
     *  fit 32 bits, when the key stays a sighting. */
    void learn(const ShapeInfo &sh, const std::uint32_t *key,
               sim::Tick rel_complete,
               const std::vector<PatternServer> &servers,
               const ClassWaits &waits);

    /** Distinct (shape, offsets) patterns learned so far. */
    std::uint64_t patternsBuilt() const { return patternsBuilt_; }

  private:
    /** A shape: its chain compiled from the address map, then
     *  walked once on scratch servers, an empty machine (the idle
     *  probe, net::reserveChain). */
    ShapeInfo makeShape(unsigned first_module, unsigned words) const;

    struct Slot
    {
        std::uint64_t hash = 0; //!< 0: empty
        const std::uint32_t *pattern = nullptr; //!< nullptr: sighting
    };

    std::size_t
    home(std::uint64_t hash) const
    {
        return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

    /** Double the table (or allocate it) and re-place every slot. */
    void grow();

    mem::AddressMap map_;
    std::unordered_map<std::uint64_t, ShapeInfo> shapes_;
    std::vector<Slot> slots_;
    std::size_t usedSlots_ = 0;
    std::size_t learnSlot_ = 0; //!< where learn() files its pattern
    unsigned shift_ = 64;
    std::vector<std::unique_ptr<std::uint32_t[]>> blocks_; //!< the arena
    std::uint32_t *next_ = nullptr; //!< the last block's free words
    std::size_t blockFree_ = 0;
    std::size_t bytes_ = 0;     //!< table plus arena blocks
    std::uint64_t patternsBuilt_ = 0;
};

} // namespace cedar::net

#endif // CEDAR_NET_FASTPATH_HH
