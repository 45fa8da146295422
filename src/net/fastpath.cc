#include "net/fastpath.hh"

#include <algorithm>
#include <bit>

#include "mem/global_memory.hh"
#include "net/network.hh"
#include "sim/fifo_server.hh"

namespace cedar::net
{

namespace
{

/** Arena block size in 32-bit words (128 KB); a larger record gets a
 *  block of its own. */
constexpr std::size_t block_words = std::size_t(1) << 15;

/** Scratch index space: [0,g) stage1, [g,2g) stage2, [2g,3g)
 *  returnA, [3g] returnB (one shared CE port), [3g+1, ...) modules
 *  (FastBank order). */
std::size_t
flatIndex(const ServerRef &r, unsigned groups)
{
    const auto b = static_cast<unsigned>(r.bank);
    return b < 3 ? b * groups + r.idx
                 : 3 * groups + (r.bank == FastBank::module ? 1 + r.idx : 0);
}

/**
 * reserveAccess policy for makeShape's idle probe: the shape's
 * reservation chain on scratch servers (an empty machine) at start
 * 0, noting per server its first request arrival, its serve count
 * and its service ticks.
 */
struct IdleProbe
{
    explicit IdleProbe(const mem::AddressMap &map)
        : groups(map.numGroups()), gmem(map), ports(3 * groups + 1),
          refs(3 * groups + 1 + map.numModules()),
          firstArrival(refs.size(), sim::max_tick),
          requests(refs.size(), 0), busy(refs.size(), 0)
    {
    }

    sim::FifoServer &
    server(FastBank bank, unsigned idx)
    {
        return ports[flatIndex({bank, idx}, groups)];
    }

    mem::GlobalMemory &memory() { return gmem; }

    void
    served(FastBank bank, unsigned idx, sim::Tick arrival, sim::Tick start,
           sim::Tick done)
    {
        const std::size_t i = flatIndex({bank, idx}, groups);
        refs[i] = {bank, idx};
        firstArrival[i] = std::min(firstArrival[i], arrival);
        ++requests[i];
        busy[i] += done - start;
    }

    unsigned groups;
    mem::GlobalMemory gmem;             //!< scratch modules
    std::vector<sim::FifoServer> ports; //!< scratch ports, flat index
    std::vector<ServerRef> refs;        //!< per flat index
    /** Per flat index; sim::max_tick: the shape never touches it. */
    std::vector<sim::Tick> firstArrival;
    std::vector<std::uint32_t> requests; //!< per flat index
    std::vector<sim::Tick> busy;         //!< per flat index
};

} // namespace

/**
 * Derive a shape from its idle probe. Which servers see traffic, how
 * often and for how long depends only on the addresses, so the
 * probe's touched set (in canonical flat-index order), serve counts
 * and service ticks hold for every offset vector; its first arrivals
 * are the canonicalization thresholds, and its completion is the
 * shape's zero-contention latency. A canonical address with the same
 * home module reproduces every address of the shape: chunk
 * boundaries depend on addr % group_size and routing on addr %
 * n_modules, and group_size divides n_modules.
 */
ShapeInfo
BurstPatternCache::makeShape(unsigned first_module, unsigned words) const
{
    IdleProbe probe(map_);
    ShapeInfo sh;
    sh.unloaded = reserveAccess(probe, 0, first_module, words,
                                mem::GlobalMemory::word_service)
                      .complete;
    sh.words = words;
    sh.groupRank.assign(map_.numGroups(), 0);
    sh.moduleRank.assign(map_.numModules(), 0);
    for (std::size_t i = 0; i < probe.firstArrival.size(); ++i) {
        if (probe.firstArrival[i] == sim::max_tick)
            continue;
        const ServerRef ref = probe.refs[i];
        // Banks are contiguous in flat-index order; the group/module
        // ranks map a serve back to its position in that order.
        const auto b = static_cast<unsigned>(ref.bank);
        if (sh.servers.empty() || sh.servers.back().bank != ref.bank)
            sh.bankBegin[b] = static_cast<std::uint32_t>(sh.servers.size());
        const auto rank =
            static_cast<std::uint32_t>(sh.servers.size() - sh.bankBegin[b]);
        if (ref.bank == FastBank::stage1)
            sh.groupRank[ref.idx] = rank;
        else if (ref.bank == FastBank::module)
            sh.moduleRank[ref.idx] = rank;
        sh.servers.push_back(ref);
        sh.firstArrival.push_back(probe.firstArrival[i]);
        sh.requests.push_back(probe.requests[i]);
        sh.busy.push_back(probe.busy[i]);
    }
    return sh;
}

void
WaitCounts::clear()
{
    for (const std::uint32_t i : used)
        slots[i].count = 0;
    used.clear();
    tooWide = false;
}

void
WaitCounts::grow()
{
    std::vector<Entry> old(std::max<std::size_t>(2 * slots.size(), 64));
    old.swap(slots);
    shift = 64 - static_cast<unsigned>(std::countr_zero(slots.size()));
    for (std::uint32_t &u : used) {
        std::size_t i = home(old[u].wait);
        while (slots[i].count != 0)
            i = (i + 1) & (slots.size() - 1);
        slots[i] = old[u];
        u = static_cast<std::uint32_t>(i);
    }
}

void
BurstPatternCache::grow()
{
    std::vector<Slot> old(slots_.empty() ? 4096 : 2 * slots_.size());
    old.swap(slots_);
    bytes_ += (slots_.size() - old.size()) * sizeof(Slot);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Slot &s : old) {
        if (s.hash == 0)
            continue;
        std::size_t i = home(s.hash);
        while (slots_[i].hash != 0)
            i = (i + 1) & (slots_.size() - 1);
        slots_[i] = s;
    }
}

const std::uint32_t *
BurstPatternCache::lookup(ShapeInfo &sh, std::uint64_t hash,
                          const std::uint32_t *key, ShapeInfo *&record)
{
    hash |= 1; // 0 marks an empty slot
    if (slots_.empty())
        grow();
    std::size_t i = home(hash);
    for (; slots_[i].hash != 0; i = (i + 1) & (slots_.size() - 1)) {
        if (slots_[i].hash != hash)
            continue;
        const std::uint32_t *p = slots_[i].pattern;
        if (p != nullptr)
            return p[0] == sh.id && std::equal(key, key + sh.servers.size(),
                                               p + rec_key)
                       ? p
                       : nullptr;
        if (bytes_ < max_pattern_bytes) {
            record = &sh; // the second sighting
            learnSlot_ = i;
        }
        return nullptr;
    }
    if (bytes_ >= max_pattern_bytes)
        return nullptr;
    if (2 * (usedSlots_ + 1) > slots_.size()) {
        grow();
        for (i = home(hash); slots_[i].hash != 0;)
            i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i].hash = hash;
    ++usedSlots_;
    return nullptr;
}

void
BurstPatternCache::learn(const ShapeInfo &sh, const std::uint32_t *key,
                         sim::Tick rel_complete,
                         const std::vector<PatternServer> &servers,
                         const BankWaits &waits)
{
    const std::size_t n = servers.size();
    std::size_t words = rec_key + 3 * n;
    for (const WaitCounts &c : waits) {
        if (c.tooWide)
            return;
        words += 2 * c.used.size();
    }
    if (rel_complete > max_rec_tick)
        return;
    for (const PatternServer &s : servers)
        if (std::max(s.waitSum, s.freeAt) > max_rec_tick)
            return;
    if (words > blockFree_) {
        blockFree_ = std::max(block_words, words);
        blocks_.push_back(
            std::make_unique_for_overwrite<std::uint32_t[]>(blockFree_));
        next_ = blocks_.back().get();
        bytes_ += blockFree_ * sizeof(std::uint32_t);
    }
    std::uint32_t *p = next_;
    next_ += words;
    blockFree_ -= words;

    p[0] = sh.id;
    p[1] = static_cast<std::uint32_t>(rel_complete);
    std::copy(key, key + n, p + rec_key);
    std::uint32_t *e = p + rec_key + n;
    for (const PatternServer &s : servers) {
        *e++ = static_cast<std::uint32_t>(s.waitSum);
        *e++ = static_cast<std::uint32_t>(s.freeAt);
    }
    for (unsigned b = 0; b < fast_bank_count; ++b) {
        p[2 + b] = static_cast<std::uint32_t>(waits[b].used.size());
        for (const std::uint32_t u : waits[b].used) {
            *e++ = waits[b].slots[u].wait;
            *e++ = waits[b].slots[u].count;
        }
    }
    slots_[learnSlot_].pattern = p;
    ++patternsBuilt_;
}

} // namespace cedar::net
