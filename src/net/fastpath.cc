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

} // namespace

/**
 * Compile a shape's chain, then run its idle probe. Which servers see
 * traffic, how often and for how long depends only on the addresses,
 * so the chunks, the touched set (in canonical order) and the probe's
 * serve counts and service ticks hold for every offset vector; the
 * probe's first arrivals are the canonicalization thresholds, and its
 * completion is the shape's zero-contention latency. A canonical
 * address with the same home module reproduces every address of the
 * shape: chunk boundaries depend on addr % group_size and routing on
 * addr % n_modules, and group_size divides n_modules.
 */
ShapeInfo
BurstPatternCache::makeShape(unsigned first_module, unsigned words) const
{
    ShapeInfo sh;
    sh.words = words;
    // The stream splits at module-group boundaries; mark what each
    // chunk touches.
    std::vector<std::uint32_t> groupPos(map_.numGroups(), 0);
    std::vector<std::uint32_t> modulePos(map_.numModules(), 0);
    for (unsigned issued = 0; issued < words;) {
        const sim::Addr a = sim::Addr{first_module} + issued;
        ChainStep c{};
        c.issue = issued;
        c.len = map_.chunkLen(a, words - issued);
        c.group = map_.group(a);
        c.module = map_.module(a);
        groupPos[c.group] = 1;
        std::fill_n(modulePos.begin() + c.module, c.len, 1);
        sh.chain.push_back(c);
        issued += c.len;
    }
    // Rank the touched groups and modules by index: a group's three
    // ports sit at its rank among the stage1, stage2 and returnA
    // ports.
    const auto rank = [](std::vector<std::uint32_t> &pos) {
        std::vector<std::uint32_t> touched;
        for (std::uint32_t i = 0; i < pos.size(); ++i) {
            if (pos[i] != 0) {
                pos[i] = static_cast<std::uint32_t>(touched.size());
                touched.push_back(i);
            }
        }
        return touched;
    };
    const std::vector<std::uint32_t> groups = rank(groupPos);
    const std::vector<std::uint32_t> modules = rank(modulePos);
    const auto ng = static_cast<std::uint32_t>(groups.size());
    using C = obs::ResourceClass;
    for (const C cls : {C::stage1_port, C::stage2_port, C::return_a_port})
        for (const std::uint32_t g : groups)
            sh.servers.push_back({cls, g});
    sh.servers.push_back({C::return_b_port, 0});
    for (const std::uint32_t m : modules)
        sh.servers.push_back({C::memory_module, m});
    for (ChainStep &c : sh.chain) {
        c.stage1 = groupPos[c.group];
        c.stage2 = ng + c.stage1;
        c.returnA = 2 * ng + c.stage1;
        c.returnB = 3 * ng;
        c.modules = 3 * ng + 1 + modulePos[c.module];
    }

    // The idle probe: the chain on scratch servers at start 0.
    const std::size_t n = sh.servers.size();
    std::vector<sim::FifoServer> scratch(n);
    std::vector<sim::FifoServer *> srv;
    for (sim::FifoServer &s : scratch)
        srv.push_back(&s);
    sh.firstArrival.assign(n, sim::max_tick);
    sh.unloaded =
        reserveChain(sh, srv.data(), nullptr, 0,
                     mem::GlobalMemory::word_service,
                     [&sh](C, std::uint32_t pos, unsigned,
                           sim::Tick arrival, sim::Tick, sim::Tick) {
                         sh.firstArrival[pos] =
                             std::min(sh.firstArrival[pos], arrival);
                     })
            .complete;
    for (const sim::FifoServer &s : scratch) {
        sh.requests.push_back(
            static_cast<std::uint32_t>(s.stats().requests()));
        sh.busy.push_back(s.stats().busyTicks());
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
BurstPatternCache::lookup(const ShapeInfo &sh, std::uint64_t hash,
                          const std::uint32_t *key, bool &record)
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
            record = true; // the second sighting
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
                         const ClassWaits &waits)
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
    for (unsigned c = 0; c < access_class_count; ++c) {
        p[2 + c] = static_cast<std::uint32_t>(waits[c].used.size());
        for (const std::uint32_t u : waits[c].used) {
            *e++ = waits[c].slots[u].wait;
            *e++ = waits[c].slots[u].count;
        }
    }
    slots_[learnSlot_].pattern = p;
    ++patternsBuilt_;
}

} // namespace cedar::net
