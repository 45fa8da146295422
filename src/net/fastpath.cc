#include "net/fastpath.hh"

#include <algorithm>

#include "mem/global_memory.hh"
#include "net/network.hh"
#include "sim/fifo_server.hh"

namespace cedar::net
{

namespace
{

/** Scratch index space: [0,g) stage1, [g,2g) stage2, [2g,3g)
 *  returnA, [3g] returnB (one shared CE port), [3g+1, ...) modules. */
std::size_t
flatIndex(const ServerRef &r, unsigned groups)
{
    switch (r.bank) {
    case FastBank::stage1:
        return r.idx;
    case FastBank::stage2:
        return groups + r.idx;
    case FastBank::returnA:
        return 2 * groups + r.idx;
    case FastBank::returnB:
        return 3 * groups;
    case FastBank::module:
    default:
        return 3 * groups + 1 + r.idx;
    }
}

ServerRef
refOf(std::size_t i, unsigned groups)
{
    if (i < groups)
        return {FastBank::stage1, static_cast<std::uint32_t>(i)};
    if (i < 2 * groups)
        return {FastBank::stage2, static_cast<std::uint32_t>(i - groups)};
    if (i < 3 * groups)
        return {FastBank::returnA,
                static_cast<std::uint32_t>(i - 2 * groups)};
    if (i == 3 * groups)
        return {FastBank::returnB, 0};
    return {FastBank::module,
            static_cast<std::uint32_t>(i - 3 * groups - 1)};
}

/**
 * reserveAccess policy for makeShape's idle probe: the shape's
 * reservation chain on scratch servers (an empty machine) at start
 * 0, noting per server its first request arrival and, per stage1
 * port, its rigidity floor.
 */
struct IdleProbe
{
    explicit IdleProbe(const mem::AddressMap &map)
        : groups(map.numGroups()), gmem(map), ports(3 * groups + 1),
          firstArrival(3 * groups + 1 + map.numModules(), sim::max_tick),
          floor(groups, 0), servedWords(groups, 0)
    {
    }

    sim::FifoServer &
    server(FastBank bank, unsigned idx)
    {
        return ports[flatIndex({bank, idx}, groups)];
    }

    mem::GlobalMemory &memory() { return gmem; }

    void
    served(FastBank bank, unsigned idx, sim::Tick arrival, sim::Tick,
           sim::Tick start, sim::Tick done)
    {
        sim::Tick &first = firstArrival[flatIndex({bank, idx}, groups)];
        first = std::min(first, arrival);
        // Stage1 arrivals are CE issue times, fixed by the chunk
        // sequence alone, so the horizon-bound condition "offset +
        // served-so-far >= arrival" resolves per port to a static
        // minimum offset.
        if (bank == FastBank::stage1) {
            if (arrival > servedWords[idx] &&
                arrival - servedWords[idx] > floor[idx])
                floor[idx] = arrival - servedWords[idx];
            servedWords[idx] += done - start;
        }
    }

    unsigned groups;
    mem::GlobalMemory gmem;             //!< scratch modules
    std::vector<sim::FifoServer> ports; //!< scratch ports, flat index
    /** Per flat index; sim::max_tick: the shape never touches it. */
    std::vector<sim::Tick> firstArrival;
    std::vector<sim::Tick> floor;       //!< per group (stage1)
    std::vector<sim::Tick> servedWords; //!< per group (stage1)
};

} // namespace

/**
 * Derive a shape from its idle probe. Which servers see traffic
 * depends only on the addresses — never on contention — so the
 * probe's touched set (in canonical flat-index order) is valid for
 * every offset vector; its first arrivals are the canonicalization
 * thresholds (ShapeInfo::firstArrival) and its stage1 floors the
 * family rigidity floors (ShapeInfo::stage1Floor). One scratch
 * chain per *shape* (a handful per app), amortised over the
 * millions of lookups it serves.
 */
ShapeInfo
BurstPatternCache::makeShape(unsigned first_module, unsigned words,
                             bool is_rmw) const
{
    // A canonical address with the same home module reproduces the
    // chunk/group/module sequence of every address in the shape
    // class: chunk boundaries depend on addr % group_size and
    // routing on addr % n_modules, and group_size divides n_modules.
    IdleProbe probe(map_);
    reserveAccess(probe, 0, first_module, words,
                  is_rmw ? Access::rmw : Access::burst);

    const unsigned groups = map_.numGroups();
    ShapeInfo sh;
    sh.firstModule = first_module;
    sh.words = words;
    sh.isRmw = is_rmw;
    sh.groupRank.assign(groups, 0);
    sh.moduleRank.assign(map_.numModules(), 0);
    for (std::size_t i = 0; i < probe.firstArrival.size(); ++i) {
        if (probe.firstArrival[i] == sim::max_tick)
            continue;
        const ServerRef r = refOf(i, groups);
        // Banks are contiguous in flat-index order; the group/module
        // ranks map a serve back to its position in that order.
        const auto b = static_cast<unsigned>(r.bank);
        if (sh.bankCount[b] == 0)
            sh.bankBegin[b] = static_cast<std::uint32_t>(sh.servers.size());
        const std::uint32_t rank = sh.bankCount[b]++;
        if (r.bank == FastBank::stage1)
            sh.groupRank[r.idx] = rank;
        else if (r.bank == FastBank::module)
            sh.moduleRank[r.idx] = rank;
        sh.servers.push_back(r);
        sh.firstArrival.push_back(probe.firstArrival[i]);
        sh.stage1Floor.push_back(
            r.bank == FastBank::stage1 ? probe.floor[r.idx] : 0);
    }
    return sh;
}

} // namespace cedar::net
