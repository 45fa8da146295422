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
 * 0, noting per server its first request arrival, its serve count
 * and its service ticks.
 */
struct IdleProbe
{
    explicit IdleProbe(const mem::AddressMap &map)
        : groups(map.numGroups()), gmem(map), ports(3 * groups + 1),
          firstArrival(3 * groups + 1 + map.numModules(), sim::max_tick),
          requests(firstArrival.size(), 0), busy(firstArrival.size(), 0)
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
        firstArrival[i] = std::min(firstArrival[i], arrival);
        ++requests[i];
        busy[i] += done - start;
    }

    unsigned groups;
    mem::GlobalMemory gmem;             //!< scratch modules
    std::vector<sim::FifoServer> ports; //!< scratch ports, flat index
    /** Per flat index; sim::max_tick: the shape never touches it. */
    std::vector<sim::Tick> firstArrival;
    std::vector<std::uint32_t> requests; //!< per flat index
    std::vector<sim::Tick> busy;         //!< per flat index
};

} // namespace

/**
 * Derive a shape from its idle probe. Which servers see traffic, how
 * often and for how long depends only on the addresses — never on
 * contention — so the probe's touched set (in canonical flat-index
 * order), serve counts, service ticks and last chunk length are
 * valid for every offset vector; its first arrivals are the
 * canonicalization thresholds (ShapeInfo::firstArrival). One scratch
 * chain per *shape* (a handful per app), amortised over the
 * millions of lookups it serves.
 */
ShapeInfo
BurstPatternCache::makeShape(unsigned first_module, unsigned words) const
{
    // A canonical address with the same home module reproduces the
    // chunk/group/module sequence of every address in the shape
    // class: chunk boundaries depend on addr % group_size and
    // routing on addr % n_modules, and group_size divides n_modules.
    IdleProbe probe(map_);
    const Reservation r =
        reserveAccess(probe, 0, first_module, words, Access::burst);

    const unsigned groups = map_.numGroups();
    ShapeInfo sh;
    sh.firstModule = first_module;
    sh.words = words;
    sh.lastLen = r.lastLen;
    sh.groupRank.assign(groups, 0);
    sh.moduleRank.assign(map_.numModules(), 0);
    for (std::size_t i = 0; i < probe.firstArrival.size(); ++i) {
        if (probe.firstArrival[i] == sim::max_tick)
            continue;
        const ServerRef ref = refOf(i, groups);
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

} // namespace cedar::net
