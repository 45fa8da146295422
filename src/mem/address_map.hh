/**
 * @file
 * Cedar global-memory address interleaving.
 *
 * The global memory is double-word interleaved and aligned across
 * independent modules; consecutive double-words live on consecutive
 * modules. Each stage-2 network switch fronts a group of group_size
 * consecutive modules, so the stage-2 switch (and hence the stage-1
 * output port) for an address is (addr % n_modules) / group_size.
 * Cedar as measured is (32, 4); the geometry is a free parameter
 * here, single-sourced from hw::CedarConfig — every construction
 * site must pass it explicitly.
 */

#ifndef CEDAR_MEM_ADDRESS_MAP_HH
#define CEDAR_MEM_ADDRESS_MAP_HH

#include <algorithm>

#include "sim/types.hh"

namespace cedar::mem
{

/** One network-level transfer unit: <= group_size consecutive
 *  double-words that all route through a single stage-2 switch. */
struct Chunk
{
    sim::Addr addr;
    unsigned len;
};

/** Interleaving geometry of the global memory system. */
class AddressMap
{
  public:
    /**
     * @param n_modules number of memory modules (Cedar: 32).
     * @param group_size modules per stage-2 switch (Cedar: 4).
     *
     * @throws sim::ConfigError when the geometry is degenerate or
     *         the modules do not divide into whole groups.
     */
    AddressMap(unsigned n_modules, unsigned group_size);

    unsigned numModules() const { return nModules_; }
    unsigned groupSize() const { return groupSize_; }
    unsigned numGroups() const { return nModules_ / groupSize_; }

    /** Module holding double-word @p addr. Interleaving runs at one
     *  lookup per streamed word, so the power-of-two geometries
     *  (Cedar's 32/4 included) take a mask instead of a division. */
    unsigned
    module(sim::Addr addr) const
    {
        return moduleMask_ != 0
                   ? static_cast<unsigned>(addr & moduleMask_)
                   : static_cast<unsigned>(addr % nModules_);
    }

    /** Module group (== stage-2 switch index) for @p addr. */
    unsigned group(sim::Addr addr) const { return module(addr) / groupSize_; }

    /** Length of the first chunk of [addr, addr+len): the words up
     *  to the next group_size-aligned address, at most @p len. A
     *  pipelined stream splits into chunks at those boundaries, the
     *  way it sweeps the interleaved modules (net::reserveChain). */
    unsigned
    chunkLen(sim::Addr addr, unsigned len) const
    {
        const unsigned off = groupMask_ != 0
                                 ? static_cast<unsigned>(addr & groupMask_)
                                 : static_cast<unsigned>(addr % groupSize_);
        return std::min(len, groupSize_ - off);
    }

  private:
    unsigned nModules_;
    unsigned groupSize_;
    /** addr-space masks when the respective size is a power of two
     *  (0 otherwise — then the modulo fallback applies). */
    sim::Addr moduleMask_ = 0;
    sim::Addr groupMask_ = 0;
};

} // namespace cedar::mem

#endif // CEDAR_MEM_ADDRESS_MAP_HH
