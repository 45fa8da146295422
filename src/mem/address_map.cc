#include "mem/address_map.hh"

#include <string>

#include "sim/error.hh"

namespace cedar::mem
{

AddressMap::AddressMap(unsigned n_modules, unsigned group_size)
    : nModules_(n_modules), groupSize_(group_size)
{
    if (n_modules == 0 || group_size == 0)
        throw sim::ConfigError(
            "memory geometry: modules and group size must be positive");
    if (n_modules % group_size != 0)
        throw sim::ConfigError(
            "memory geometry: " + std::to_string(n_modules) +
            " modules not divisible into groups of " +
            std::to_string(group_size));
    if ((n_modules & (n_modules - 1)) == 0)
        moduleMask_ = n_modules - 1;
    if ((group_size & (group_size - 1)) == 0)
        groupMask_ = group_size - 1;
}

} // namespace cedar::mem
