#include "mem/global_memory.hh"

#include <algorithm>
#include <string>

#include "sim/error.hh"

namespace cedar::mem
{

void
GlobalMemory::injectModuleFault(unsigned m, const ModuleFault &f)
{
    if (m >= modules_.size())
        throw sim::ConfigError("module fault: module " +
                               std::to_string(m) +
                               " out of range (memory has " +
                               std::to_string(modules_.size()) + ")");
    if (f.factor == 1)
        throw sim::ConfigError(
            "module fault: factor 1 is a no-op (use >= 2, or 0 for "
            "stuck)");
    if (f.until <= f.from)
        throw sim::ConfigError(
            "module fault: window end must follow its start");
    if (faults_.empty())
        faults_.resize(modules_.size());
    faults_[m].push_back(f);
}

GlobalMemory::ServiceEffect
GlobalMemory::effect(unsigned m, sim::Tick arrival, sim::Tick base) const
{
    ServiceEffect e{base, 0, false};
    if (faults_.empty())
        return e;
    for (const auto &f : faults_[m]) {
        if (arrival < f.from || arrival >= f.until)
            continue;
        if (f.factor == 0) {
            if (f.until == sim::max_tick) {
                e.dead = true;
            } else {
                // Stuck window: service resumes when it closes.
                e.notBefore = std::max(e.notBefore, f.until);
            }
        } else {
            e.service *= f.factor;
        }
    }
    return e;
}

std::uint64_t
GlobalMemory::peek(sim::Addr addr) const
{
    auto it = words_.find(addr);
    return it == words_.end() ? 0 : it->second;
}

sim::Tick
GlobalMemory::totalWaitTicks() const
{
    sim::Tick total = 0;
    for (const auto &m : modules_)
        total += m.stats().waitTicks();
    return total;
}

sim::Tick
GlobalMemory::totalBusyTicks() const
{
    sim::Tick total = 0;
    for (const auto &m : modules_)
        total += m.stats().busyTicks();
    return total;
}

void
GlobalMemory::reset()
{
    for (auto &m : modules_)
        m.reset();
    words_.clear();
    faults_.clear();
}

} // namespace cedar::mem
