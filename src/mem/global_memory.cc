#include "mem/global_memory.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/tracer.hh"
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

bool
GlobalMemory::moduleDead(unsigned m, sim::Tick at) const
{
    return effect(m, at, word_service).dead;
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

void
GlobalMemory::noteServe(unsigned m, sim::Tick arrival, sim::Tick start,
                        sim::Tick done, std::uint32_t flow) const
{
    if (tracer_ == nullptr)
        return;
    // The observed wait is exactly what ServerStats recorded for
    // this serve: max(arrival, not_before, free_at) - arrival.
    tracer_->resourceWait(obs::ResourceClass::memory_module,
                          start - arrival);
    tracer_->flowStage(flow, obs::FlowStage::module, done,
                       static_cast<std::int32_t>(m), done - start);
}

MemAccessResult
GlobalMemory::accessChunk(sim::Tick arrival, const Chunk &chunk,
                          std::uint32_t flow)
{
    assert(chunk.len > 0);
    MemAccessResult res{0, 0};
    for (unsigned i = 0; i < chunk.len; ++i) {
        const unsigned m = map_.module(chunk.addr + i);
        const WordServe w = serveWord(m, arrival, word_service);
        if (w.dead) {
            res.complete = sim::max_tick;
            continue;
        }
        noteServe(m, arrival, w.start, w.done, flow);
        res.complete = std::max(res.complete, w.done);
        if (w.freeBefore > arrival)
            res.wait += w.freeBefore - arrival;
    }
    return res;
}

MemAccessResult
GlobalMemory::rmw(sim::Tick arrival, sim::Addr addr,
                  const sim::RmwFn &f, std::uint64_t *old_out,
                  std::uint32_t flow)
{
    const unsigned m = map_.module(addr);
    const WordServe w = serveWord(m, arrival, rmw_service);
    if (w.dead) {
        // The module never answers: no service, and crucially no
        // mutation, so a retried/abandoned RMW cannot double-apply.
        if (old_out)
            *old_out = ~0ULL;
        return MemAccessResult{sim::max_tick, 0};
    }
    noteServe(m, arrival, w.start, w.done, flow);

    std::uint64_t &cell = words_[addr];
    if (old_out)
        *old_out = cell;
    cell = f(cell);

    MemAccessResult res;
    res.complete = w.done;
    res.wait = w.freeBefore > arrival ? w.freeBefore - arrival : 0;
    return res;
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
