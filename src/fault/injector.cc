#include "fault/injector.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "hw/machine.hh"
#include "os/accounting.hh"
#include "os/xylem.hh"
#include "sim/error.hh"

namespace cedar::fault
{

namespace
{

/** Seed perturbation so fault streams decorrelate from model RNGs. */
constexpr std::uint64_t fault_seed_salt = 0x9d5c0fa017ab1e55ULL;

} // namespace

FaultInjector::FaultInjector(hw::Machine &m, std::vector<FaultSpec> specs)
    : m_(m), specs_(std::move(specs)),
      rng_(m.seed() ^ fault_seed_salt)
{
}

void
FaultInjector::arm(StopFn stop)
{
    stop_ = std::move(stop);
    for (const auto &f : specs_) {
        switch (f.kind) {
          case FaultKind::module_degrade:
          case FaultKind::module_stuck:
            armModule(f);
            break;
          case FaultKind::switch_stall:
            armSwitch(f);
            break;
          case FaultKind::ce_hiccup:
            armHiccup(f);
            break;
          case FaultKind::intr_storm:
            armStorm(f);
            break;
          default:
            throw sim::FaultSpecError("'" + f.text +
                                      "': not an injectable fault");
        }
    }
}

void
FaultInjector::armModule(const FaultSpec &f)
{
    const auto &cfg = m_.config();
    if (f.index >= cfg.nModules)
        throw sim::FaultSpecError("'" + f.text + "': module " +
                                  std::to_string(f.index) +
                                  " out of range (machine has " +
                                  std::to_string(cfg.nModules) + ")");
    m_.gmem().injectModuleFault(f.index,
                                mem::ModuleFault{f.from, f.until, f.factor});
    m_.eq().schedule(f.from, [this, f] {
        m_.faultLog().record(
            {m_.now(), f.kind, static_cast<int>(f.index), f.factor});
    });
}

void
FaultInjector::armSwitch(const FaultSpec &f)
{
    const auto &cfg = m_.config();
    const unsigned limit =
        f.stage == 1 ? cfg.nClusters : cfg.nModules / cfg.groupSize;
    if (f.index >= limit)
        throw sim::FaultSpecError(
            "'" + f.text + "': stage" + std::to_string(f.stage) +
            " switch " + std::to_string(f.index) +
            " out of range (machine has " + std::to_string(limit) + ")");
    m_.eq().schedule(f.from, [this, f] {
        m_.net().stallSwitch(m_.now(), f.stage, f.index, f.duration);
        m_.faultLog().record({m_.now(), FaultKind::switch_stall,
                              static_cast<int>(f.index), f.duration});
    });
}

void
FaultInjector::armHiccup(const FaultSpec &f)
{
    if (f.index >= m_.numCes())
        throw sim::FaultSpecError("'" + f.text + "': CE " +
                                  std::to_string(f.index) +
                                  " out of range (machine has " +
                                  std::to_string(m_.numCes()) + ")");
    scheduleHiccup(f, rng_.fork());
}

void
FaultInjector::scheduleHiccup(const FaultSpec &f, sim::RandomGen rng)
{
    const sim::Tick base = std::max(m_.now(), f.from);
    const sim::Tick gap = rng.exponential(1.0 / f.prob);
    if (f.until - base <= gap) // also guards overflow near max_tick
        return;
    m_.eq().schedule(base + gap, [this, f, rng]() mutable {
        if (stopped() || m_.now() >= f.until)
            return;
        m_.ce(f.index).chargeInterrupt(f.duration, os::TimeCat::interrupt,
                                       os::OsAct::other);
        m_.faultLog().record({m_.now(), FaultKind::ce_hiccup,
                              static_cast<int>(f.index), f.duration});
        scheduleHiccup(f, rng);
    });
}

void
FaultInjector::armStorm(const FaultSpec &f)
{
    if (f.index >= m_.numClusters())
        throw sim::FaultSpecError("'" + f.text + "': cluster " +
                                  std::to_string(f.index) +
                                  " out of range (machine has " +
                                  std::to_string(m_.numClusters()) + ")");
    m_.eq().schedule(f.from, [this, f] {
        if (!stopped())
            stormTick(f, f.count);
    });
}

void
FaultInjector::stormTick(const FaultSpec &f, unsigned remaining)
{
    if (remaining == 0)
        return;
    m_.faultLog().record({m_.now(), FaultKind::intr_storm,
                          static_cast<int>(f.index), remaining});
    m_.xylem().crossProcessorInterrupt(f.index, [this, f, remaining] {
        if (!stopped())
            stormTick(f, remaining - 1);
    });
}

} // namespace cedar::fault
