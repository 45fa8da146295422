#include "core/profile.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <unordered_map>

#include "core/table.hh"

namespace cedar::core
{

std::vector<LoopPhaseProfile>
profileLoopPhases(const RunResult &r)
{
    using hpm::EventId;

    struct SeqState
    {
        unsigned phase = 0;
        bool mc = false;
        bool flat = false;
        sim::Tick postedAt = 0;
        sim::Tick barrierEnter = 0;
    };
    std::unordered_map<std::uint32_t, SeqState> seqs;
    std::unordered_map<std::uint16_t, std::pair<std::uint32_t, sim::Tick>>
        pickupOpen; // per CE: (seq, enter tick)
    std::map<unsigned, LoopPhaseProfile> phases;

    auto phase_of = [&](std::uint32_t seq) -> LoopPhaseProfile * {
        auto it = seqs.find(seq);
        if (it == seqs.end())
            return nullptr;
        auto &p = phases[it->second.phase];
        p.phaseIdx = it->second.phase;
        p.isMainClusterOnly = it->second.mc;
        p.isFlat = it->second.flat;
        return &p;
    };

    for (const auto &rec : r.trace) {
        switch (rec.id()) {
          case EventId::sdoall_post:
          case EventId::xdoall_post:
          case EventId::mcloop_enter: {
            const auto seq = hpm::loopSeq(rec.arg);
            SeqState st;
            st.phase = hpm::loopPhase(rec.arg);
            st.mc = rec.id() == EventId::mcloop_enter;
            st.flat = rec.id() == EventId::xdoall_post;
            st.postedAt = rec.when;
            seqs[seq] = st;
            if (auto *p = phase_of(seq))
                ++p->invocations;
            break;
          }
          case EventId::loop_done:
          case EventId::mcloop_exit: {
            const auto seq = hpm::loopSeq(rec.arg);
            auto it = seqs.find(seq);
            if (it == seqs.end())
                break;
            if (auto *p = phase_of(seq))
                p->wall += rec.when - it->second.postedAt;
            break;
          }
          case EventId::iter_start: {
            if (auto *p = phase_of(rec.arg))
                ++p->bodies;
            break;
          }
          case EventId::barrier_enter: {
            auto it = seqs.find(rec.arg);
            if (it != seqs.end())
                it->second.barrierEnter = rec.when;
            break;
          }
          case EventId::barrier_exit: {
            auto it = seqs.find(rec.arg);
            if (it == seqs.end())
                break;
            if (auto *p = phase_of(rec.arg))
                p->barrierWall += rec.when - it->second.barrierEnter;
            break;
          }
          case EventId::pickup_enter:
            pickupOpen[rec.ce] = {rec.arg, rec.when};
            break;
          case EventId::pickup_exit: {
            auto it = pickupOpen.find(rec.ce);
            if (it == pickupOpen.end() || it->second.first != rec.arg)
                break;
            if (auto *p = phase_of(rec.arg))
                p->pickupCpu += rec.when - it->second.second;
            pickupOpen.erase(it);
            break;
          }
          default:
            break;
        }
    }

    std::vector<LoopPhaseProfile> out;
    out.reserve(phases.size());
    for (auto &[idx, p] : phases)
        out.push_back(p);
    std::sort(out.begin(), out.end(),
              [](const LoopPhaseProfile &a, const LoopPhaseProfile &b) {
                  return a.wall > b.wall;
              });
    return out;
}

void
printLoopProfile(std::ostream &os, const RunResult &r,
                 const std::vector<LoopPhaseProfile> &profile)
{
    Table t({"phase", "construct", "invocations", "bodies", "wall %",
             "barrier %", "pickup CPU (s)"});
    for (const auto &p : profile) {
        // Not "#" + to_string(...): GCC 12 at -O3 flags that with a
        // false -Wrestrict.
        t.addRow({std::string(1, '#').append(std::to_string(p.phaseIdx)),
                  p.isMainClusterOnly ? "mc cdoall"
                  : p.isFlat          ? "xdoall"
                                      : "sdoall/cdoall",
                  std::to_string(p.invocations),
                  std::to_string(p.bodies),
                  Table::num(p.wallPctOf(r.ct), 1),
                  Table::num(100.0 * static_cast<double>(p.barrierWall) /
                                 static_cast<double>(r.ct),
                             1),
                  Table::num(r.toSeconds(p.pickupCpu), 3)});
    }
    t.print(os);
}

} // namespace cedar::core
