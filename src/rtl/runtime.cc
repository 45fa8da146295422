#include "rtl/runtime.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "obs/timeseries.hh"
#include "os/xylem.hh"

namespace cedar::rtl
{

using apps::LoopKind;
using apps::LoopSpec;
using apps::SerialSpec;
using hpm::EventId;
using os::UserAct;

Runtime::Runtime(hw::Machine &m, const apps::AppModel &app)
    : m_(m), app_(app)
{
    activity_ = std::make_unique<SyncCell>(m_, m_.allocSyncWord());
    lastSeen_.assign(m_.numClusters(), 0);
    windows_.assign(m_.numClusters(), ClusterWindow{});
    windowEnterAt_.assign(m_.numClusters(), 0);

    for (unsigned i = 0; i < m_.numCes(); ++i)
        ceRng_.push_back(m_.rng().fork());

    // Allocate the per-phase array regions and serial arenas up
    // front (addresses only; pages fault on first touch).
    loopBuffers_.resize(app_.phases.size());
    loopShared_.resize(app_.phases.size());
    serialArenas_.resize(app_.phases.size());
    loopIterCells_.resize(app_.phases.size());
    loopAttachCells_.resize(app_.phases.size());
    for (std::size_t i = 0; i < app_.phases.size(); ++i) {
        if (const auto *l = std::get_if<LoopSpec>(&app_.phases[i])) {
            for (unsigned b = 0; b < std::max(1u, l->nBuffers); ++b) {
                loopBuffers_[i].push_back(m_.allocGlobal(l->regionWords));
                loopShared_[i].push_back(m_.allocGlobal(
                    std::max(1u, l->sharedPages) * page_words));
            }
            // Loop-control words live with the phase, not the
            // instance: the compiler lays a loop's index and
            // attached-count words out once, so every execution of
            // the loop serialises on the same memory module.
            loopIterCells_[i] =
                std::make_unique<SyncCell>(m_, m_.allocSyncWord());
            loopAttachCells_[i] =
                std::make_unique<SyncCell>(m_, m_.allocSyncWord());
        } else if (const auto *s =
                       std::get_if<SerialSpec>(&app_.phases[i])) {
            const std::uint64_t total =
                static_cast<std::uint64_t>(s->pages) * app_.steps;
            const sim::Addr base =
                m_.allocGlobal(static_cast<unsigned>(
                    std::max<std::uint64_t>(total, 1) * page_words));
            SerialArena arena;
            arena.firstPage = base / page_words + 1; // private region
            arena.nPages = total;
            serialArenas_[i] = arena;
        }
    }
}

Runtime::~Runtime() = default;

bool
Runtime::anyCeParked()
{
    for (unsigned c = 0; c < m_.numClusters(); ++c) {
        auto &cluster = m_.cluster(static_cast<sim::ClusterId>(c));
        for (unsigned p = 0; p < cluster.numCes(); ++p) {
            if (cluster.ce(static_cast<int>(p)).parked())
                return true;
        }
    }
    return false;
}

sim::RunStatus
Runtime::run(std::uint64_t event_limit, std::uint64_t watchdog_events,
             const ProgressFn &progress)
{
    using clock = std::chrono::steady_clock;
    constexpr auto heartbeat = std::chrono::milliseconds(500);

    m_.xylem().startDaemons();
    m_.statfx().start();
    m_.eq().scheduleIn(0, [this] { startProgram(); });

    sim::Watchdog wd(watchdog_events);
    const std::uint64_t base = m_.eq().executed();
    auto lastBeat = clock::now();
    status_ = sim::RunStatus::Completed;
    for (;;) {
        const std::uint64_t done = m_.eq().executed() - base;
        if (done >= event_limit) {
            status_ = sim::RunStatus::EventLimit;
            break;
        }
        // Slices small enough that the watchdog and the parked-CE
        // check see the loop regularly, large enough to stay cheap.
        const std::uint64_t slice =
            std::min({std::max<std::uint64_t>(wd.stallEvents() / 4, 1024),
                      std::uint64_t(65536), event_limit - done});
        const bool drained = m_.eq().run(slice);
        if (progress) {
            const auto t = clock::now();
            if (t - lastBeat >= heartbeat) {
                lastBeat = t;
                RunProgress p;
                p.now = m_.eq().now();
                p.events = m_.eq().executed() - base;
                p.stepsRun = stats_.stepsRun;
                p.totalSteps = app_.steps;
                const obs::ClassTotals t = obs::sampleClassTotals(m_);
                p.totalWaitTicks = std::accumulate(
                    t.waitTicks.begin(), t.waitTicks.end(), sim::Tick(0));
                progress(p);
            }
        }
        if (anyCeParked()) {
            // A CE is hung on a dead memory module with no timeout
            // path; the program can never finish, even though OS
            // daemons keep the queue busy.
            status_ = sim::RunStatus::Deadlock;
            break;
        }
        if (drained) {
            if (!finished_)
                status_ = sim::RunStatus::Deadlock;
            break;
        }
        if (wd.observe(m_.eq().now(), m_.eq().executed())) {
            status_ = sim::RunStatus::Deadlock;
            break;
        }
    }

    if (!finished_)
        ct_ = m_.eq().now();
    else if (status_ == sim::RunStatus::Completed &&
             m_.faultLog().degraded() > 0)
        status_ = sim::RunStatus::Faulted;
    m_.acct().finalize(ct_);
    m_.tracer().close();
    return status_;
}

void
Runtime::startProgram()
{
    createHelpers(1);
}

void
Runtime::createHelpers(unsigned next)
{
    if (next >= m_.numClusters()) {
        runStep(0);
        return;
    }
    const auto target = static_cast<sim::ClusterId>(next);
    m_.xylem().createHelperTask(mainLead(), target, [this, target, next] {
        helperWaitLoop(target);
        createHelpers(next + 1);
    });
}

void
Runtime::runStep(unsigned step)
{
    if (step >= app_.steps) {
        finishProgram();
        return;
    }
    ++stats_.stepsRun;
    runPhase(step, 0);
}

void
Runtime::runPhase(unsigned step, unsigned idx)
{
    if (idx >= app_.phases.size()) {
        runStep(step + 1);
        return;
    }
    sim::Cont next = [this, step, idx] { runPhase(step, idx + 1); };
    const auto &phase = app_.phases[idx];
    if (const auto *s = std::get_if<SerialSpec>(&phase)) {
        execSerial(idx, *s, std::move(next));
        return;
    }
    const auto &l = std::get<LoopSpec>(phase);
    switch (l.kind) {
      case LoopKind::sdoall:
      case LoopKind::xdoall:
        execSpreadLoop(step, idx, l, std::move(next));
        break;
      case LoopKind::mc_cdoall:
      case LoopKind::cdoacross:
        execMainClusterLoop(step, idx, l, std::move(next));
        break;
    }
}

void
Runtime::finishProgram()
{
    finished_ = true;
    ct_ = m_.now();
    m_.xylem().stopDaemons();
    m_.statfx().stop();
    // Helper tasks die with the program: close out their pending
    // busy-waits so the ledger reflects the spin time up to the end.
    for (unsigned c = 1; c < m_.numClusters(); ++c) {
        auto &lead = m_.cluster(static_cast<sim::ClusterId>(c)).lead();
        if (lead.waiting()) {
            lead.endWaitUser(UserAct::helper_wait);
            m_.trace().post(ct_, lead.id(), EventId::wait_exit, 0);
        }
    }
}

// ----- serial sections -----

void
Runtime::execSerial(unsigned phase_idx, const SerialSpec &s, sim::Cont k)
{
    auto &lead = mainLead();
    m_.trace().post(m_.now(), lead.id(), EventId::serial_enter, 0);

    // Touch this step's fresh pages of the serial arena (sequential
    // page faults), then compute, blocking for I/O along the way.
    auto &arena = serialArenas_[phase_idx];
    const std::uint64_t fresh =
        std::min<std::uint64_t>(s.pages, arena.nPages - arena.progress);
    const os::PageId first = arena.firstPage + arena.progress;
    arena.progress += fresh;

    const unsigned segments = s.ioOps + 1;
    const sim::Tick seg = s.compute / segments;

    // Chain: pages -> (compute [-> io])* -> exit. The chain state
    // (including the exit continuation) lives in one shared
    // SerialRun, so every closure below is a small [this, st, i]
    // that fits a continuation's inline buffer. (The previous
    // self-capturing shared std::function also leaked itself via
    // the reference cycle.)
    auto st = std::make_shared<SerialRun>();
    st->lead = &lead;
    st->segments = segments;
    st->seg = seg;
    st->finish = [this, &lead, k = std::move(k)] {
        m_.trace().post(m_.now(), lead.id(), EventId::serial_exit, 0);
        k();
    };

    m_.xylem().touchPages(lead, first, static_cast<unsigned>(fresh),
                          [this, st] { serialSegment(st, 0); });
}

void
Runtime::serialSegment(const std::shared_ptr<SerialRun> &st, unsigned i)
{
    if (i >= st->segments) {
        sim::Cont finish = std::move(st->finish);
        finish();
        return;
    }
    auto &lead = *st->lead;
    lead.compute(std::max<sim::Tick>(st->seg, 1), UserAct::serial,
                 [this, st, i] {
                     if (i + 1 < st->segments) {
                         m_.xylem().ioBlock(*st->lead, [this, st, i] {
                             serialSegment(st, i + 1);
                         });
                     } else {
                         serialSegment(st, i + 1);
                     }
                 });
}

// ----- loop posting (main task) -----

Runtime::LoopPtr
Runtime::newInstance(unsigned step, unsigned phase_idx, const LoopSpec &s)
{
    auto loop = std::make_shared<LoopInstance>();
    loop->seq = nextSeq_++;
    loop->phaseIdx = phase_idx;
    loop->spec = &s;
    const auto &buffers = loopBuffers_[phase_idx];
    loop->region = buffers[step % buffers.size()];
    loop->sharedBase = loopShared_[phase_idx][step % buffers.size()];
    loop->iterCell = loopIterCells_[phase_idx].get();
    loop->attachCell = loopAttachCells_[phase_idx].get();
    // Fresh instance, recycled words: start the iteration index and
    // the attached-helpers count from zero again. Untimed, like the
    // implicit zero of a fresh allocation; safe because the previous
    // instance's finish barrier drained every waiter.
    loop->iterCell->set(0);
    loop->attachCell->set(0);
    loop->blocks.resize(m_.numClusters());
    if (s.kind == LoopKind::cdoacross)
        loop->serializer = std::make_unique<sim::FifoServer>();
    ++stats_.loopsPosted;
    switch (s.kind) {
      case LoopKind::sdoall: ++stats_.sdoallLoops; break;
      case LoopKind::xdoall: ++stats_.xdoallLoops; break;
      case LoopKind::mc_cdoall: ++stats_.mcLoops; break;
      case LoopKind::cdoacross: ++stats_.cdoacrossLoops; break;
    }
    return loop;
}

void
Runtime::execSpreadLoop(unsigned step, unsigned phase_idx,
                        const LoopSpec &s, sim::Cont k)
{
    auto loop = newInstance(step, phase_idx, s);
    auto &lead = mainLead();
    const bool xd = s.kind == LoopKind::xdoall;
    m_.trace().post(m_.now(), lead.id(),
                    xd ? EventId::xdoall_post : EventId::sdoall_post,
                    hpm::packLoopRef(loop->phaseIdx, loop->seq));
    m_.trace().post(m_.now(), lead.id(), EventId::loop_setup_enter,
                    loop->seq);

    curLoop_ = loop;
    // Set up loop parameters locally, write the descriptor to
    // global memory, then flip the activity word the helpers spin
    // on.
    lead.compute(m_.costs().loop_setup_local, UserAct::loop_setup,
                 [this, loop, &lead, k = std::move(k)]() mutable {
        lead.globalAccess(loop->region, m_.costs().loop_post_words,
                          UserAct::loop_setup,
                          [this, loop, &lead, k = std::move(k)]() mutable {
            const std::uint32_t seq = loop->seq;
            activity_->update(lead, [seq](std::uint64_t) { return seq; },
                              UserAct::loop_setup,
                              [this, loop, &lead,
                               k = std::move(k)](std::uint64_t) mutable {
                m_.trace().post(m_.now(), lead.id(),
                                EventId::loop_setup_exit, loop->seq);
                // The main task participates like any cluster task,
                // then spin-waits for the helpers to detach.
                participate(0, loop,
                            [this, loop, &lead,
                             k = std::move(k)]() mutable {
                    m_.trace().post(m_.now(), lead.id(),
                                    EventId::barrier_enter, loop->seq);
                    loop->attachCell->wait(
                        lead, [](std::uint64_t v) { return v == 0; },
                        UserAct::barrier_wait,
                        [this, loop, &lead, k = std::move(k)] {
                            m_.trace().post(m_.now(), lead.id(),
                                            EventId::barrier_exit,
                                            loop->seq);
                            loop->open = false;
                            if (curLoop_ == loop)
                                curLoop_ = nullptr;
                            m_.trace().post(m_.now(), lead.id(),
                                            EventId::loop_done, loop->seq);
                            k();
                        });
                });
            });
        });
    });
}

// ----- helper task engine -----

void
Runtime::helperWaitLoop(sim::ClusterId c)
{
    auto &lead = m_.cluster(c).lead();
    m_.trace().post(m_.now(), lead.id(), EventId::wait_enter, 0);
    const std::uint64_t seen = lastSeen_[c];
    activity_->wait(lead,
                    [seen](std::uint64_t v) { return v != 0 && v != seen; },
                    UserAct::helper_wait, [this, c] { onHelperWake(c); });
}

void
Runtime::onHelperWake(sim::ClusterId c)
{
    if (finished_)
        return;
    auto &lead = m_.cluster(c).lead();
    m_.trace().post(m_.now(), lead.id(), EventId::wait_exit, 0);
    const std::uint64_t v = activity_->value();
    lastSeen_[c] = v;

    LoopPtr loop = curLoop_;
    if (!loop || loop->seq != v || !loop->open) {
        // The loop closed before this helper noticed it; back to
        // spinning.
        helperWaitLoop(c);
        return;
    }

    ++stats_.helperJoins;
    m_.trace().post(m_.now(), lead.id(), EventId::helper_join, loop->seq);
    // Joining is an explicit resource-scheduling request: Xylem
    // gathers the helper cluster with a cross-processor interrupt
    // before the gang enters the loop (one of the CPI sources the
    // paper lists in Section 5.1).
    m_.xylem().crossProcessorInterrupt(c, [this, c, loop, &lead] {
        joinLoop(c, loop, lead);
    });
}

void
Runtime::joinLoop(sim::ClusterId c, const LoopPtr &loop, hw::Ce &lead)
{
    if (!loop->open) {
        helperWaitLoop(c);
        return;
    }
    // Attach to the loop (so the main task's finish barrier counts
    // us), participate, detach, and return to the wait loop.
    loop->attachCell->update(
        lead, [](std::uint64_t n) { return n + 1; }, UserAct::loop_setup,
        [this, c, loop, &lead](std::uint64_t) {
            participate(c, loop, [this, c, loop, &lead] {
                // The continuation keeps the loop instance alive
                // until the detach transaction fully completes.
                loop->attachCell->update(
                    lead, [](std::uint64_t n) { return n - 1; },
                    UserAct::iter_pickup,
                    [this, c, loop](std::uint64_t) { helperWaitLoop(c); });
            });
        });
}

// ----- participation -----

void
Runtime::participate(sim::ClusterId c, const LoopPtr &loop, sim::Cont done)
{
    windowEnter(c);
    if (loop->spec->kind == LoopKind::sdoall) {
        pickOuter(c, loop, [this, c, done = std::move(done)] {
            windowExit(c, false);
            done();
        });
        return;
    }

    assert(loop->spec->kind == LoopKind::xdoall);
    // Flat construct: all CEs of the cluster enter the user's code
    // and compete for iterations; the cluster synchronises on the
    // concurrency bus when the iterations run out.
    auto &cluster = m_.cluster(c);
    const unsigned nces = cluster.numCes();
    cluster.bus().expect(nces);
    // Only CE 0's bus arrival resumes the cluster task; the other
    // CEs' chains never need the continuation, so it is moved into
    // the j == 0 chain alone rather than copied cluster-wide.
    for (unsigned j = 0; j < nces; ++j) {
        auto &ce = cluster.ce(static_cast<int>(j));
        if (j == 0) {
            xdoallCeLoop(ce, loop,
                         [this, c, &cluster, &ce,
                          done = std::move(done)]() mutable {
                cluster.bus().arrive(ce, UserAct::iter_pickup,
                                     [this, c, done = std::move(done)] {
                    windowExit(c, false);
                    done();
                });
            });
        } else {
            xdoallCeLoop(ce, loop, [&cluster, &ce] {
                cluster.bus().arrive(ce, UserAct::iter_pickup,
                                     [&ce] { ce.markIdle(); });
            });
        }
    }
}

void
Runtime::acquireIndexLock(hw::Ce &ce, const LoopPtr &loop, sim::Cont k)
{
    // The acquire is a real test&set: a 1-word RMW round trip to the
    // module holding the index word. Every competing CE's attempt
    // queues at that one module, which is what makes the lock word a
    // hot spot (DESIGN §2). The lock state itself is host-side; a
    // losing attempt parks the CE until the hand-off (a queue lock),
    // so there is no retry storm — the paper found t&s retry polling
    // negligible next to the initial burst.
    ce.globalRmw(loop->iterCell->addr(),
                 [](std::uint64_t n) { return n; }, UserAct::iter_pickup,
                 [&ce, loop, k = std::move(k)](std::uint64_t) mutable {
        if (!loop->lockBusy) {
            loop->lockBusy = true;
            k();
            return;
        }
        ce.beginWait();
        loop->lockWaiters.emplace_back(&ce, std::move(k));
    });
}

void
Runtime::releaseIndexLock(const LoopPtr &loop)
{
    if (loop->lockWaiters.empty()) {
        loop->lockBusy = false;
        return;
    }
    auto [ce, k] = std::move(loop->lockWaiters.front());
    loop->lockWaiters.pop_front();
    // Hand-off: the lock stays busy; the waiter resumes now.
    m_.eq().scheduleIn(0, [ce = ce, k = std::move(k)] {
        ce->endWaitUser(UserAct::iter_pickup);
        k();
    });
}

void
Runtime::pickupIndex(hw::Ce &ce, const LoopPtr &loop, hw::Ce::ValCont k)
{
    // Pick-next-iteration: local bookkeeping, then the critical
    // section around the index word — test&set acquire, bump the
    // index, release — all real (contending) network transactions.
    // The lock is held for the acquirer's full round trip, so under
    // heavy traffic pick-up cost compounds with network contention.
    //
    // With pickupBlock > 1 the pick-up first consults the cluster's
    // local iteration block (chunked self-scheduling, the paper's
    // combining-style mitigation): only one in every `block` picks
    // goes out to the shared index word.
    m_.trace().post(m_.now(), ce.id(), EventId::pickup_enter, loop->seq);
    const std::uint64_t block = std::max(1u, loop->spec->pickupBlock);
    ce.compute(m_.costs().pickup_local, UserAct::iter_pickup,
               [this, &ce, loop, k = std::move(k), block]() mutable {
        auto &blk = loop->blocks[ce.cluster()];
        if (blk.next < blk.end) {
            const std::uint64_t idx = blk.next++;
            m_.trace().post(m_.now(), ce.id(), EventId::pickup_exit,
                            loop->seq);
            k(idx);
            return;
        }
        acquireIndexLock(ce, loop,
                         [this, &ce, loop, k = std::move(k),
                          block]() mutable {
            // Re-check under the lock: a cluster-mate may have
            // refilled the block while this CE waited.
            auto &blk2 = loop->blocks[ce.cluster()];
            if (blk2.next < blk2.end) {
                const std::uint64_t idx = blk2.next++;
                releaseIndexLock(loop);
                m_.trace().post(m_.now(), ce.id(), EventId::pickup_exit,
                                loop->seq);
                k(idx);
                return;
            }
            loop->iterCell->update(
                ce, [block](std::uint64_t n) { return n + block; },
                UserAct::iter_pickup,
                [this, &ce, loop, k = std::move(k),
                 block](std::uint64_t idx) mutable {
                    ce.globalRmw(loop->iterCell->addr(),
                                 [](std::uint64_t n) { return n; },
                                 UserAct::iter_pickup,
                                 [this, &ce, loop, k = std::move(k), block,
                                  idx](std::uint64_t) mutable {
                        releaseIndexLock(loop);
                        std::uint64_t take = idx;
                        if (block > 1 && idx < loop->spec->outerIters) {
                            // Install the whole fetched block, then
                            // take its first iteration.
                            auto &blk3 = loop->blocks[ce.cluster()];
                            blk3.next = idx;
                            blk3.end = std::min<std::uint64_t>(
                                idx + block, loop->spec->outerIters);
                            take = blk3.next++;
                        }
                        m_.trace().post(m_.now(), ce.id(),
                                        EventId::pickup_exit, loop->seq);
                        k(take);
                    });
                });
        });
    });
}

void
Runtime::pickOuter(sim::ClusterId c, const LoopPtr &loop, sim::Cont done)
{
    auto &lead = m_.cluster(c).lead();
    pickupIndex(lead, loop,
                [this, c, loop,
                 done = std::move(done)](std::uint64_t idx) mutable {
        if (idx >= loop->spec->outerIters) {
            done();
            return;
        }
        ++stats_.outerIters;
        execOuterIteration(c, loop, idx,
                           [this, c, loop,
                            done = std::move(done)]() mutable {
            pickOuter(c, loop, std::move(done));
        });
    });
}

void
Runtime::execOuterIteration(sim::ClusterId c, const LoopPtr &loop,
                            std::uint64_t outer_idx, sim::Cont k)
{
    auto &cluster = m_.cluster(c);
    auto &lead = cluster.lead();
    const unsigned nces = cluster.numCes();
    const unsigned inner = loop->spec->innerIters;
    const unsigned chunk = (inner + nces - 1) / nces;

    cluster.bus().expect(nces);
    // The lead dispatches the cdoall over the concurrency bus, then
    // executes its own share like everyone else. Only CE 0's arrival
    // carries the continuation onward.
    lead.compute(cluster.bus().dispatchCost(), UserAct::iter_pickup,
                 [this, loop, &cluster, nces, inner, chunk, outer_idx,
                  k = std::move(k)]() mutable {
        for (unsigned j = 0; j < nces; ++j) {
            auto &ce = cluster.ce(static_cast<int>(j));
            const std::uint64_t first = static_cast<std::uint64_t>(j) *
                                        chunk;
            const std::uint64_t count =
                first >= inner
                    ? 0
                    : std::min<std::uint64_t>(chunk, inner - first);
            // The intra-cluster sync wait is folded into loop
            // execution, matching the paper (the cdoall sync
            // overhead is not separated out).
            if (j == 0) {
                runShare(ce, loop, outer_idx * inner + first, count,
                         nullptr, UserAct::iter_exec,
                         [&cluster, &ce, k = std::move(k)]() mutable {
                    cluster.bus().arrive(ce, UserAct::iter_exec,
                                         std::move(k));
                });
            } else {
                runShare(ce, loop, outer_idx * inner + first, count,
                         nullptr, UserAct::iter_exec,
                         [&cluster, &ce] {
                    cluster.bus().arrive(ce, UserAct::iter_exec,
                                         [&ce] { ce.markIdle(); });
                });
            }
        }
    });
}

void
Runtime::xdoallCeLoop(hw::Ce &ce, const LoopPtr &loop, sim::Cont k)
{
    // Every CE of every participating cluster independently picks
    // iterations through the shared index lock — the hot spot the
    // paper attributes the xdoall distribution overhead to.
    pickupIndex(ce, loop, [this, &ce, loop,
                           k = std::move(k)](std::uint64_t idx) mutable {
        if (idx >= loop->spec->outerIters) {
            k();
            return;
        }
        execBody(ce, loop, idx, nullptr, UserAct::iter_exec,
                 [this, &ce, loop, k = std::move(k)]() mutable {
            xdoallCeLoop(ce, loop, std::move(k));
        });
    });
}

// ----- main-cluster-only loops -----

void
Runtime::execMainClusterLoop(unsigned step, unsigned phase_idx,
                             const LoopSpec &s, sim::Cont k)
{
    auto loop = newInstance(step, phase_idx, s);
    auto &cluster = m_.cluster(0);
    auto &lead = cluster.lead();
    const unsigned nces = cluster.numCes();
    const unsigned total = s.outerIters;
    const unsigned chunk = (total + nces - 1) / nces;

    m_.trace().post(m_.now(), lead.id(), EventId::mcloop_enter,
                    hpm::packLoopRef(loop->phaseIdx, loop->seq));
    windowEnter(0);

    cluster.bus().expect(nces);
    lead.compute(cluster.bus().dispatchCost(), UserAct::mc_loop,
                 [this, loop, &cluster, &lead, nces, total, chunk,
                  k = std::move(k)]() mutable {
        for (unsigned j = 0; j < nces; ++j) {
            auto &ce = cluster.ce(static_cast<int>(j));
            const std::uint64_t first = static_cast<std::uint64_t>(j) *
                                        chunk;
            const std::uint64_t count =
                first >= total
                    ? 0
                    : std::min<std::uint64_t>(chunk, total - first);
            if (j == 0) {
                runShare(ce, loop, first, count, loop->serializer.get(),
                         UserAct::mc_loop,
                         [this, loop, &cluster, &ce, &lead,
                          k = std::move(k)]() mutable {
                    cluster.bus().arrive(ce, UserAct::mc_loop,
                                         [this, loop, &lead,
                                          k = std::move(k)] {
                        windowExit(0, true);
                        m_.trace().post(m_.now(), lead.id(),
                                        EventId::mcloop_exit, loop->seq);
                        loop->open = false;
                        k();
                    });
                });
            } else {
                runShare(ce, loop, first, count, loop->serializer.get(),
                         UserAct::mc_loop, [&cluster, &ce] {
                    cluster.bus().arrive(ce, UserAct::mc_loop,
                                         [&ce] { ce.markIdle(); });
                });
            }
        }
    });
}

// ----- iteration bodies -----

void
Runtime::runShare(hw::Ce &ce, const LoopPtr &loop, std::uint64_t first,
                  std::uint64_t count, sim::FifoServer *serializer,
                  os::UserAct act, sim::Cont k)
{
    if (count == 0) {
        k();
        return;
    }
    execBody(ce, loop, first, serializer, act,
             [this, &ce, loop, first, count, serializer, act,
              k = std::move(k)]() mutable {
        runShare(ce, loop, first + 1, count - 1, serializer, act,
                 std::move(k));
    });
}

sim::Addr
Runtime::bodyAddr(const LoopInstance &loop, std::uint64_t iter_key) const
{
    const auto &s = *loop.spec;
    if (s.words == 0)
        return loop.region;
    const std::uint64_t span =
        s.regionWords > s.words ? s.regionWords - s.words : 1;
    const sim::Addr off = (iter_key * s.words) % span;
    return (loop.region + off) & ~sim::Addr(3);
}

void
Runtime::touchBodyPages(hw::Ce &ce, sim::Addr addr, unsigned words,
                        sim::Cont k)
{
    const os::PageId first = addr / page_words;
    const os::PageId last = (addr + std::max(words, 1u) - 1) / page_words;
    m_.xylem().touchPages(ce, first,
                          static_cast<unsigned>(last - first + 1),
                          std::move(k));
}

void
Runtime::execBody(hw::Ce &ce, const LoopPtr &loop, std::uint64_t iter_key,
                  sim::FifoServer *serializer, os::UserAct act, sim::Cont k)
{
    const auto &s = *loop->spec;
    ++stats_.bodiesExecuted;
    m_.trace().post(m_.now(), ce.id(), EventId::iter_start, loop->seq);

    // Per-iteration jitter makes bodies unequal, which is what
    // produces barrier skew on real loops.
    auto &rng = ceRng_[static_cast<std::size_t>(ce.id())];
    const double jit = 1.0 + s.jitterFrac * (2.0 * rng.uniform() - 1.0);
    const auto compute = static_cast<sim::Tick>(
        std::max(1.0, static_cast<double>(s.computePerIter) * jit));

    const sim::Addr addr = bodyAddr(*loop, iter_key);

    auto after_body = [this, &ce, loop, serializer, act,
                       k = std::move(k)]() mutable {
        if (!serializer) {
            m_.trace().post(m_.now(), ce.id(), EventId::iter_end,
                            loop->seq);
            k();
            return;
        }
        // CDOACROSS: the serialised region runs in ticket order.
        const sim::Tick serial_region = loop->spec->serialRegion;
        const sim::Tick start_at =
            serializer->serve(m_.now(), serial_region) - serial_region;
        ce.beginWait();
        m_.eq().schedule(start_at,
                         [this, &ce, loop, serial_region, act,
                          k = std::move(k)]() mutable {
            ce.endWaitUser(act);
            ce.compute(std::max<sim::Tick>(serial_region, 1), act,
                       [this, &ce, loop, k = std::move(k)] {
                m_.trace().post(m_.now(), ce.id(), EventId::iter_end,
                                loop->seq);
                k();
            });
        });
    };

    // The page working set of the iteration includes the stencil
    // halo on both sides of its section.
    const sim::Addr touch_from =
        addr > s.haloWords ? addr - s.haloWords : 0;
    const unsigned touch_words = s.words + 2 * s.haloWords;

    // Capture the three LoopSpec scalars the burst executor needs
    // rather than the whole spec (a LoopSpec copy per iteration).
    auto touch_and_run = [this, &ce, addr, touch_from, touch_words,
                          words = s.words, burst_len = s.burstLen,
                          prefetch = s.prefetch, compute, act,
                          after_body = std::move(after_body)]() mutable {
        touchBodyPages(ce, touch_from, touch_words,
                       [this, &ce, addr, words, burst_len, prefetch,
                        compute, act,
                        after_body = std::move(after_body)]() mutable {
            execBursts(ce, addr, words, burst_len, compute, prefetch,
                       act, std::move(after_body));
        });
    };

    if (s.sharedPages == 0) {
        touch_and_run();
        return;
    }
    // Shared lookup table: for an sdoall nest all CEs of the
    // cluster hit the outer iteration's page together — the source
    // of concurrent page faults.
    const std::uint64_t idx =
        s.kind == apps::LoopKind::sdoall
            ? iter_key / std::max(1u, s.innerIters)
            : iter_key / 8;
    const os::PageId shared_page =
        loop->sharedBase / page_words + idx % s.sharedPages;
    m_.xylem().touchPages(ce, shared_page, 1, std::move(touch_and_run));
}

void
Runtime::execBursts(hw::Ce &ce, sim::Addr addr, unsigned words,
                    unsigned burst_len, sim::Tick compute, bool prefetch,
                    os::UserAct act, sim::Cont k)
{
    if (words == 0) {
        ce.compute(compute, act, std::move(k));
        return;
    }
    // ceil(words / burst_len) without forming words + burst_len,
    // which wraps for a burst length near 2^32 (words > 0 here).
    const unsigned bursts = (words - 1) / std::max(burst_len, 1u) + 1;
    const sim::Tick slice = std::max<sim::Tick>(compute / bursts, 1);
    const unsigned len = std::min(words, burst_len);

    auto next = [this, &ce, addr, words, burst_len, len, compute, slice,
                 prefetch, act, k = std::move(k)]() mutable {
        const unsigned remaining = words - len;
        const sim::Tick rem_compute =
            compute > slice ? compute - slice : 0;
        if (remaining == 0) {
            if (rem_compute > 0) {
                ce.compute(rem_compute, act, std::move(k));
            } else {
                k();
            }
            return;
        }
        execBursts(ce, addr + len, remaining, burst_len, rem_compute,
                   prefetch, act, std::move(k));
    };

    if (prefetch) {
        // Vector prefetch: the stream runs under this slice's
        // computation.
        ce.computeWithPrefetch(slice, addr, len, act, std::move(next));
        return;
    }
    ce.compute(slice, act, [&ce, addr, len, act,
                            next = std::move(next)]() mutable {
        ce.globalAccess(addr, len, act, std::move(next));
    });
}

// ----- window bookkeeping -----

void
Runtime::windowEnter(sim::ClusterId c)
{
    windowEnterAt_[c] = m_.now();
}

void
Runtime::windowExit(sim::ClusterId c, bool mc)
{
    const sim::Tick dur = m_.now() - windowEnterAt_[c];
    if (mc)
        windows_[c].mcWall += dur;
    else
        windows_[c].sxWall += dur;
}

} // namespace cedar::rtl
