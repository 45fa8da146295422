#include "os/xylem.hh"

#include <algorithm>
#include <cassert>

#include "hw/machine.hh"

namespace cedar::os
{

Xylem::Xylem(hw::Machine &m)
    : m_(m), clusterLocks_(m.numClusters()),
      rng_(m.seed() ^ 0xbadc0ffee0ddf00dULL)
{
    globalLock_.setTracer(&m.tracer());
    for (KernelLock &l : clusterLocks_)
        l.setTracer(&m.tracer());
}

void
Xylem::startDaemons()
{
    running_ = true;
    for (unsigned c = 0; c < m_.numClusters(); ++c)
        scheduleDaemon(static_cast<sim::ClusterId>(c));
    scheduleAst();
}

void
Xylem::scheduleDaemon(sim::ClusterId c)
{
    const sim::Tick dt =
        rng_.exponential(m_.costs().daemon_mean_interval);
    m_.eq().scheduleIn(dt, [this, c] { daemonRun(c); });
}

void
Xylem::daemonRun(sim::ClusterId c)
{
    if (!running_)
        return;
    ++stats_.ctxSwitches;

    auto &cluster = m_.cluster(c);
    m_.trace().post(m_.now(), cluster.lead().id(),
                    hpm::EventId::task_switch_out,
                    static_cast<std::uint32_t>(c));

    // Gather the cluster with a CPI, then charge the gang context
    // switch (save/restore on every CE) and the OS server's
    // bookkeeping, which runs under the cluster memory lock. All
    // charges are asynchronous overlays: they elongate whatever the
    // CEs are doing, exactly like a real switch-out would.
    crossProcessorInterrupt(c, [this, c, &cluster] {
        const auto &costs = m_.costs();
        for (unsigned i = 0; i < cluster.numCes(); ++i) {
            auto &ce = cluster.ce(static_cast<int>(i));
            // RTL cooperation (paper Section 5.1): a spin-waiting
            // CE's registers are dead, so a cooperating kernel can
            // skip most of its save/restore work.
            const sim::Tick cost =
                costs.ctx_rtl_coop && ce.waiting()
                    ? costs.ctx_cost / 4
                    : costs.ctx_cost;
            ce.chargeInterrupt(cost, TimeCat::system, OsAct::ctx);
        }
        auto &lead = cluster.lead();
        lead.chargeInterrupt(costs.daemon_work, TimeCat::system,
                             OsAct::other);
        const auto sect =
            clusterLocks_[c].reserve(m_.now(), costs.crit_clus_cost);
        lead.chargeKernelSpin(sect.spin);
        lead.chargeInterrupt(costs.crit_clus_cost, TimeCat::system,
                             OsAct::crit_clus);
        // Occasionally the daemon touches a machine-global resource
        // (scheduling tables) under the global lock.
        if (rng_.chance(0.25)) {
            const auto gsect =
                globalLock_.reserve(m_.now(), costs.crit_glbl_cost);
            lead.chargeKernelSpin(gsect.spin);
            lead.chargeInterrupt(costs.crit_glbl_cost, TimeCat::system,
                                 OsAct::crit_glbl);
        }
        m_.trace().post(m_.now(), lead.id(),
                        hpm::EventId::task_switch_in,
                        static_cast<std::uint32_t>(c));
        scheduleDaemon(c);
    });
}

void
Xylem::scheduleAst()
{
    const sim::Tick dt = rng_.exponential(m_.costs().ast_mean_interval);
    m_.eq().scheduleIn(dt, [this] { astRun(); });
}

void
Xylem::astRun()
{
    if (!running_)
        return;
    ++stats_.asts;
    auto &lead = m_.cluster(0).lead();
    lead.chargeInterrupt(m_.costs().ast_cost, TimeCat::system, OsAct::ast);
    scheduleAst();
}

void
Xylem::crossProcessorInterrupt(sim::ClusterId cluster, sim::Cont done)
{
    ++stats_.cpis;
    auto &cl = m_.cluster(cluster);
    const auto &costs = m_.costs();
    for (unsigned i = 0; i < cl.numCes(); ++i) {
        cl.ce(static_cast<int>(i))
            .chargeInterrupt(costs.cpi_save, TimeCat::interrupt,
                             OsAct::cpi);
    }
    // The initiating thread continues once every CE has saved state
    // and synchronised on the concurrency bus.
    m_.eq().scheduleIn(costs.cpi_save + costs.cpi_sync, std::move(done));
}

void
Xylem::handleFault(hw::Ce &ce, PageId page, Touch kind, sim::Cont k)
{
    const auto &costs = m_.costs();
    const auto act =
        kind == Touch::fault_seq ? OsAct::pgflt_seq : OsAct::pgflt_conc;
    m_.trace().post(m_.now(), ce.id(), hpm::EventId::os_enter,
                    static_cast<std::uint32_t>(act));

    auto finish = [this, &ce, act, k = std::move(k)] {
        m_.trace().post(m_.now(), ce.id(), hpm::EventId::os_exit,
                        static_cast<std::uint32_t>(act));
        k();
    };

    if (kind == Touch::fault_seq) {
        // Fault handler runs on the faulting CE: spin on the
        // cluster memory lock, hold it for the critical section,
        // then do the page-in service work.
        const sim::Tick exit =
            enterCritical(ce, clusterLocks_[ce.cluster()],
                          OsAct::crit_clus, costs.crit_clus_cost);
        pt_.faultWindow(page, exit + costs.pgflt_seq_cost);
        ce.occupyUntil(exit,
                       [&ce, cost = costs.pgflt_seq_cost,
                        finish = std::move(finish)]() mutable {
                           ce.osCompute(cost, TimeCat::system,
                                        OsAct::pgflt_seq,
                                        std::move(finish));
                       });
        return;
    }

    assert(kind == Touch::fault_conc);
    // Concurrent fault: a CPI gathers the cluster, then this CE
    // pays the (more expensive) concurrent service, extended to the
    // end of the original fault's window if that is later.
    crossProcessorInterrupt(
        ce.cluster(),
        [this, &ce, page, finish = std::move(finish)]() mutable {
            const auto &costs2 = m_.costs();
            const sim::Tick resolve = pt_.resolveAt(page);
            const sim::Tick now2 = m_.now();
            sim::Tick service = costs2.pgflt_conc_cost;
            if (resolve != sim::max_tick && resolve > now2 + service)
                service = resolve - now2;
            ce.osCompute(service, TimeCat::system, OsAct::pgflt_conc,
                         std::move(finish));
        });
}

sim::Tick
Xylem::enterCritical(hw::Ce &ce, KernelLock &lock, OsAct act,
                     sim::Tick hold)
{
    const auto sect = lock.reserve(m_.now(), hold);
    if (sect.spin > 0) {
        m_.acct().addKernelSpin(ce.id(), sect.spin);
        m_.tracer().spinSpan(static_cast<int>(ce.id()), m_.now(),
                             sect.spin);
    }
    m_.acct().addOs(ce.id(), TimeCat::system, act, hold);
    m_.tracer().osSpan(static_cast<int>(ce.id()), TimeCat::system, act,
                       sect.exit - hold, hold);
    return sect.exit;
}

void
Xylem::touchPages(hw::Ce &ce, PageId first, unsigned n, sim::Cont k)
{
    // Walk the pages; resident ones are free, the first faulting
    // page is handled and then the walk resumes.
    for (unsigned i = 0; i < n; ++i) {
        const PageId page = first + i;
        const Touch t = pt_.touch(page, m_.now());
        if (t == Touch::resident)
            continue;
        const PageId rest_first = page + 1;
        const unsigned rest_n = n - i - 1;
        handleFault(ce, page, t,
                    [this, &ce, rest_first, rest_n,
                     k = std::move(k)]() mutable {
                        touchPages(ce, rest_first, rest_n, std::move(k));
                    });
        return;
    }
    k();
}

void
Xylem::clusterSyscall(hw::Ce &ce, sim::Cont k)
{
    ++stats_.clusterSyscalls;
    const auto &costs = m_.costs();
    const sim::Tick exit = enterCritical(ce, clusterLocks_[ce.cluster()],
                                         OsAct::crit_clus,
                                         costs.crit_clus_cost);
    ce.occupyUntil(exit,
                   [&ce, cost = costs.syscall_clus_cost,
                    k = std::move(k)]() mutable {
                       ce.osCompute(cost, TimeCat::system,
                                    OsAct::syscall_clus, std::move(k));
                   });
}

void
Xylem::globalSyscall(hw::Ce &ce, sim::Cont k)
{
    ++stats_.globalSyscalls;
    const auto &costs = m_.costs();
    const sim::Tick exit = enterCritical(ce, globalLock_, OsAct::crit_glbl,
                                         costs.crit_glbl_cost);
    ce.occupyUntil(exit,
                   [&ce, cost = costs.syscall_glbl_cost,
                    k = std::move(k)]() mutable {
                       ce.osCompute(cost, TimeCat::system,
                                    OsAct::syscall_glbl, std::move(k));
                   });
}

void
Xylem::createHelperTask(hw::Ce &caller, sim::ClusterId target, sim::Cont k)
{
    globalSyscall(caller, [this, target, k = std::move(k)]() mutable {
        crossProcessorInterrupt(target, std::move(k));
    });
}

void
Xylem::ioBlock(hw::Ce &ce, sim::Cont k)
{
    ++stats_.ioBlocks;
    ++stats_.ctxSwitches;
    auto &cluster = m_.cluster(ce.cluster());
    clusterSyscall(ce, [this, &ce, &cluster, k = std::move(k)]() mutable {
        // Blocking switches the whole gang out and back in: the
        // other CEs get overlay charges, the blocking CE pays the
        // switch on its own program.
        crossProcessorInterrupt(
            ce.cluster(),
            [this, &ce, &cluster, k = std::move(k)]() mutable {
                const auto &costs = m_.costs();
                for (unsigned i = 0; i < cluster.numCes(); ++i) {
                    auto &other = cluster.ce(static_cast<int>(i));
                    if (other.id() == ce.id())
                        continue;
                    const sim::Tick cost =
                        costs.ctx_rtl_coop && other.waiting()
                            ? costs.ctx_cost / 4
                            : costs.ctx_cost;
                    other.chargeInterrupt(cost, TimeCat::system,
                                          OsAct::ctx);
                }
                ce.osCompute(costs.ctx_cost, TimeCat::system,
                             OsAct::ctx, std::move(k));
            });
    });
}

} // namespace cedar::os
