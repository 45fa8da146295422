#include "hw/ce.hh"

#include <cassert>
#include <memory>

#include "fault/fault.hh"
#include "hpm/trace.hh"
#include "obs/tracer.hh"

namespace cedar::hw
{

Ce::Ce(sim::EventQueue &eq, net::Network &net, os::Accounting &acct,
       hpm::Trace &trace, const CostModel &costs, sim::CeId id,
       sim::ClusterId cluster, int local_index)
    : eq_(eq), net_(net), acct_(acct), trace_(trace), costs_(costs),
      id_(id), cluster_(cluster), local_(local_index)
{
}

void
Ce::markIdle()
{
    assert(!busy_);
    waiting_ = false;
}

void
Ce::finishOp(sim::Tick completion, sim::Cont k)
{
    assert(!busy_ && "CE already has an outstanding primitive");
    assert(!waiting_ && "CE cannot start a primitive while waiting");
    assert(!pendingK_ && !pendingVal_);
    busy_ = true;
    // Park the continuation in the CE; the completion event is a
    // bare [this] that fits any inline buffer. One outstanding
    // primitive per CE makes the slot race-free by construction.
    pendingK_ = std::move(k);
    eq_.schedule(completion, [this] { opDone(); });
}

void
Ce::finishOpVal(sim::Tick completion, ValCont k, std::uint64_t v)
{
    assert(!busy_ && "CE already has an outstanding primitive");
    assert(!waiting_ && "CE cannot start a primitive while waiting");
    assert(!pendingK_ && !pendingVal_);
    busy_ = true;
    pendingVal_ = std::move(k);
    pendingValArg_ = v;
    eq_.schedule(completion, [this] { opDone(); });
}

void
Ce::opDone()
{
    if (penalty_ > 0) {
        // Interrupts arrived during the op: elongate it. The time
        // was already accounted by chargeInterrupt(); the pending
        // slot stays parked across the extension.
        const sim::Tick p = penalty_;
        penalty_ = 0;
        eq_.scheduleIn(p, [this] { opDone(); });
        return;
    }
    busy_ = false;
    // Move the continuation out before invoking: it may immediately
    // start the next primitive and re-park the slot.
    if (pendingVal_) {
        ValCont k = std::move(pendingVal_);
        k(pendingValArg_);
    } else {
        sim::Cont k = std::move(pendingK_);
        k();
    }
}

void
Ce::compute(sim::Tick n, os::UserAct act, sim::Cont k)
{
    acct_.addUser(id_, act, n);
    if (tracer_)
        tracer_->userSpan(static_cast<int>(id_), act, eq_.now(), n);
    finishOp(eq_.now() + n, std::move(k));
}

std::uint32_t
Ce::beginAccess(unsigned words)
{
    globalWords_ += words;
    ++globalAccesses_;
    return tracer_ ? tracer_->flowBegin(static_cast<int>(id_), eq_.now())
                   : 0;
}

sim::Tick
Ce::bookAccess(sim::Tick start, sim::Tick n, const net::XferResult &res,
               std::uint32_t flow, os::UserAct act)
{
    // The access runs under the computation; the CE only stalls for
    // whatever the computation could not hide.
    const sim::Tick complete = std::max(start + n, res.complete);
    const sim::Tick duration = complete - start;
    const sim::Tick hidden_min = std::max(n, res.unloaded);
    if (duration > hidden_min)
        queueingStall_ += duration - hidden_min;

    acct_.addUser(id_, act, duration);
    if (tracer_) {
        tracer_->userSpan(static_cast<int>(id_), act, start, duration);
        tracer_->flowEnd(flow, static_cast<int>(id_), res.complete);
    }
    return complete;
}

void
Ce::globalAccess(sim::Addr addr, unsigned words, os::UserAct act,
                 sim::Cont k)
{
    assert(words > 0);
    // A plain access is a prefetch with no computation to hide it.
    issuePrefetch(0, addr, words, act, 0, std::move(k));
}

void
Ce::computeWithPrefetch(sim::Tick n, sim::Addr addr, unsigned words,
                        os::UserAct act, sim::Cont k)
{
    if (words == 0) {
        compute(n, act, std::move(k));
        return;
    }
    issuePrefetch(n, addr, words, act, 0, std::move(k));
}

void
Ce::issuePrefetch(sim::Tick n, sim::Addr addr, unsigned words,
                  os::UserAct act, unsigned attempt, sim::Cont k)
{
    const sim::Tick start = eq_.now();
    const std::uint32_t flow = beginAccess(words);
    const auto res = net_.burst(start, cluster_, local_, addr, words, flow);

    if (res.complete == sim::max_tick) {
        // Retry and fallback share ownership of k; exactly one of
        // them ever runs, so moving out of the shared slot is safe.
        auto ks = std::make_shared<sim::Cont>(std::move(k));
        faultedAccess(
            addr, act, attempt, flow,
            [this, n, addr, words, act, ks](unsigned next) {
                issuePrefetch(n, addr, words, act, next, std::move(*ks));
            },
            // Fallback: the data words carry no simulated values, so
            // the stream is written off and only the (already
            // accounted) computation remains.
            [this, n, act, ks] {
                acct_.addUser(id_, act, n);
                if (tracer_)
                    tracer_->userSpan(static_cast<int>(id_), act,
                                      eq_.now(), n);
                finishOp(eq_.now() + n, std::move(*ks));
            });
        return;
    }
    finishOp(bookAccess(start, n, res, flow, act), std::move(k));
}

void
Ce::globalRmw(sim::Addr addr, RmwFn f, os::UserAct act, ValCont k)
{
    issueRmw(addr, std::move(f), act, 0, std::move(k));
}

void
Ce::issueRmw(sim::Addr addr, RmwFn f, os::UserAct act,
             unsigned attempt, ValCont k)
{
    const sim::Tick start = eq_.now();
    const std::uint32_t flow = beginAccess(1);
    const auto res = net_.rmw(start, cluster_, local_, addr, f, flow);

    if (res.complete == sim::max_tick) {
        // The dead module did not apply the mutation, so a retry
        // cannot double-apply it.
        auto fs = std::make_shared<RmwFn>(std::move(f));
        auto ks = std::make_shared<ValCont>(std::move(k));
        faultedAccess(
            addr, act, attempt, flow,
            [this, addr, fs, act, ks](unsigned next) {
                issueRmw(addr, std::move(*fs), act, next,
                         std::move(*ks));
            },
            // Fallback: the OS services the atomic through its
            // software path so the program's synchronisation state
            // stays consistent; the cost was the accumulated waits.
            [this, addr, fs, ks] {
                const std::uint64_t old = net_.forceRmw(addr, *fs);
                finishOpVal(eq_.now(), std::move(*ks), old);
            });
        return;
    }
    finishOpVal(bookAccess(start, 0, res, flow, act), std::move(k),
                res.oldValue);
}

void
Ce::faultedAccess(sim::Addr addr, os::UserAct act, unsigned attempt,
                  std::uint32_t flow, sim::SmallFn<void(unsigned)> retry,
                  sim::Cont fallback)
{
    if (tracer_)
        tracer_->flowEnd(flow, static_cast<int>(id_), eq_.now());
    if (costs_.gm_timeout == 0) {
        // No timeout path: the CE hangs on the bus, exactly as the
        // stock hardware would. The runtime reports the deadlock.
        recordFault(fault::FaultKind::access_parked, addr);
        parked_ = true;
        return;
    }
    if (attempt > costs_.gm_max_retries) {
        recordFault(fault::FaultKind::access_abandoned, addr);
        ++degradedAccesses_;
        fallback();
        return;
    }
    recordFault(fault::FaultKind::access_timeout, addr);
    // Exponential backoff saturates instead of shifting into the sign
    // bits (a backoff of 2^33 at attempt 31 used to wrap to garbage),
    // and the total wait is clamped so completion still schedules
    // below the max_tick sentinel.
    sim::Tick wait = sim::satAdd(costs_.gm_timeout,
                                 sim::satShl(costs_.gm_retry_backoff,
                                             attempt));
    const sim::Tick headroom =
        eq_.now() >= sim::max_tick - 1 ? 0 : sim::max_tick - 1 - eq_.now();
    if (wait > headroom)
        wait = headroom;
    acct_.addUser(id_, act, wait);
    if (tracer_)
        tracer_->userSpan(static_cast<int>(id_), act, eq_.now(), wait);
    finishOp(eq_.now() + wait,
             [retry = std::move(retry), attempt]() mutable {
                 retry(attempt + 1);
             });
}

void
Ce::recordFault(fault::FaultKind kind, std::uint64_t arg)
{
    if (flog_)
        flog_->record({eq_.now(), kind, static_cast<int>(id_), arg});
}

void
Ce::osCompute(sim::Tick n, os::TimeCat cat, os::OsAct act, sim::Cont k)
{
    acct_.addOs(id_, cat, act, n);
    if (tracer_)
        tracer_->osSpan(static_cast<int>(id_), cat, act, eq_.now(), n);
    finishOp(eq_.now() + n, std::move(k));
}

void
Ce::occupyUntil(sim::Tick t, sim::Cont k)
{
    assert(t >= eq_.now());
    finishOp(t, std::move(k));
}

void
Ce::beginWait(bool passive)
{
    assert(!busy_ && !waiting_);
    waiting_ = true;
    passiveWait_ = passive;
    waitStart_ = eq_.now();
    waitOverlap_ = 0;
}

sim::Tick
Ce::endWait()
{
    assert(waiting_);
    waiting_ = false;
    passiveWait_ = false;
    const sim::Tick wall = eq_.now() - waitStart_;
    return wall > waitOverlap_ ? wall - waitOverlap_ : 0;
}

sim::Tick
Ce::endWaitUser(os::UserAct act)
{
    const sim::Tick waited = endWait();
    if (waited > 0) {
        acct_.addUser(id_, act, waited);
        if (tracer_)
            tracer_->userSpan(static_cast<int>(id_), act,
                              eq_.now() - waited, waited);
    }
    return waited;
}

void
Ce::chargeInterrupt(sim::Tick n, os::TimeCat cat, os::OsAct act)
{
    acct_.addOs(id_, cat, act, n);
    // The hpm sees the asynchronous charge so trace analysis can
    // subtract it from whatever user interval it elongates.
    trace_.post(eq_.now(), id_, hpm::EventId::os_overlay,
                static_cast<std::uint32_t>(n));
    if (tracer_)
        tracer_->osSpan(static_cast<int>(id_), cat, act, eq_.now(), n,
                        /*overlay=*/true);
    if (waiting_) {
        waitOverlap_ += n;
    } else {
        // Busy: elongate the current primitive. Between primitives
        // or idle: pend the charge so the next primitive absorbs it
        // (the interrupt still consumed the CE's wall time).
        penalty_ += n;
    }
}

void
Ce::chargeKernelSpin(sim::Tick n)
{
    acct_.addKernelSpin(id_, n);
    trace_.post(eq_.now(), id_, hpm::EventId::os_overlay,
                static_cast<std::uint32_t>(n));
    if (tracer_)
        tracer_->spinSpan(static_cast<int>(id_), eq_.now(), n,
                          /*overlay=*/true);
    if (waiting_) {
        waitOverlap_ += n;
    } else {
        penalty_ += n;
    }
}

} // namespace cedar::hw
