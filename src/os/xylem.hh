/**
 * @file
 * The Xylem operating-system model.
 *
 * Xylem is Cedar's Unix extension: cluster tasks, gang scheduling,
 * multitasking and virtual-memory management. The model reproduces
 * the OS activities the paper instruments and measures — context
 * switching, cross-processor interrupts, sequential/concurrent page
 * faults, cluster/global critical sections, cluster/global system
 * calls, and asynchronous system traps — as costed events injected
 * into the machine, with all time attributed through the
 * Accounting ledger.
 */

#ifndef CEDAR_OS_XYLEM_HH
#define CEDAR_OS_XYLEM_HH

#include <cstdint>
#include <vector>

#include "os/kernel_lock.hh"
#include "os/page_table.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace cedar::hw
{
class Machine;
class Ce;
}

namespace cedar::os
{

/** Event counters exposed for tests and reports. */
struct XylemStats
{
    std::uint64_t cpis = 0;
    std::uint64_t ctxSwitches = 0;
    std::uint64_t clusterSyscalls = 0;
    std::uint64_t globalSyscalls = 0;
    std::uint64_t asts = 0;
    std::uint64_t ioBlocks = 0;
};

/** The operating-system model for one machine. */
class Xylem
{
  public:
    explicit Xylem(hw::Machine &m);

    Xylem(const Xylem &) = delete;
    Xylem &operator=(const Xylem &) = delete;

    /**
     * Start background activity (per-cluster OS daemons and the
     * master-cluster timer AST source).
     */
    void startDaemons();

    /** Stop background activity at application completion. */
    void stopDaemons() { running_ = false; }

    // ----- services used by the runtime library and workloads -----

    /**
     * CE touches @p n pages starting at @p first. Resident pages
     * cost nothing; unmapped pages fault (sequential or concurrent)
     * with full kernel cost. @p k runs when all pages are resident.
     */
    void touchPages(hw::Ce &ce, PageId first, unsigned n, sim::Cont k);

    /** A cluster-level system call serviced on @p ce. */
    void clusterSyscall(hw::Ce &ce, sim::Cont k);

    /** A global system call (includes a global critical section). */
    void globalSyscall(hw::Ce &ce, sim::Cont k);

    /**
     * Create a helper task on cluster @p target: a global system
     * call on the caller plus a CPI on the target cluster.
     */
    void createHelperTask(hw::Ce &caller, sim::ClusterId target,
                          sim::Cont k);

    /**
     * Application blocks for I/O on the caller's cluster: a cluster
     * system call plus a context switch of that cluster.
     */
    void ioBlock(hw::Ce &ce, sim::Cont k);

    /**
     * Gather all CEs of @p cluster with a cross-processor
     * interrupt; @p done runs once the cluster is synchronised.
     */
    void crossProcessorInterrupt(sim::ClusterId cluster, sim::Cont done);

    PageTable &pageTable() { return pt_; }
    const XylemStats &stats() const { return stats_; }

    /** Kernel-lock contention statistics (metrics layer). */
    const KernelLock &globalLock() const { return globalLock_; }
    const KernelLock &clusterLock(sim::ClusterId c) const
    {
        return clusterLocks_.at(c);
    }

  private:
    void daemonRun(sim::ClusterId c);
    void scheduleDaemon(sim::ClusterId c);
    void astRun();
    void scheduleAst();
    void handleFault(hw::Ce &ce, PageId page, Touch kind, sim::Cont k);

    /**
     * @p ce enters a critical section of @p hold ticks under @p lock:
     * reserve the lock, book the kernel spin (ledger and span), then
     * book the section itself as system time in @p act.
     *
     * @return the tick at which the section exits.
     */
    sim::Tick enterCritical(hw::Ce &ce, KernelLock &lock, OsAct act,
                            sim::Tick hold);

    hw::Machine &m_;
    PageTable pt_;
    std::vector<KernelLock> clusterLocks_;
    KernelLock globalLock_;
    sim::RandomGen rng_;
    bool running_ = false;
    XylemStats stats_;
};

} // namespace cedar::os

#endif // CEDAR_OS_XYLEM_HH
