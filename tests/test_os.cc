/**
 * @file
 * Tests for the Xylem OS model: accounting ledger, page table and
 * fault classification, kernel locks, OS services and daemons.
 */

#include <gtest/gtest.h>

#include "hw/machine.hh"
#include "os/accounting.hh"
#include "os/kernel_lock.hh"
#include "os/page_table.hh"
#include "os/xylem.hh"

namespace
{

using namespace cedar;
using cedar::os::OsAct;
using cedar::os::TimeCat;
using cedar::os::UserAct;
using cedar::sim::Tick;

TEST(Accounting, ChargesLandInRightBuckets)
{
    os::Accounting acct(2, 8);
    acct.addUser(0, UserAct::serial, 100);
    acct.addOs(0, TimeCat::system, OsAct::ctx, 30);
    acct.addOs(0, TimeCat::interrupt, OsAct::cpi, 20);
    acct.addKernelSpin(0, 5);
    const auto &a = acct.ce(0);
    EXPECT_EQ(a.inCat(TimeCat::user), 100u);
    EXPECT_EQ(a.inCat(TimeCat::system), 30u);
    EXPECT_EQ(a.inCat(TimeCat::interrupt), 20u);
    EXPECT_EQ(a.inCat(TimeCat::kspin), 5u);
    EXPECT_EQ(a.inUser(UserAct::serial), 100u);
    EXPECT_EQ(a.inOs(OsAct::ctx), 30u);
    EXPECT_EQ(a.busyTicks(), 155u);
}

TEST(Accounting, AddOsRejectsNonOsCategories)
{
    os::Accounting acct(1, 1);
    EXPECT_THROW(acct.addOs(0, TimeCat::user, OsAct::ctx, 1),
                 std::logic_error);
}

TEST(Accounting, FinalizeFillsIdle)
{
    os::Accounting acct(1, 2);
    acct.addUser(0, UserAct::serial, 300);
    acct.finalize(1000);
    EXPECT_EQ(acct.ce(0).inCat(TimeCat::idle), 700u);
    EXPECT_EQ(acct.ce(1).inCat(TimeCat::idle), 1000u);
    EXPECT_EQ(acct.overshoot(), 0u);
}

TEST(Accounting, FinalizeRecordsOvershoot)
{
    os::Accounting acct(1, 1);
    acct.addUser(0, UserAct::serial, 1200);
    acct.finalize(1000);
    EXPECT_EQ(acct.overshoot(), 200u);
    EXPECT_EQ(acct.ce(0).inCat(TimeCat::idle), 0u);
}

TEST(Accounting, ChargesAfterFinalizeAreDropped)
{
    os::Accounting acct(1, 1);
    acct.finalize(100);
    acct.addUser(0, UserAct::serial, 50);
    EXPECT_EQ(acct.ce(0).inCat(TimeCat::user), 0u);
}

TEST(Accounting, ClusterAndTotalAggregate)
{
    os::Accounting acct(2, 2);
    acct.addUser(0, UserAct::serial, 10);
    acct.addUser(1, UserAct::iter_exec, 20);
    acct.addUser(2, UserAct::helper_wait, 40);
    const auto c0 = acct.cluster(0);
    EXPECT_EQ(c0.inCat(TimeCat::user), 30u);
    const auto tot = acct.total();
    EXPECT_EQ(tot.inCat(TimeCat::user), 70u);
    EXPECT_EQ(tot.inUser(UserAct::helper_wait), 40u);
}

TEST(AccountingNames, AllCategoriesHaveNames)
{
    for (int i = 0; i < static_cast<int>(TimeCat::NUM); ++i)
        EXPECT_STRNE(toString(static_cast<TimeCat>(i)), "?");
    for (int i = 0; i < static_cast<int>(OsAct::NUM); ++i)
        EXPECT_STRNE(toString(static_cast<OsAct>(i)), "?");
    for (int i = 0; i < static_cast<int>(UserAct::NUM); ++i)
        EXPECT_STRNE(toString(static_cast<UserAct>(i)), "?");
}

TEST(PageTable, FirstTouchIsSequentialFault)
{
    os::PageTable pt;
    EXPECT_EQ(pt.touch(5, 0), os::Touch::fault_seq);
    EXPECT_EQ(pt.seqFaults(), 1u);
}

TEST(PageTable, TouchDuringWindowIsConcurrent)
{
    os::PageTable pt;
    pt.touch(5, 0);
    pt.faultWindow(5, 100);
    EXPECT_EQ(pt.touch(5, 50), os::Touch::fault_conc);
    EXPECT_EQ(pt.concFaults(), 1u);
}

TEST(PageTable, TouchAfterWindowIsResident)
{
    os::PageTable pt;
    pt.touch(5, 0);
    pt.faultWindow(5, 100);
    EXPECT_EQ(pt.touch(5, 100), os::Touch::resident);
    EXPECT_EQ(pt.touch(5, 5000), os::Touch::resident);
    EXPECT_EQ(pt.concFaults(), 0u);
}

TEST(PageTable, UnsetWindowClassifiesRacersAsConcurrent)
{
    os::PageTable pt;
    pt.touch(9, 10);
    // No faultWindow yet: a racer at the same instant is concurrent.
    EXPECT_EQ(pt.touch(9, 10), os::Touch::fault_conc);
}

TEST(PageTable, ResolveAtReportsWindow)
{
    os::PageTable pt;
    EXPECT_EQ(pt.resolveAt(3), sim::max_tick);
    pt.touch(3, 0);
    pt.faultWindow(3, 77);
    EXPECT_EQ(pt.resolveAt(3), 77u);
}

TEST(PageTable, ResetClears)
{
    os::PageTable pt;
    pt.touch(1, 0);
    pt.reset();
    EXPECT_EQ(pt.seqFaults(), 0u);
    EXPECT_EQ(pt.residentPages(), 0u);
}

TEST(KernelLock, UncontendedHasNoSpin)
{
    os::KernelLock lock;
    const auto t = lock.reserve(100, 50);
    EXPECT_EQ(t.spin, 0u);
    EXPECT_EQ(t.exit, 150u);
}

TEST(KernelLock, ContendedSpins)
{
    os::KernelLock lock;
    lock.reserve(0, 100);
    const auto t = lock.reserve(40, 100);
    EXPECT_EQ(t.spin, 60u);
    EXPECT_EQ(t.exit, 200u);
}

struct XylemFixture : ::testing::Test
{
    hw::Machine m{hw::CedarConfig::withProcs(8)};
};

TEST_F(XylemFixture, ResidentTouchCostsNothing)
{
    auto &ce = m.ce(0);
    m.xylem().pageTable().touch(100, 0); // pre-fault
    m.xylem().pageTable().faultWindow(100, 0);
    bool done = false;
    m.xylem().touchPages(ce, 100, 1, [&] { done = true; });
    EXPECT_TRUE(done); // synchronous: no fault, no event needed
    EXPECT_EQ(m.acct().ce(0).inOs(OsAct::pgflt_seq), 0u);
}

TEST_F(XylemFixture, SequentialFaultCostsServiceAndCritSect)
{
    auto &ce = m.ce(0);
    bool done = false;
    m.xylem().touchPages(ce, 200, 1, [&] { done = true; });
    m.eq().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(m.xylem().pageTable().seqFaults(), 1u);
    EXPECT_EQ(m.acct().ce(0).inOs(OsAct::pgflt_seq),
              m.costs().pgflt_seq_cost);
    EXPECT_EQ(m.acct().ce(0).inOs(OsAct::crit_clus),
              m.costs().crit_clus_cost);
}

TEST_F(XylemFixture, ConcurrentFaultIsDetectedAndCostsMore)
{
    bool a_done = false, b_done = false;
    m.xylem().touchPages(m.ce(0), 300, 1, [&] { a_done = true; });
    m.xylem().touchPages(m.ce(1), 300, 1, [&] { b_done = true; });
    m.eq().run();
    EXPECT_TRUE(a_done);
    EXPECT_TRUE(b_done);
    EXPECT_EQ(m.xylem().pageTable().seqFaults(), 1u);
    EXPECT_EQ(m.xylem().pageTable().concFaults(), 1u);
    EXPECT_GE(m.acct().ce(1).inOs(OsAct::pgflt_conc),
              m.costs().pgflt_conc_cost);
    // The concurrent fault gathered the cluster with a CPI.
    EXPECT_GE(m.xylem().stats().cpis, 1u);
    EXPECT_GT(m.acct().ce(2).inOs(OsAct::cpi), 0u);
}

TEST_F(XylemFixture, MultiPageWalkFaultsEachNewPage)
{
    bool done = false;
    m.xylem().touchPages(m.ce(0), 400, 5, [&] { done = true; });
    m.eq().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(m.xylem().pageTable().seqFaults(), 5u);
}

TEST_F(XylemFixture, ClusterSyscallAccounted)
{
    bool done = false;
    m.xylem().clusterSyscall(m.ce(0), [&] { done = true; });
    m.eq().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(m.xylem().stats().clusterSyscalls, 1u);
    EXPECT_EQ(m.acct().ce(0).inOs(OsAct::syscall_clus),
              m.costs().syscall_clus_cost);
}

TEST_F(XylemFixture, GlobalSyscallUsesGlobalLock)
{
    bool done = false;
    m.xylem().globalSyscall(m.ce(0), [&] { done = true; });
    m.eq().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(m.acct().ce(0).inOs(OsAct::crit_glbl),
              m.costs().crit_glbl_cost);
    EXPECT_EQ(m.acct().ce(0).inOs(OsAct::syscall_glbl),
              m.costs().syscall_glbl_cost);
}

TEST_F(XylemFixture, CpiChargesWholeCluster)
{
    bool done = false;
    m.xylem().crossProcessorInterrupt(0, [&] { done = true; });
    m.eq().run();
    EXPECT_TRUE(done);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(m.acct().ce(i).inOs(OsAct::cpi), m.costs().cpi_save);
}

TEST_F(XylemFixture, IoBlockSwitchesGangOut)
{
    bool done = false;
    m.xylem().ioBlock(m.ce(0), [&] { done = true; });
    m.eq().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(m.xylem().stats().ioBlocks, 1u);
    EXPECT_GT(m.acct().ce(0).inOs(OsAct::ctx), 0u);
    EXPECT_GT(m.acct().ce(5).inOs(OsAct::ctx), 0u);
}

TEST_F(XylemFixture, DaemonsGenerateCtxSwitchesUntilStopped)
{
    m.xylem().startDaemons();
    m.eq().runUntil(2'000'000);
    m.xylem().stopDaemons();
    EXPECT_GT(m.xylem().stats().ctxSwitches, 0u);
    const auto before = m.xylem().stats().ctxSwitches;
    m.eq().run(); // drains remaining timer events, which do nothing
    EXPECT_EQ(m.xylem().stats().ctxSwitches, before);
}

TEST_F(XylemFixture, CreateHelperTaskTouchesTargetCluster)
{
    hw::Machine m2{hw::CedarConfig::withProcs(32)};
    bool done = false;
    m2.xylem().createHelperTask(m2.ce(0), 2, [&] { done = true; });
    m2.eq().run();
    EXPECT_TRUE(done);
    EXPECT_GT(m2.acct().ce(16).inOs(OsAct::cpi), 0u); // cluster 2 CEs
    EXPECT_GT(m2.acct().ce(0).inOs(OsAct::syscall_glbl), 0u);
}

} // namespace
