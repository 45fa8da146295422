/**
 * @file
 * Example: the cedarhpm measurement path, end to end.
 *
 * Runs a small application with tracing enabled, off-loads the
 * trace buffer to a file (as the real monitor off-loads to a Sun
 * workstation), reads it back, and reconstructs the per-task
 * user-time breakdown from the raw records — the same pipeline the
 * paper used for its Figures 5-9 — then cross-checks it against
 * the OS ledger ("Q" facility) numbers.
 */

#include <cstdio>
#include <iostream>

#include "core/breakdown.hh"
#include "core/experiment.hh"
#include "core/study.hh"
#include "core/table.hh"
#include "hpm/trace.hh"

using namespace cedar;

int
main()
{
    apps::AppModel app;
    app.name = "traced";
    app.steps = 4;
    {
        apps::SerialSpec s;
        s.compute = 15000;
        s.pages = 2;
        app.phases.push_back(s);
        apps::LoopSpec l;
        l.kind = apps::LoopKind::sdoall;
        l.outerIters = 10;
        l.innerIters = 32;
        l.computePerIter = 900;
        l.words = 128;
        l.regionWords = 1 << 16;
        app.phases.push_back(l);
        apps::LoopSpec x;
        x.kind = apps::LoopKind::xdoall;
        x.outerIters = 80;
        x.computePerIter = 1200;
        x.words = 64;
        x.regionWords = 1 << 15;
        app.phases.push_back(x);
    }

    core::RunOptions opts;
    opts.collectTrace = true;
    const auto r = core::runExperiment(app, 32, opts);

    std::cout << "Collected " << r.trace.size()
              << " cedarhpm records over "
              << core::Table::num(r.seconds(), 3) << " s of execution ("
              << r.nprocs << " processors).\n\nFirst records:\n";
    {
        hpm::Trace t;
        for (const auto &rec : r.trace)
            t.post(rec.when, rec.ce, rec.id(), rec.arg);
        t.dump(std::cout, 12);

        // Off-load and re-read, as the monitor does.
        const std::string path = "/tmp/cedar_example_trace.bin";
        core::atomicWriteFile(path, [&](std::ostream &os) {
            hpm::Trace::write(os, t.records());
        });
        const auto back = hpm::Trace::readFile(path);
        std::cout << "\nOff-loaded and re-read " << back.size()
                  << " records from " << path << "\n";
        std::remove(path.c_str());
    }

    std::cout << "\nUser-time breakdown reconstructed from the trace "
                 "(trace / ledger, % of CT):\n\n";
    const auto from_trace = core::userBreakdownFromTrace(r);
    core::Table t({"Task", "serial", "iterations", "setup", "pickup",
                   "barrier", "helper wait"});
    for (unsigned c = 0; c < r.nClusters; ++c) {
        const auto ledger = core::userBreakdown(r, c);
        auto cell = [&](os::UserAct a) {
            return core::Table::num(from_trace[c].pctOf(a, r.ct), 1) +
                   " / " + core::Table::num(ledger.pctOf(a, r.ct), 1);
        };
        t.addRow({c == 0 ? "Main" : "helper" + std::to_string(c),
                  cell(os::UserAct::serial),
                  cell(os::UserAct::iter_exec),
                  cell(os::UserAct::loop_setup),
                  cell(os::UserAct::iter_pickup),
                  cell(os::UserAct::barrier_wait),
                  cell(os::UserAct::helper_wait)});
    }
    t.print(std::cout);

    std::cout << "\nThe two measurement paths — event-trace "
                 "reconstruction (what the\npaper could do on real "
                 "hardware) and the simulator's exact ledger —\n"
                 "agree closely; the residual difference is spin-"
                 "wake latency and\nunmarked interrupt overlay at "
                 "interval edges.\n";
    return 0;
}
