/**
 * @file
 * Ablation A6 — the context-switch/RTL cooperation the paper
 * proposes (Section 5.1): if the kernel knows a CE is only
 * spin-waiting (helper waiting for work, main task at a barrier),
 * it can skip the inactive register saves/restores when switching
 * the gang, reducing the ctx component of the OS overhead.
 */

#include <iostream>

#include "harness.hh"

using namespace cedar;

int
main()
{
    std::cout << "Ablation A6: context-switch cooperation with the "
                 "runtime library (32 processors)\n\n";

    core::Table t(
        {"Program", "ctx % (baseline)", "ctx % (coop)", "OS % (baseline)",
         "OS % (coop)", "CT gain"});

    for (const auto &name : bench::app_names) {
        std::cerr << "running " << name << " (base + coop)...\n";
        const auto app = apps::perfectAppByName(name);
        auto coop_cfg = hw::CedarConfig::withProcs(32);
        coop_cfg.costs.ctx_rtl_coop = true;

        const auto base = core::runExperiment(app, 32);
        const auto coop = core::runExperiment(app, coop_cfg);

        auto ctx_pct = [](const core::RunResult &r) {
            return 100.0 *
                   r.fractionOfCt(r.totalAcct.inOs(os::OsAct::ctx));
        };
        t.addRow({name, core::Table::num(ctx_pct(base), 2),
                  core::Table::num(ctx_pct(coop), 2),
                  core::Table::num(
                      core::ctBreakdownTotal(base).osTotalPct(), 1),
                  core::Table::num(
                      core::ctBreakdownTotal(coop).osTotalPct(), 1),
                  core::Table::num(100.0 * (1.0 - coop.seconds() /
                                                      base.seconds()),
                                   1) +
                      "%"});
    }
    t.print(std::cout);

    std::cout
        << "\nThe saving scales with how much of the machine spins:\n"
           "codes with long helper waits (FLO52, ADM) recover more of\n"
           "the ctx overhead than the well-balanced MDG.\n";
    return 0;
}
