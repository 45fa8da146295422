/**
 * @file
 * Example: drive the interconnection-network substrate directly.
 *
 * Demonstrates the two contention phenomena the paper builds on:
 *
 *  1. bandwidth saturation — the interleaved global memory tops out
 *     at 8 words/cycle, so vector streams from many CEs queue;
 *  2. hot spots — test&set traffic to a single synchronisation word
 *     serialises on one memory module (Pfister & Norton's effect),
 *     no matter how much aggregate bandwidth exists.
 */

#include <iostream>

#include "core/table.hh"
#include "mem/global_memory.hh"
#include "net/network.hh"

using namespace cedar;
using cedar::sim::Tick;

namespace
{

/** All @p n_ces stream @p words consecutive words; returns the mean
 *  per-CE latency ratio vs the unloaded stream. */
double
streamSlowdown(unsigned n_ces, unsigned words)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gmem(map);
    net::Network net(4, 8, gmem);

    // Reference: a single CE on an idle machine.
    mem::GlobalMemory g2(map);
    net::Network n2(4, 8, g2);
    const Tick unloaded = n2.burst(0, 0, 0, 0, words).complete;

    double total = 0;
    for (unsigned i = 0; i < n_ces; ++i) {
        const sim::Addr base = static_cast<sim::Addr>(i) * words;
        total += static_cast<double>(
            net.burst(0, static_cast<int>(i / 8), static_cast<int>(i % 8),
                      base, words)
                .complete);
    }
    return total / n_ces / static_cast<double>(unloaded);
}

/** All @p n_ces do one test&set on the same word (hot) or on
 *  per-CE words (cold); returns the mean latency in cycles. */
double
rmwLatency(unsigned n_ces, bool hot)
{
    mem::AddressMap map(32, 4);
    mem::GlobalMemory gmem(map);
    net::Network net(4, 8, gmem);
    double total = 0;
    for (unsigned i = 0; i < n_ces; ++i) {
        const sim::Addr addr = hot ? 0 : static_cast<sim::Addr>(i);
        const auto r =
            net.rmw(0, static_cast<int>(i / 8), static_cast<int>(i % 8),
                    addr, [](std::uint64_t v) { return v + 1; });
        total += static_cast<double>(r.complete);
    }
    return total / n_ces;
}

} // namespace

int
main()
{
    std::cout << "Network substrate exploration\n\n"
              << "1) Vector-stream slowdown vs active CEs "
                 "(256-word streams):\n\n";
    core::Table t1({"active CEs", "offered (w/c)", "slowdown vs "
                                                   "unloaded"});
    for (unsigned n : {1u, 2u, 4u, 8u, 16u, 24u, 32u}) {
        t1.addRow({std::to_string(n), std::to_string(n),
                   core::Table::num(streamSlowdown(n, 256), 2) + "x"});
    }
    t1.print(std::cout);
    std::cout << "\nAggregate memory bandwidth is 8 words/cycle (32 "
                 "modules, 4 cycles per\ndouble-word): beyond ~8 "
                 "concurrently streaming CEs the machine\nsaturates "
                 "and latency climbs linearly — the contention the "
                 "paper's\nSection 7 quantifies.\n\n";

    std::cout << "2) Synchronisation hot spot (simultaneous "
                 "test&set):\n\n";
    core::Table t2({"CEs", "same word (cycles)", "distinct words "
                                                 "(cycles)"});
    for (unsigned n : {1u, 4u, 8u, 16u, 32u}) {
        t2.addRow({std::to_string(n),
                   core::Table::num(rmwLatency(n, true), 1),
                   core::Table::num(rmwLatency(n, false), 1)});
    }
    t2.print(std::cout);
    std::cout << "\nA single lock word serialises on one module (8 "
                 "cycles per RMW), so\nmean latency grows linearly "
                 "with contenders — why the paper's xdoall\n"
                 "iteration pick-up gets expensive at 32 processors, "
                 "and why Cedar's\nclustered barriers (one update per "
                 "cluster) beat flat ones.\n";
    return 0;
}
