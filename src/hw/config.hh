/**
 * @file
 * Machine configuration and cost model.
 *
 * CedarConfig describes a Cedar configuration (clusters x CEs) plus
 * the cost model for RTL and OS activities. The five configurations
 * the paper measures are produced by CedarConfig::withProcs(): 1, 4
 * and 8 processors are a single cluster (the 4-processor
 * configuration uses 4 CEs of one cluster, per the paper's
 * footnote); 16 and 32 processors are 2 and 4 full clusters.
 */

#ifndef CEDAR_HW_CONFIG_HH
#define CEDAR_HW_CONFIG_HH

#include <string>
#include <vector>

#include "sim/types.hh"

namespace cedar::hw
{

/**
 * Calibrated cycle costs of runtime-library and operating-system
 * activities. Defaults are tuned so the reproduced overhead shapes
 * match the paper's Tables 1-4 (see EXPERIMENTS.md).
 */
struct CostModel
{
    // ----- Runtime library -----
    /** Local bookkeeping before posting a parallel loop. */
    sim::Tick loop_setup_local = 60;
    /** Global words written to post a loop descriptor. */
    unsigned loop_post_words = 4;
    /** Concurrency-bus dispatch of a cdoall across the cluster. */
    sim::Tick cdoall_dispatch = 6;
    /** Concurrency-bus intra-cluster synchronisation. */
    sim::Tick cdoall_sync = 10;
    /** Local (non-network) work per iteration pick-up. */
    sim::Tick pickup_local = 12;
    /** Latency from a sync-word change to a spinning CE seeing it. */
    sim::Tick spin_wake_latency = 48;

    // ----- Operating system -----
    /** Per-CE save/restore when servicing a cross-processor intr. */
    sim::Tick cpi_save = 2200;
    /** Final synchronisation cost of gathering a cluster via CPI. */
    sim::Tick cpi_sync = 80;
    /** Per-CE register save/restore on a context switch. */
    sim::Tick ctx_cost = 1500;
    /** OS bookkeeping executed while the app is switched out. */
    sim::Tick daemon_work = 1000;
    /** Mean ticks between OS daemon runs on a cluster. */
    double daemon_mean_interval = 1.6e5;
    /** Sequential page-fault service time. */
    sim::Tick pgflt_seq_cost = 800;
    /** Concurrent page-fault service time (per faulting CE). */
    sim::Tick pgflt_conc_cost = 12000;
    /** Cluster critical-section body executed per kernel entry. */
    sim::Tick crit_clus_cost = 700;
    /** Global critical-section body. */
    sim::Tick crit_glbl_cost = 900;
    /** Cluster system-call service time. */
    sim::Tick syscall_clus_cost = 2200;
    /** Global system-call service time. */
    sim::Tick syscall_glbl_cost = 6000;
    /** Asynchronous system trap service time. */
    sim::Tick ast_cost = 900;
    /** Mean ticks between timer ASTs on the master cluster. */
    double ast_mean_interval = 6.0e5;

    /**
     * The context-switch/RTL cooperation the paper proposes in
     * Section 5.1: when a CE is merely spin-waiting (helper waiting
     * for work, main task at a barrier), skip its inactive register
     * saves/restores on a context switch, paying only a quarter of
     * the usual cost.
     */
    bool ctx_rtl_coop = false;

    // ----- Global-memory resilience -----
    /**
     * Ticks a CE waits on a global access to a dead (stuck forever)
     * memory module before retrying. 0 disables the timeout path:
     * the CE parks on the access and the run ends in deadlock —
     * the stock machine's behaviour.
     */
    sim::Tick gm_timeout = 0;
    /** Base backoff added per retry (doubles each attempt). */
    sim::Tick gm_retry_backoff = 2000;
    /** Retries before a timed-out access is abandoned. */
    unsigned gm_max_retries = 3;

    // ----- Instrumentation -----
    /** statfx concurrency sampling period. */
    sim::Tick statfx_period = 2000;
};

/** A full machine configuration. */
struct CedarConfig
{
    unsigned nClusters = 4;
    unsigned cesPerCluster = 8;
    /** Global memory geometry (identical for every configuration,
     *  as in the paper: same network and memory throughout). */
    unsigned nModules = 32;
    unsigned groupSize = 4;
    double clockHz = sim::default_clock_hz;
    CostModel costs;

    unsigned numCes() const { return nClusters * cesPerCluster; }

    /**
     * Check structural sanity of the configuration (non-zero
     * geometry, interleavable memory, positive model periods).
     * Machine construction validates implicitly.
     *
     * @throws sim::ConfigError describing the first problem found.
     */
    void validate() const;

    /**
     * The five measured configurations: 1, 4, 8, 16, 32 processors.
     * Other machine shapes are built by filling the geometry fields
     * directly (or declaratively, via core::ScenarioSpec).
     *
     * @throws std::invalid_argument for non-paper processor counts.
     */
    static CedarConfig withProcs(unsigned nprocs);

    /** The processor counts withProcs() accepts, in paper order. */
    static const std::vector<unsigned> &paperProcCounts();

    /**
     * True when this is one of the five paper configurations
     * (geometry and memory system both as measured).
     */
    bool isPaperPoint() const;

    /** "32 proc" for paper points, "2x4 CEs" for other shapes. */
    std::string label() const;
};

} // namespace cedar::hw

#endif // CEDAR_HW_CONFIG_HH
