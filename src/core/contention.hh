/**
 * @file
 * Global memory / network contention estimation (paper Section 7,
 * Table 4).
 *
 * The 1-processor run gives the minimum possible processing time of
 * the parallel loop code (T1_mc for main-cluster-only loops, T1_sx
 * for s(x)doall loops). The ideal parallel-loop time on a larger
 * configuration divides those by the measured average parallel-loop
 * concurrency; the excess of the actual parallel-loop wall time over
 * the ideal, as a fraction of completion time, is the contention
 * overhead Ov_cont.
 *
 * Because the simulator also *knows* the true queueing every CE
 * experienced, groundTruthContentionPct() reports the directly
 * measured contention the paper could not observe — the ablation
 * bench compares the two.
 */

#ifndef CEDAR_CORE_CONTENTION_HH
#define CEDAR_CORE_CONTENTION_HH

#include "core/experiment.hh"
#include "obs/resource.hh"
#include "sim/types.hh"

namespace cedar::core
{

/** Table-4 quantities for one (app, configuration) pair. */
struct ContentionEstimate
{
    double tpActualSec = 0; //!< measured parallel-loop wall time
    double tpIdealSec = 0;  //!< concurrency-scaled 1-proc loop time
    double ovContPct = 0;   //!< (actual-ideal)/CT, percent
};

/**
 * Apply the paper's estimation method.
 *
 * @param run the multiprocessor run to analyse.
 * @param uni the 1-processor run of the same application.
 */
ContentionEstimate estimateContention(const RunResult &run,
                                      const RunResult &uni);

/** Ground truth: queueing stall observed by CEs / CT, percent. */
double groundTruthContentionPct(const RunResult &run);

/**
 * Per-resource-class ground truth: the CE-observed contention split
 * by where the queueing happened.
 *
 * Raw server waits cannot be compared to wall-clock overheads
 * directly — the chunks of one pipelined burst queue concurrently,
 * so their waits sum to far more than the stall the CE experiences
 * (which is the envelope, not the sum). What the per-server waits
 * *do* measure exactly is the relative weight of each resource in
 * the total queueing. So the class figure is
 * groundTruthContentionPct() apportioned by the class's share of
 * all resource wait; the classes sum to the CE-observed total.
 */
double groundTruthClassPct(const RunResult &run, obs::ResourceClass cls);

/**
 * Closure of the paper's decomposition: split the main task's
 * completion time into the named components and a residual, as
 * percentages of CT that sum to 100. The residual (OS time overlaid
 * on serial code, fault service, estimator error) should be small —
 * a run where it is not indicates the decomposition missed
 * something, which is exactly what this check is for.
 */
struct CtDecomposition
{
    double serialPct = 0;     //!< serial code on the main lead
    double loopIdealPct = 0;  //!< concurrency-scaled ideal loop time
    double contentionPct = 0; //!< T_p_actual - T_p_ideal
    double barrierPct = 0;    //!< main finish-barrier waits
    double setupPct = 0;      //!< loop set-up
    double residualPct = 0;   //!< everything else (OS on lead, ...)

    double
    explainedPct() const
    {
        return serialPct + loopIdealPct + contentionPct + barrierPct +
               setupPct;
    }
};

CtDecomposition decomposeCompletionTime(const RunResult &run,
                                        const RunResult &uni);

} // namespace cedar::core

#endif // CEDAR_CORE_CONTENTION_HH
