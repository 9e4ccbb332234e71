/**
 * @file
 * The outside-in experiment roster of the traced run. It builds the
 * same observers, in the same order, from the same public
 * constructors harness::detail::runExperimentDirect uses, but wraps
 * the trace generator, every pipeline observer, and the estimators'
 * LifecycleSink in forwarding proxies that count each call and time
 * the calls of every sampleStride-th cycle. Forwarding changes no
 * call and no call order, so the interval series it returns must be
 * bit-identical to runExperimentDirect's — the traced run checks
 * that on every task.
 */

#ifndef AVF_PERFBENCH_ROSTER_HH
#define AVF_PERFBENCH_ROSTER_HH

#include "harness/experiment.hh"
#include "ledger.hh"

namespace avf::perfbench
{

/**
 * Run @p config through the proxied roster, filling @p ledger. The
 * result carries the intervals, features, summary, and attribution
 * table; the post-run metrics snapshot and estimator states are left
 * empty. Configurations with lifecycle tracing or closed-loop control
 * are refused (std::invalid_argument): no workload enables them, so
 * the roster does not mirror them.
 *
 * With @p buildOnly, every constructor runs and the roster is torn
 * down before its first cycle, and the result is empty: the
 * simulator's per-task set-up, which the benchmark times.
 */
harness::ExperimentResult
runTracedExperiment(const harness::ExperimentConfig &config,
                    TaskLedger &ledger, bool buildOnly = false);

/** True when @p a and @p b hold bit-identical interval series. */
bool sameIntervals(const harness::ExperimentResult &a,
                   const harness::ExperimentResult &b);

} // namespace avf::perfbench

#endif // AVF_PERFBENCH_ROSTER_HH
