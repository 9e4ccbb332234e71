/**
 * @file
 * Process-level sharding for serve campaigns: slices fan out over
 * forked worker *processes* (not engine threads), and results merge
 * back in slice order, so many-tenant daemons isolate campaign
 * failures and byte-identity survives any worker count.
 *
 * Topology: one forked child per slice, run as a pipeline. Up to W
 * children are in flight at once; the parent reads their results in
 * slice order, and once slice i is read it forks slice i+W, so a
 * consumer that checkpoints between slices is no barrier to the
 * slices still running. Each child runs its slice with
 * harness::detail::runExperimentDirect (no thread pool in children),
 * encodes the result through harness/task_codec, writes the line over
 * its own pipe and exits; reading in slice order gives the consumer
 * exactly the submission-order stream the in-process engine would
 * deliver, whatever order the children finish in.
 *
 * Fork safety: this file owns the repo's only fork() call (enforced
 * by avflint's fork-safety check), and callers must be
 * single-threaded when they invoke it — the serve daemon is, by
 * design. Children never touch the listening socket or the feed;
 * they write their pipe and _exit. A child dies with the thread that
 * forked it (PR_SET_PDEATHSIG), so a SIGKILLed daemon leaves no slice
 * running; the sharder never returns with a child still alive.
 */

#ifndef AVF_SERVE_SHARDER_HH
#define AVF_SERVE_SHARDER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "harness/engine.hh"
#include "serve/protocol.hh"

namespace avf::serve
{

/**
 * Build slice @p index's experiment config: the campaign's machine
 * and estimator parameters, the slice's interval count, seeds
 * derived from (seedSalt, index) via harness::deriveTaskSeeds, and
 * estimator-state snapshots enabled.
 */
harness::ExperimentConfig makeSliceConfig(const CampaignSpec &spec,
                                          std::uint64_t index);

/**
 * Slice-result consumer; called in slice order on the parent.
 * Return false (with @p errorOut set) to abort the fan-out.
 */
using SliceConsumer = std::function<bool(
    const harness::TaskResult &task, std::string &errorOut)>;

/**
 * Run slices [@p firstSlice, @p endSlice) of @p spec, one forked
 * child each with up to @p workers (at least 1) in flight, and hand
 * each decoded result to @p onSlice in slice order. Every result —
 * even at one worker — crosses the wire codec, so the consumer's
 * view is byte-identical at any shard count by construction.
 *
 * @return false with @p errorOut set when a worker dies, a wire
 *         line fails to decode, a slice reports an error, or the
 *         consumer aborts; the children still in flight are then
 *         killed and reaped.
 */
bool runShardedSlices(const CampaignSpec &spec,
                      std::uint64_t firstSlice,
                      std::uint64_t endSlice, int workers,
                      const SliceConsumer &onSlice,
                      std::string &errorOut);

} // namespace avf::serve

#endif // AVF_SERVE_SHARDER_HH
