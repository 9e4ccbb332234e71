/**
 * @file
 * The traced serve campaign: the steps serve::runCampaignFresh takes
 * (prepareCampaign, then runFromCheckpoint's loop of
 * runShardedSlices, feed appends, rollup and merge folds,
 * FeedWriter::flushSync, saveCheckpoint), driven one public function
 * at a time so each can be timed. The feed and checkpoint it writes
 * must be byte-identical to runCampaignFresh's; the traced run
 * checks that.
 */

#ifndef AVF_PERFBENCH_SERVE_STEPS_HH
#define AVF_PERFBENCH_SERVE_STEPS_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "ledger.hh"
#include "obs/trace_export.hh"
#include "serve/campaign.hh"

namespace avf::perfbench
{

/**
 * What a serve campaign dispatched, seen from outside the program:
 * worker processes forked (a pthread_atfork counter) and checkpoints
 * renamed into place (inotify on the state directory). A campaign
 * renames its checkpoint once in prepareCampaign, once per batch,
 * and once when complete, so batches = renames - 2.
 */
class DispatchWatch
{
  public:
    /** Start watching @p spec's checkpoint in @p paths. */
    DispatchWatch(const serve::CampaignSpec &spec,
                  const serve::StatePaths &paths);
    ~DispatchWatch();
    DispatchWatch(const DispatchWatch &) = delete;
    DispatchWatch &operator=(const DispatchWatch &) = delete;

    /**
     * Stop watching and add what was seen to @p out. False with
     * @p errorOut set when the watch could not be kept.
     */
    bool finish(Dispatch &out, std::string &errorOut);

  private:
    std::string ckptName;
    std::uint64_t forksAtStart = 0;
    int fd = -1;
};

/**
 * Run @p spec fresh in @p paths over @p workers processes, adding
 * to @p ledger and, per step, a span on lane @p tid of @p trace.
 * Each slice's decoded result is appended to @p slices (slice
 * order) for the per-layer replay. @p dispatched gets the batches
 * this loop ran and the workers they forked, for comparison with a
 * DispatchWatch on runCampaignFresh.
 *
 * @return false with @p errorOut set when any step fails.
 */
bool runTracedServeCampaign(const serve::CampaignSpec &spec,
                            const serve::StatePaths &paths, int workers,
                            ServeLedger &ledger,
                            std::vector<harness::ExperimentResult> &slices,
                            obs::TraceWriter &trace, std::uint32_t tid,
                            Dispatch &dispatched, std::string &errorOut);

} // namespace avf::perfbench

#endif // AVF_PERFBENCH_SERVE_STEPS_HH
