#include "serve/campaign.hh"

#include "obs/feed_writer.hh"
#include "serve/sharder.hh"

namespace avf::serve
{

namespace
{

/**
 * Run @p checkpoint's campaign from slicesDone to completion against
 * an already-positioned feed writer, checkpointing every K slices
 * and finishing with the summary row. The slices run as one pipeline;
 * the consumer checkpoints at slicesDone + K, + 2K, ... and the last
 * slice while later slices keep running.
 */
bool
runFromCheckpoint(Checkpoint &checkpoint, const StatePaths &paths,
                  obs::FeedWriter &feed, int workers,
                  std::string &errorOut)
{
    const CampaignSpec &spec = checkpoint.campaign;
    const std::string ckptPath = paths.checkpointPath(spec.name);
    const std::uint64_t first = checkpoint.slicesDone;
    const std::uint64_t slices = spec.numSlices();
    const auto every = static_cast<std::uint64_t>(
        spec.checkpointEverySlices);

    bool ok = runShardedSlices(
        spec, first, slices, workers,
        [&](const harness::TaskResult &task, std::string &sliceError) {
            auto slice = static_cast<std::uint64_t>(task.index);
            std::uint64_t base =
                slice * static_cast<std::uint64_t>(spec.sliceIntervals);
            for (std::size_t k = 0; k < task.result.intervals.size();
                 ++k) {
                if (!feed.appendLine(
                        feedIntervalLine(base + k, slice,
                                         task.result.intervals[k]),
                        sliceError))
                    return false;
            }
            foldSliceIntoRollup(checkpoint.rollup, task);
            checkpoint.lastStates = task.result.estimatorStates;
            if (spec.metrics)
                checkpoint.metricsTotals.mergeTotals(task.result.metrics);
            if (spec.rootCause)
                checkpoint.attributionTotals.mergeFrom(
                    task.result.attribution);
            const std::uint64_t done = slice + 1;
            if ((done - first) % every != 0 && done != slices)
                return true;
            // Durability order matters: the feed must be on disk
            // before the checkpoint that claims it is.
            if (!feed.flushSync(sliceError))
                return false;
            checkpoint.slicesDone = done;
            checkpoint.feedBytes = feed.bytesWritten();
            return saveCheckpoint(checkpoint, ckptPath, sliceError);
        },
        errorOut);
    if (!ok)
        return false;

    // The attribution rollup precedes the summary row so a tail
    // reader sees the blame table before the campaign's last line.
    if (spec.rootCause &&
        !feed.appendLine(
            feedAttributionLine(checkpoint.attributionTotals),
            errorOut))
        return false;
    if (!feed.appendLine(feedSummaryLine(checkpoint.rollup),
                         errorOut) ||
        !feed.flushSync(errorOut))
        return false;
    checkpoint.feedBytes = feed.bytesWritten();
    checkpoint.complete = true;
    return saveCheckpoint(checkpoint, ckptPath, errorOut);
}

} // namespace

bool
prepareCampaign(const CampaignSpec &spec, const StatePaths &paths,
                std::string &errorOut)
{
    obs::FeedWriter feed;
    if (!feed.create(paths.feedPath(spec.name), errorOut))
        return false;
    if (!feed.appendLine(feedHeaderLine(spec), errorOut) ||
        !feed.flushSync(errorOut))
        return false;

    Checkpoint checkpoint;
    checkpoint.campaign = spec;
    checkpoint.slicesDone = 0;
    checkpoint.feedBytes = feed.bytesWritten();
    checkpoint.metricsTotals.enabled = spec.metrics;
    checkpoint.attributionTotals.enabled = spec.rootCause;
    return saveCheckpoint(checkpoint,
                          paths.checkpointPath(spec.name), errorOut);
}

bool
runCampaignFresh(const CampaignSpec &spec, const StatePaths &paths,
                 int workers, std::string &errorOut)
{
    if (!prepareCampaign(spec, paths, errorOut))
        return false;
    return resumeCampaign(spec.name, paths, workers, errorOut);
}

bool
resumeCampaign(const std::string &name, const StatePaths &paths,
               int workers, std::string &errorOut)
{
    Checkpoint checkpoint;
    if (!loadCheckpoint(paths.checkpointPath(name), checkpoint,
                        errorOut))
        return false;
    if (checkpoint.campaign.name != name) {
        errorOut = "checkpoint names campaign '" +
                   checkpoint.campaign.name + "', expected '" + name +
                   "'";
        return false;
    }
    if (checkpoint.complete)
        return true;
    obs::FeedWriter feed;
    if (!feed.resume(paths.feedPath(name), checkpoint.feedBytes,
                     errorOut))
        return false;
    return runFromCheckpoint(checkpoint, paths, feed, workers,
                             errorOut);
}

} // namespace avf::serve
