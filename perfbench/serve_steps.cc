#include "serve_steps.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <pthread.h>
#include <sys/inotify.h>
#include <unistd.h>

#include "obs/feed_writer.hh"
#include "serve/checkpoint.hh"
#include "serve/protocol.hh"
#include "serve/sharder.hh"
#include "util/timing.hh"

namespace avf::perfbench
{

namespace
{

/** Times one step into a span and returns its nanoseconds. */
class StepSpan
{
  public:
    StepSpan(obs::TraceWriter &trace, std::uint32_t tid, const char *name)
        : trace(trace), tid(tid), name(name),
          begin(timing::steadyNowNs())
    {
    }

    double
    end()
    {
        std::uint64_t now = timing::steadyNowNs();
        obs::TraceSpan span;
        span.name = name;
        span.category = "serve";
        span.beginNs = begin;
        span.durNs = now - begin;
        span.tid = tid;
        trace.addSpan(std::move(span));
        return static_cast<double>(now - begin);
    }

  private:
    obs::TraceWriter &trace;
    std::uint32_t tid;
    const char *name;
    std::uint64_t begin;
};

/** fork() calls this process has made, counted by pthread_atfork. */
std::atomic<std::uint64_t> forkCount{0};

void
countFork()
{
    forkCount.fetch_add(1, std::memory_order_relaxed);
}

/** Forks so far; the first call installs the counter. */
std::uint64_t
forksSoFar()
{
    static const bool installed =
        ::pthread_atfork(nullptr, countFork, nullptr) == 0;
    return installed ? forkCount.load(std::memory_order_relaxed) : 0;
}

} // namespace

DispatchWatch::DispatchWatch(const serve::CampaignSpec &spec,
                             const serve::StatePaths &paths)
    : ckptName(std::filesystem::path(paths.checkpointPath(spec.name))
                   .filename()
                   .string()),
      forksAtStart(forksSoFar()),
      fd(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC))
{
    // inotify merges an event into an identical unread one, so the
    // watch takes both halves of each rename: MOVED_FROM (the tmp
    // file) between two MOVED_TOs keeps every rename apart.
    if (fd >= 0 && ::inotify_add_watch(fd, paths.dir.c_str(),
                                       IN_MOVED_FROM | IN_MOVED_TO) <
                       0) {
        ::close(fd);
        fd = -1;
    }
}

DispatchWatch::~DispatchWatch()
{
    if (fd >= 0)
        ::close(fd);
}

bool
DispatchWatch::finish(Dispatch &out, std::string &errorOut)
{
    std::uint64_t forks = forksSoFar() - forksAtStart;
    if (fd < 0) {
        errorOut = "dispatch watch: inotify unavailable";
        return false;
    }
    std::uint64_t renames = 0;
    alignas(inotify_event) char buf[4096];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && errno == EAGAIN)
            break;
        if (n <= 0) {
            errorOut = std::string("dispatch watch: read: ") +
                       std::strerror(errno);
            return false;
        }
        for (ssize_t off = 0; off < n;) {
            const auto *ev =
                reinterpret_cast<const inotify_event *>(buf + off);
            if (ev->mask & IN_Q_OVERFLOW) {
                errorOut = "dispatch watch: inotify queue overflowed";
                return false;
            }
            if ((ev->mask & IN_MOVED_TO) && ev->len > 0 &&
                ckptName == ev->name)
                ++renames;
            off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
        }
    }
    if (renames < 2) {
        errorOut = "dispatch watch: saw " + std::to_string(renames) +
                   " checkpoint renames, expected at least 2";
        return false;
    }
    out.batches += renames - 2;
    out.forks += forks;
    return true;
}

bool
runTracedServeCampaign(const serve::CampaignSpec &spec,
                       const serve::StatePaths &paths, int workers,
                       ServeLedger &ledger,
                       std::vector<harness::ExperimentResult> &slices,
                       obs::TraceWriter &trace, std::uint32_t tid,
                       Dispatch &dispatched, std::string &errorOut)
{
    const std::uint64_t forksAtStart = forksSoFar();
    // runCampaignFresh = prepareCampaign + resumeCampaign.
    StepSpan prepare(trace, tid, "prepareCampaign");
    bool prepared = serve::prepareCampaign(spec, paths, errorOut);
    prepare.end();
    if (!prepared)
        return false;

    // resumeCampaign's opening: reload the durable state.
    const std::string ckptPath = paths.checkpointPath(spec.name);
    serve::Checkpoint checkpoint;
    obs::FeedWriter feed;
    if (!serve::loadCheckpoint(ckptPath, checkpoint, errorOut) ||
        !feed.resume(paths.feedPath(spec.name), checkpoint.feedBytes,
                     errorOut))
        return false;

    auto flushSync = [&] {
        StepSpan span(trace, tid, "FeedWriter::flushSync");
        bool ok = feed.flushSync(errorOut);
        ledger.feedSyncNs += span.end();
        return ok;
    };
    auto save = [&] {
        StepSpan span(trace, tid, "saveCheckpoint");
        bool ok = serve::saveCheckpoint(checkpoint, ckptPath, errorOut);
        ledger.ckptSaveNs += span.end();
        std::error_code ec;
        auto bytes = std::filesystem::file_size(ckptPath, ec);
        if (ok && !ec)
            ledger.ckptBytes += bytes;
        return ok;
    };

    // runFromCheckpoint's loop.
    const std::uint64_t total = spec.numSlices();
    const auto every =
        static_cast<std::uint64_t>(spec.checkpointEverySlices);
    while (checkpoint.slicesDone < total) {
        std::uint64_t batchEnd =
            std::min(total, checkpoint.slicesDone + every);
        ++dispatched.batches;
        double consumerNs = 0.0;
        StepSpan shard(trace, tid, "runShardedSlices");
        bool ok = serve::runShardedSlices(
            spec, checkpoint.slicesDone, batchEnd, workers,
            [&](const harness::TaskResult &task,
                std::string &sliceError) {
                StepSpan consumer(trace, tid, "consumer");
                auto slice = static_cast<std::uint64_t>(task.index);
                std::uint64_t base =
                    slice *
                    static_cast<std::uint64_t>(spec.sliceIntervals);
                for (std::size_t k = 0;
                     k < task.result.intervals.size(); ++k) {
                    if (!feed.appendLine(
                            serve::feedIntervalLine(
                                base + k, slice,
                                task.result.intervals[k]),
                            sliceError))
                        return false;
                }
                serve::foldSliceIntoRollup(checkpoint.rollup, task);
                checkpoint.lastStates = task.result.estimatorStates;
                std::uint64_t m0 = timing::steadyNowNs();
                if (spec.metrics)
                    checkpoint.metricsTotals.mergeTotals(
                        task.result.metrics);
                if (spec.rootCause)
                    checkpoint.attributionTotals.mergeFrom(
                        task.result.attribution);
                ledger.mergeNs +=
                    static_cast<double>(timing::steadyNowNs() - m0);
                slices.push_back(task.result);
                consumerNs += consumer.end();
                return true;
            },
            errorOut);
        double shardNs = shard.end();
        ledger.consumerNs += consumerNs;
        ledger.shardWaitNs += shardNs - consumerNs;
        if (!ok || !flushSync())
            return false;
        checkpoint.slicesDone = batchEnd;
        checkpoint.feedBytes = feed.bytesWritten();
        if (!save())
            return false;
    }

    if (spec.rootCause &&
        !feed.appendLine(
            serve::feedAttributionLine(checkpoint.attributionTotals),
            errorOut))
        return false;
    if (!feed.appendLine(serve::feedSummaryLine(checkpoint.rollup),
                         errorOut) ||
        !flushSync())
        return false;
    checkpoint.feedBytes = feed.bytesWritten();
    checkpoint.complete = true;
    ledger.feedBytes += checkpoint.feedBytes;
    ledger.attributionRows += checkpoint.attributionTotals.rows.size();
    dispatched.forks += forksSoFar() - forksAtStart;
    return save();
}

} // namespace avf::perfbench
