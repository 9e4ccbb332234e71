#include "serve/sharder.hh"

#include <csignal>
#include <cstdio>
#include <deque>
#include <exception>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment.hh"
#include "harness/task_codec.hh"
#include "trace/spec_profiles.hh"

namespace avf::serve
{

harness::ExperimentConfig
makeSliceConfig(const CampaignSpec &spec, std::uint64_t index)
{
    harness::ExperimentConfig config;
    config.profile = trace::specProfile(spec.benchmark);
    config.online.m = spec.m;
    config.online.n = spec.n;
    // lanes = 0 means "the campaign default", mirroring what
    // ExperimentEngine::submit would inherit from RunOptions.
    config.online.lanes = spec.lanes > 0
                              ? spec.lanes
                              : harness::RunOptions{}.lanes;
    config.numIntervals = spec.sliceLength(index);
    config.metrics = spec.metrics;
    if (spec.rootCause) {
        // Campaign-global phase buckets: the slice's windows land in
        // buckets offset by its first global interval, so merged
        // tables read the same at any slicing.
        config.attribution.enabled = true;
        config.attribution.phaseBase = static_cast<std::uint32_t>(
            index * static_cast<std::uint64_t>(spec.sliceIntervals));
        config.attribution.phaseCount = static_cast<std::uint32_t>(
            spec.sliceLength(index));
    }
    config.snapshotEstimators = true;
    harness::deriveTaskSeeds(config, spec.seedSalt, index);
    return config;
}

namespace
{

/** One forked slice: its child and the read end of its pipe. */
struct SliceChild
{
    pid_t pid;
    std::FILE *stream;
};

/**
 * Child body: run slice @p index, write its encoded result over the
 * pipe, then _exit without touching any parent-owned state (no atexit
 * handlers, no stdio flush of inherited buffers, no engine thread
 * pool).
 */
[[noreturn]] void
sliceMain(const CampaignSpec &spec, std::uint64_t index, pid_t parent,
          int pipeFd)
{
    // Die with the parent: a SIGKILLed daemon must not leave its
    // slices running to completion and competing with a --resume
    // restart for cores. A parent that died before the prctl took
    // effect shows up as a changed getppid().
    if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 ||
        ::getppid() != parent) {
        // avflint: allow(exit-site) — forked worker; only _exit is
        // safe here (exit() would run the parent's atexit handlers
        // and flush inherited stdio buffers twice).
        ::_exit(4);
    }
    std::FILE *out = ::fdopen(pipeFd, "w");
    if (!out) {
        // avflint: allow(exit-site) — see above.
        ::_exit(2);
    }
    harness::TaskResult task;
    task.index = static_cast<std::size_t>(index);
    task.name = spec.name + ":" + std::to_string(index);
    try {
        task.result = harness::detail::runExperimentDirect(
            makeSliceConfig(spec, index));
    } catch (const std::exception &e) {
        task.errorText = e.what();
    } catch (...) {
        task.errorText = "unknown exception";
    }
    std::string line = harness::codec::encodeTaskResult(task);
    line += '\n';
    if (std::fwrite(line.data(), 1, line.size(), out) != line.size() ||
        std::fclose(out) != 0) {
        // avflint: allow(exit-site) — see above.
        ::_exit(3);
    }
    // avflint: allow(exit-site) — see above.
    ::_exit(0);
}

/**
 * Fork the child for slice @p index and append it to @p inFlight.
 * The child closes the read ends of the slices already in flight, so
 * the parent is the only reader of every pipe.
 */
bool
forkSlice(const CampaignSpec &spec, std::uint64_t index,
          std::deque<SliceChild> &inFlight, std::string &errorOut)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        errorOut = "sharder: pipe() failed";
        return false;
    }
    const pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
        errorOut = "sharder: fork() failed";
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        ::close(fds[0]);
        for (const SliceChild &child : inFlight)
            (void)std::fclose(child.stream);
        sliceMain(spec, index, parent, fds[1]);
    }
    ::close(fds[1]);
    std::FILE *stream = ::fdopen(fds[0], "r");
    if (!stream) {
        errorOut = "sharder: fdopen() failed";
        ::close(fds[0]);
        ::kill(pid, SIGKILL);
        (void)::waitpid(pid, nullptr, 0);
        return false;
    }
    inFlight.push_back({pid, stream});
    return true;
}

/** Read one '\n'-terminated line; false on EOF or error. */
bool
readLine(std::FILE *stream, std::string &lineOut)
{
    lineOut.clear();
    int c = 0;
    while ((c = std::fgetc(stream)) != EOF) {
        if (c == '\n')
            return true;
        lineOut += static_cast<char>(c);
    }
    return false;
}

/** Reap @p pid; true when it exited cleanly with status 0. */
bool
reapChild(pid_t pid, std::string &errorOut)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) {
        errorOut = "sharder: waitpid failed";
        return false;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        errorOut = "sharder: worker exited abnormally (status " +
                   std::to_string(status) + ")";
        return false;
    }
    return true;
}

} // namespace

bool
runShardedSlices(const CampaignSpec &spec, std::uint64_t firstSlice,
                 std::uint64_t endSlice, int workers,
                 const SliceConsumer &onSlice, std::string &errorOut)
{
    const auto window =
        static_cast<std::size_t>(workers < 1 ? 1 : workers);
    // Children for slices [next - inFlight.size(), next), oldest
    // first; the head is always the next slice the consumer needs.
    std::deque<SliceChild> inFlight;
    std::uint64_t next = firstSlice;
    auto refill = [&] {
        for (; next < endSlice && inFlight.size() < window; ++next)
            if (!forkSlice(spec, next, inFlight, errorOut))
                return false;
        return true;
    };

    bool ok = refill();
    std::string line;
    harness::TaskResult task;
    for (std::uint64_t i = firstSlice; ok && i < endSlice; ++i) {
        SliceChild head = inFlight.front();
        inFlight.pop_front();
        bool read = readLine(head.stream, line);
        (void)std::fclose(head.stream);
        if (!reapChild(head.pid, errorOut)) {
            ok = false;
            break;
        }
        if (!read) {
            errorOut = "sharder: worker pipe closed before slice " +
                       std::to_string(i);
            ok = false;
            break;
        }
        // Slice i + W starts before slice i is consumed, so the
        // consumer's fsyncs overlap the next slices' simulation.
        if (!refill() ||
            !harness::codec::decodeTaskResult(line, task, errorOut)) {
            ok = false;
            break;
        }
        if (task.index != i) {
            errorOut = "sharder: slice " + std::to_string(i) +
                       " arrived out of order";
            ok = false;
            break;
        }
        if (!task.ok()) {
            errorOut = "slice " + std::to_string(i) +
                       " failed: " + task.errorText;
            ok = false;
            break;
        }
        if (!onSlice(task, errorOut)) {
            ok = false;
            break;
        }
    }

    // On failure, the slices still in flight are abandoned: no one
    // will read them, so they are killed rather than left to finish.
    for (const SliceChild &child : inFlight) {
        ::kill(child.pid, SIGKILL);
        (void)std::fclose(child.stream);
        (void)::waitpid(child.pid, nullptr, 0);
    }
    return ok;
}

} // namespace avf::serve
