/**
 * @file
 * The serve layer's contracts, bottom up: estimator snapshot/restore
 * round-trips per family, the wire codec's byte-exactness, protocol
 * validation (hostile lines must never reach fatal()), feed
 * byte-identity across shard counts, crash-resume byte-identity
 * (including a torn trailing line and a mid-campaign checkpoint),
 * and the daemon's malformed-request rejection over a real socket.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include "core/occupancy_estimator.hh"
#include "core/online_estimator.hh"
#include "core/regression_estimator.hh"
#include "core/tlb_estimator.hh"
#include "core/utilization_estimator.hh"
#include "cpu/pipeline.hh"
#include "harness/experiment.hh"
#include "harness/task_codec.hh"
#include "obs/feed_writer.hh"
#include "serve/campaign.hh"
#include "serve/checkpoint.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/sharder.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::core;

/** A simple all-integer profile with controllable deadness. */
trace::WorkloadProfile
intProfile(double deadFrac, const char *name)
{
    trace::WorkloadProfile prof;
    prof.name = name;
    prof.base.fpFrac = 0.0;
    prof.base.fpLoadFrac = 0.0;
    prof.base.loadFrac = 0.2;
    prof.base.storeFrac = 0.15;
    prof.base.branchFrac = 0.08;
    prof.base.deadFrac = deadFrac;
    prof.base.footprint = 64 * 1024;
    return prof;
}

bool
sameState(const EstimatorState &a, const EstimatorState &b)
{
    return a.name == b.name && a.counters == b.counters &&
           a.values == b.values && a.estimates == b.estimates;
}

/** Small but multi-slice campaign used by the identity tests. */
serve::CampaignSpec
tinySpec(const char *name)
{
    serve::CampaignSpec spec;
    spec.name = name;
    spec.benchmark = "bzip2";
    spec.intervals = 6;
    spec.sliceIntervals = 2;
    spec.m = 200;
    spec.n = 40;
    spec.seedSalt = 7;
    spec.checkpointEverySlices = 1;
    return spec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---------------------------------------------------------------- //
// Estimator snapshot/restore round-trips                            //
// ---------------------------------------------------------------- //

TEST(EstimatorSnapshot, OnlineRoundTrip)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "snap"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    OnlineConfig conf;
    conf.m = 10;
    conf.n = 20;
    OnlineAvfEstimator est(pipe, Structure::REG, conf);
    pipe.addObserver(&est);
    pipe.run(10 * 20 * 3 + 7); // three estimates plus a torn window

    EstimatorState state = est.snapshotState();
    EXPECT_EQ(state.name, est.name());
    EXPECT_GT(state.counterValue("lifetime_injections"), 0u);
    EXPECT_EQ(state.estimates.size(), 3u);

    trace::SyntheticTraceGenerator gen2(intProfile(0.2, "snap"));
    cpu::Pipeline pipe2(cpu::CpuConfig{}, gen2);
    OnlineAvfEstimator fresh(pipe2, Structure::REG, conf);
    fresh.restoreState(state);
    EXPECT_TRUE(sameState(fresh.snapshotState(), state));
    EXPECT_EQ(fresh.estimates(), est.estimates());
}

TEST(EstimatorSnapshot, UtilizationAndOccupancyRoundTrip)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.1, "util"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    UtilizationEstimator util(pipe, cpu::FuClass::Fxu, 150);
    OccupancyEstimator occ(pipe, 150);
    pipe.addObserver(&util);
    pipe.addObserver(&occ);
    pipe.run(700);

    for (AvfEstimator *est :
         {static_cast<AvfEstimator *>(&util),
          static_cast<AvfEstimator *>(&occ)}) {
        EstimatorState state = est->snapshotState();
        EXPECT_EQ(state.name, est->name());
        EXPECT_FALSE(state.estimates.empty());
    }

    trace::SyntheticTraceGenerator gen2(intProfile(0.1, "util"));
    cpu::Pipeline pipe2(cpu::CpuConfig{}, gen2);
    UtilizationEstimator util2(pipe2, cpu::FuClass::Fxu, 150);
    util2.restoreState(util.snapshotState());
    EXPECT_TRUE(
        sameState(util2.snapshotState(), util.snapshotState()));
    OccupancyEstimator occ2(pipe2, 150);
    occ2.restoreState(occ.snapshotState());
    EXPECT_TRUE(sameState(occ2.snapshotState(), occ.snapshotState()));
}

TEST(EstimatorSnapshot, TlbRoundTrip)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "tlb"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    TlbAvfEstimator est(pipe);
    pipe.addObserver(&est);
    pipe.run(3000);

    EstimatorState state = est.snapshotState();
    trace::SyntheticTraceGenerator gen2(intProfile(0.2, "tlb"));
    cpu::Pipeline pipe2(cpu::CpuConfig{}, gen2);
    TlbAvfEstimator fresh(pipe2);
    fresh.restoreState(state);
    EXPECT_TRUE(sameState(fresh.snapshotState(), state));
}

TEST(EstimatorSnapshot, RestoreRejectsCursorOutsideTheTarget)
{
    // A checkpoint's cursor indexes the target's slots; one past the
    // last FXU unit is malformed input and must leave the estimator
    // untouched.
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "cursor"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    OnlineAvfEstimator est(pipe, Structure::FXU);
    const EstimatorState before = est.snapshotState();
    EstimatorState bad = before;
    for (auto &[key, value] : bad.counters)
        if (key == "cursor")
            value = static_cast<std::uint64_t>(pipe.config().numFxu);
    bad.counters[0].second = 7; // would-be interval injections
    EXPECT_THROW(est.restoreState(bad), std::invalid_argument);
    EXPECT_TRUE(sameState(est.snapshotState(), before));
}

TEST(EstimatorSnapshot, RegressionRoundTripKeepsCalibration)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "reg"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);

    LinearAvfModel model;
    FeatureVector weights{};
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 0.125 * static_cast<double>(i) - 0.25;
    model.setWeights(weights);
    RegressionEstimator trained(pipe, 100, model);

    EstimatorState state = trained.snapshotState();
    EXPECT_EQ(state.counterValue("trained"), 1u);

    RegressionEstimator fresh(pipe, 100);
    EXPECT_EQ(fresh.snapshotState().counterValue("trained"), 0u);
    fresh.restoreState(state);
    EstimatorState restored = fresh.snapshotState();
    EXPECT_TRUE(sameState(restored, state));
    for (std::size_t i = 0; i < weights.size(); ++i)
        EXPECT_EQ(restored.valueOf("w" + std::to_string(i)),
                  weights[i]);
}

TEST(EstimatorSnapshot, NameMismatchThrows)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "mismatch"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    OnlineConfig conf;
    OnlineAvfEstimator iq(pipe, Structure::IQ, conf);
    OnlineAvfEstimator reg(pipe, Structure::REG, conf);
    EXPECT_THROW(reg.restoreState(iq.snapshotState()),
                 std::invalid_argument);

    UtilizationEstimator util(pipe, cpu::FuClass::Fxu, 100);
    OccupancyEstimator occ(pipe, 100);
    EXPECT_THROW(util.restoreState(occ.snapshotState()),
                 std::invalid_argument);
}

// ---------------------------------------------------------------- //
// Wire codec                                                        //
// ---------------------------------------------------------------- //

TEST(TaskCodec, EncodeDecodeEncodeIsByteStable)
{
    serve::CampaignSpec spec = tinySpec("codec");
    harness::TaskResult task;
    task.index = 2;
    task.name = "codec:2";
    task.result = harness::detail::runExperimentDirect(
        serve::makeSliceConfig(spec, 2));

    const std::string wire = harness::codec::encodeTaskResult(task);
    harness::TaskResult decoded;
    std::string error;
    ASSERT_TRUE(harness::codec::decodeTaskResult(wire, decoded, error))
        << error;
    EXPECT_EQ(decoded.index, task.index);
    EXPECT_EQ(decoded.name, task.name);
    EXPECT_EQ(decoded.result.intervals.size(),
              task.result.intervals.size());
    EXPECT_EQ(decoded.result.estimatorStates.size(),
              task.result.estimatorStates.size());
    // The decisive property: a decoded result re-encodes to the same
    // bytes, so results can cross any number of process hops.
    EXPECT_EQ(harness::codec::encodeTaskResult(decoded), wire);
}

TEST(TaskCodec, CarriesFailuresWithoutResult)
{
    harness::TaskResult task;
    task.index = 5;
    task.name = "boom";
    task.errorText = "synthetic failure";

    const std::string wire = harness::codec::encodeTaskResult(task);
    harness::TaskResult decoded;
    std::string error;
    ASSERT_TRUE(
        harness::codec::decodeTaskResult(wire, decoded, error));
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.errorText, "synthetic failure");
}

TEST(TaskCodec, RejectsMalformedLines)
{
    harness::TaskResult decoded;
    std::string error;
    for (const char *line :
         {"", "not json", "{}", "[1,2,3]",
          "{\"v\":\"wrong-version\",\"index\":0,\"name\":\"x\","
          "\"error_text\":\"e\"}",
          "{\"v\":\"avf-task-v1\",\"index\":0}"}) {
        EXPECT_FALSE(
            harness::codec::decodeTaskResult(line, decoded, error))
            << "accepted: " << line;
        EXPECT_FALSE(error.empty());
    }
}

// ---------------------------------------------------------------- //
// Protocol validation                                               //
// ---------------------------------------------------------------- //

TEST(ServeProtocol, RequestRoundTrip)
{
    serve::Request request;
    request.op = serve::Request::Op::Submit;
    request.campaign = tinySpec("round_trip-1");
    request.campaign.metrics = true;

    serve::Request parsed;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(serve::encodeRequest(request),
                                    parsed, error))
        << error;
    EXPECT_EQ(parsed.op, serve::Request::Op::Submit);
    EXPECT_EQ(parsed.campaign.name, "round_trip-1");
    EXPECT_EQ(parsed.campaign.benchmark, "bzip2");
    EXPECT_EQ(parsed.campaign.intervals, 6);
    EXPECT_EQ(parsed.campaign.seedSalt, 7u);
    EXPECT_TRUE(parsed.campaign.metrics);
}

TEST(ServeProtocol, RejectsMalformedRequests)
{
    const char *bad[] = {
        "",                          // not JSON
        "not json at all",           // not JSON
        "[]",                        // not an object
        "{\"op\":\"submit\"}",       // missing version
        "{\"v\":\"avf-serve-v9\",\"op\":\"status\"}", // bad version
        "{\"v\":\"avf-serve-v1\",\"op\":\"reboot\"}", // unknown op
        // submit without a campaign body
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\"}",
        // bad name charset (would escape the file-stem contract)
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"../evil\",\"benchmark\":\"bzip2\"}}",
        // unknown benchmark (specProfile would fatal() on it)
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"a\",\"benchmark\":\"nope\"}}",
        // zero intervals
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"a\",\"benchmark\":\"bzip2\",\"intervals\":0}}",
        // zero seed salt (would collapse per-slice seed derivation)
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"a\",\"benchmark\":\"bzip2\",\"seed_salt\":0}}",
        // negative n
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"a\",\"benchmark\":\"bzip2\",\"n\":-4}}",
    };
    for (const char *line : bad) {
        serve::Request parsed;
        std::string error;
        EXPECT_FALSE(serve::parseRequest(line, parsed, error))
            << "accepted: " << line;
        EXPECT_FALSE(error.empty());
    }
}

// ---------------------------------------------------------------- //
// Shard-count and crash-resume byte-identity                        //
// ---------------------------------------------------------------- //

TEST(ServeCampaign, FeedBytesIdenticalAcrossShardCounts)
{
    const std::string base = ::testing::TempDir();
    serve::CampaignSpec spec = tinySpec("shards");
    std::string error;

    serve::StatePaths one(base + "serve_shard1");
    serve::StatePaths four(base + "serve_shard4");
    ASSERT_TRUE(::mkdir(one.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);
    ASSERT_TRUE(::mkdir(four.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);

    ASSERT_TRUE(serve::runCampaignFresh(spec, one, 1, error))
        << error;
    ASSERT_TRUE(serve::runCampaignFresh(spec, four, 4, error))
        << error;

    const std::string feed1 = slurp(one.feedPath(spec.name));
    const std::string feed4 = slurp(four.feedPath(spec.name));
    ASSERT_FALSE(feed1.empty());
    EXPECT_EQ(feed1, feed4);
}

TEST(ServeCampaign, ResumeAfterTornTrailingLineMatchesUninterrupted)
{
    const std::string base = ::testing::TempDir();
    serve::CampaignSpec spec = tinySpec("torn");
    std::string error;

    serve::StatePaths ref(base + "serve_torn_ref");
    serve::StatePaths cut(base + "serve_torn_cut");
    ASSERT_TRUE(::mkdir(ref.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);
    ASSERT_TRUE(::mkdir(cut.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);

    ASSERT_TRUE(serve::runCampaignFresh(spec, ref, 2, error))
        << error;

    // Crash window 1: killed right after the accept — only the
    // header and the initial checkpoint are durable, plus a torn
    // half-row the dying process managed to buffer out.
    ASSERT_TRUE(serve::prepareCampaign(spec, cut, error)) << error;
    {
        std::ofstream torn(cut.feedPath(spec.name),
                           std::ios::binary | std::ios::app);
        torn << "{\"interval\":0,\"slice\":0,\"onl"; // no newline
    }
    ASSERT_TRUE(serve::resumeCampaign(spec.name, cut, 2, error))
        << error;
    EXPECT_EQ(slurp(cut.feedPath(spec.name)),
              slurp(ref.feedPath(spec.name)));
}

TEST(ServeCampaign, ResumeFromMidCampaignCheckpointMatches)
{
    const std::string base = ::testing::TempDir();
    serve::CampaignSpec spec = tinySpec("midkill");
    std::string error;

    serve::StatePaths ref(base + "serve_mid_ref");
    serve::StatePaths mid(base + "serve_mid_cut");
    ASSERT_TRUE(::mkdir(ref.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);
    ASSERT_TRUE(::mkdir(mid.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);

    ASSERT_TRUE(serve::runCampaignFresh(spec, ref, 1, error))
        << error;

    // Build the exact state a daemon killed after slice 1's
    // checkpoint would leave: header + slices 0-1 in the feed, a
    // matching checkpoint, and a torn line from slice 2.
    obs::FeedWriter feed;
    ASSERT_TRUE(feed.create(mid.feedPath(spec.name), error)) << error;
    ASSERT_TRUE(feed.appendLine(serve::feedHeaderLine(spec), error));

    serve::Checkpoint checkpoint;
    checkpoint.campaign = spec;
    ASSERT_TRUE(serve::runShardedSlices(
        spec, 0, 2, 1,
        [&](const harness::TaskResult &task, std::string &out) {
            auto slice = static_cast<std::uint64_t>(task.index);
            for (std::size_t k = 0;
                 k < task.result.intervals.size(); ++k) {
                if (!feed.appendLine(
                        serve::feedIntervalLine(
                            slice * 2 + k, slice,
                            task.result.intervals[k]),
                        out))
                    return false;
            }
            serve::foldSliceIntoRollup(checkpoint.rollup, task);
            checkpoint.lastStates = task.result.estimatorStates;
            return true;
        },
        error))
        << error;
    ASSERT_TRUE(feed.flushSync(error));
    checkpoint.slicesDone = 2;
    checkpoint.feedBytes = feed.bytesWritten();
    ASSERT_TRUE(serve::saveCheckpoint(
        checkpoint, mid.checkpointPath(spec.name), error))
        << error;
    ASSERT_TRUE(feed.appendLine("{\"interval\":4,\"torn", error));
    feed.close();

    ASSERT_TRUE(serve::resumeCampaign(spec.name, mid, 2, error))
        << error;
    EXPECT_EQ(slurp(mid.feedPath(spec.name)),
              slurp(ref.feedPath(spec.name)));

    // And the resumed checkpoint agrees it is finished.
    serve::Checkpoint finalCkpt;
    ASSERT_TRUE(serve::loadCheckpoint(mid.checkpointPath(spec.name),
                                      finalCkpt, error));
    EXPECT_TRUE(finalCkpt.complete);
    EXPECT_EQ(finalCkpt.slicesDone, spec.numSlices());
}

/**
 * Lowers this process's file-size limit for its lifetime, with
 * SIGXFSZ ignored so an over-limit write fails with EFBIG instead of
 * killing the process.
 */
class FileSizeLimit
{
  public:
    explicit FileSizeLimit(rlim_t bytes)
        : previousHandler(std::signal(SIGXFSZ, SIG_IGN))
    {
        (void)::getrlimit(RLIMIT_FSIZE, &saved);
        rlimit lowered = saved;
        lowered.rlim_cur = bytes;
        (void)::setrlimit(RLIMIT_FSIZE, &lowered);
    }
    ~FileSizeLimit()
    {
        (void)::setrlimit(RLIMIT_FSIZE, &saved);
        (void)std::signal(SIGXFSZ, previousHandler);
    }
    FileSizeLimit(const FileSizeLimit &) = delete;
    FileSizeLimit &operator=(const FileSizeLimit &) = delete;

  private:
    void (*previousHandler)(int);
    rlimit saved{};
};

TEST(ServeCampaign, ResumeFromEveryCheckpointAtFourProcsMatches)
{
    // Slices long enough that one slice's feed rows outweigh a whole
    // checkpoint file, so a file-size limit at the feed's byte count
    // after slice k lets checkpoint k through and stops the campaign
    // at slice k + 1's rows — a kill right after checkpoint k, made
    // deterministic while later slices are still in flight.
    serve::CampaignSpec spec = tinySpec("everyk");
    spec.intervals = 120;
    spec.sliceIntervals = 20;
    const std::string base = ::testing::TempDir();
    std::string error;

    serve::StatePaths ref(base + "serve_everyk_ref");
    ASSERT_TRUE(::mkdir(ref.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);
    ASSERT_TRUE(serve::runCampaignFresh(spec, ref, 4, error))
        << error;
    const std::string feed = slurp(ref.feedPath(spec.name));
    const std::string ckpt = slurp(ref.checkpointPath(spec.name));

    // Byte count after each feed line: the header, then one line per
    // interval, then the summary.
    std::vector<std::size_t> lineEnds;
    for (std::size_t pos = 0;
         (pos = feed.find('\n', pos)) != std::string::npos; ++pos)
        lineEnds.push_back(pos + 1);
    ASSERT_EQ(lineEnds.size(), spec.intervals + 2);

    for (std::uint64_t k = 1; k <= spec.numSlices(); ++k) {
        SCOPED_TRACE("cut after slice " + std::to_string(k));
        serve::StatePaths cut(base + "serve_everyk_" +
                              std::to_string(k));
        ASSERT_TRUE(::mkdir(cut.dir.c_str(), 0775) == 0 ||
                    errno == EEXIST);
        const std::size_t durable =
            lineEnds[k * static_cast<std::uint64_t>(spec.sliceIntervals)];
        {
            FileSizeLimit limit(durable);
            EXPECT_FALSE(serve::runCampaignFresh(spec, cut, 4, error));
        }
        serve::Checkpoint atCut;
        ASSERT_TRUE(serve::loadCheckpoint(cut.checkpointPath(spec.name),
                                          atCut, error))
            << error;
        ASSERT_EQ(atCut.slicesDone, k);
        EXPECT_EQ(atCut.feedBytes, durable);
        EXPECT_FALSE(atCut.complete);

        ASSERT_TRUE(serve::resumeCampaign(spec.name, cut, 4, error))
            << error;
        EXPECT_EQ(slurp(cut.feedPath(spec.name)), feed);
        EXPECT_EQ(slurp(cut.checkpointPath(spec.name)), ckpt);
    }
}

TEST(ServeCampaign, SummaryCountsOnlyOnlineInjections)
{
    // Root-cause campaigns add coverage probes, whose states carry
    // lifetime counters too; the summary's injections/failures are
    // the online estimators' alone, so the flag must not move them.
    auto rollup_of = [](bool root_cause) {
        serve::CampaignSpec spec = tinySpec("summary");
        spec.rootCause = root_cause;
        serve::CampaignRollup rollup;
        std::string error;
        EXPECT_TRUE(serve::runShardedSlices(
            spec, 0, spec.numSlices(), 1,
            [&](const harness::TaskResult &task, std::string &) {
                serve::foldSliceIntoRollup(rollup, task);
                return true;
            },
            error))
            << error;
        return rollup;
    };
    const serve::CampaignRollup plain = rollup_of(false);
    const serve::CampaignRollup with_probes = rollup_of(true);
    ASSERT_GT(plain.injections, 0u);
    EXPECT_EQ(with_probes.injections, plain.injections);
    EXPECT_EQ(with_probes.failures, plain.failures);
}

// ---------------------------------------------------------------- //
// The slice pipeline                                                //
// ---------------------------------------------------------------- //

/** Nine slices: more than any window below keeps in flight. */
serve::CampaignSpec
nineSliceSpec(const char *name)
{
    serve::CampaignSpec spec = tinySpec(name);
    spec.intervals = 18;
    return spec;
}

TEST(ServeSharder, PipelineDeliversIdenticalResultsInSliceOrder)
{
    const serve::CampaignSpec spec = nineSliceSpec("pipeline");
    auto encoded = [&spec](std::uint64_t first, int workers) {
        std::vector<std::string> seen;
        std::string error;
        EXPECT_TRUE(serve::runShardedSlices(
            spec, first, spec.numSlices(), workers,
            [&](const harness::TaskResult &task, std::string &) {
                EXPECT_EQ(task.index, first + seen.size());
                seen.push_back(harness::codec::encodeTaskResult(task));
                return true;
            },
            error))
            << error;
        return seen;
    };
    const std::vector<std::string> reference = encoded(0, 1);
    ASSERT_EQ(reference.size(), spec.numSlices());
    for (int workers : {2, 3, 4, 7})
        EXPECT_EQ(encoded(0, workers), reference)
            << workers << " workers";
    // A resumed range keeps its slices' bytes.
    EXPECT_EQ(encoded(4, 3),
              std::vector<std::string>(reference.begin() + 4,
                                       reference.end()));
}

TEST(ServeSharder, ConsumerFailureStopsThePipelineAndReapsEveryChild)
{
    const serve::CampaignSpec spec = nineSliceSpec("abort");
    std::uint64_t consumed = 0;
    std::string error;
    EXPECT_FALSE(serve::runShardedSlices(
        spec, 0, spec.numSlices(), 4,
        [&](const harness::TaskResult &task, std::string &out) {
            ++consumed;
            if (task.index < 2)
                return true;
            out = "consumer stopped at slice 2";
            return false;
        },
        error));
    EXPECT_EQ(error, "consumer stopped at slice 2");
    EXPECT_EQ(consumed, 3u);
    // Slices 3-6 were in flight; none may outlive the call.
    int status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

/** Direct children of @p pid, from procfs. */
std::vector<pid_t>
childrenOf(pid_t pid)
{
    const std::string id = std::to_string(pid);
    std::ifstream in("/proc/" + id + "/task/" + id + "/children");
    std::vector<pid_t> out;
    for (pid_t child = 0; in >> child;)
        out.push_back(child);
    return out;
}

void
pauseMs(long ms)
{
    timespec pause{0, ms * 1'000'000L};
    (void)::nanosleep(&pause, nullptr);
}

TEST(ServeSharder, SliceChildrenDieWithTheirParent)
{
    // Orphans re-parent to this process, so it can reap them and
    // read how they died.
    ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
    const std::string dir = ::testing::TempDir() + "serve_orphans";
    ASSERT_TRUE(::mkdir(dir.c_str(), 0775) == 0 || errno == EEXIST);

    // Four slices of half a second or more each, all in flight at once.
    std::vector<std::string> args = {
        AVF_SERVE_BIN,       "batch",   "--dir",       dir,
        "--procs",           "4",       "--name",      "orphans",
        "--benchmark",       "mesa",    "--intervals", "80",
        "--slice-intervals", "20",      "--m",         "1000",
        "--n",               "1000"};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    char *envp[] = {nullptr};
    posix_spawn_file_actions_t quiet;
    ASSERT_EQ(::posix_spawn_file_actions_init(&quiet), 0);
    (void)::posix_spawn_file_actions_addopen(&quiet, 1, "/dev/null",
                                             O_WRONLY, 0);
    pid_t daemon = 0;
    int spawned = ::posix_spawn(&daemon, AVF_SERVE_BIN, &quiet,
                                nullptr, argv.data(), envp);
    (void)::posix_spawn_file_actions_destroy(&quiet);
    ASSERT_EQ(spawned, 0);

    std::vector<pid_t> slices;
    for (int poll = 0; poll < 400 && slices.size() < 4; ++poll) {
        pauseMs(25);
        slices = childrenOf(daemon);
    }
    // Let every child get past its parent-death setup, then kill
    // the parent mid-slice.
    pauseMs(100);
    ::kill(daemon, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
    EXPECT_EQ(slices.size(), 4u);

    std::size_t reaped = 0;
    for (pid_t pid = 0; (pid = ::waitpid(-1, &status, 0)) > 0;) {
        ++reaped;
        EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
            << "orphan " << pid << " status " << status;
    }
    EXPECT_EQ(errno, ECHILD);
    EXPECT_EQ(reaped, slices.size());
    (void)::prctl(PR_SET_CHILD_SUBREAPER, 0);
}

TEST(ServeCheckpoint, EncodeDecodeRoundTrip)
{
    serve::Checkpoint checkpoint;
    checkpoint.campaign = tinySpec("ckpt");
    checkpoint.slicesDone = 2;
    checkpoint.feedBytes = 1234;
    checkpoint.rollup.intervals = 4;
    checkpoint.rollup.onlineSum[0] = 0.25;
    checkpoint.rollup.injections = 320;
    core::EstimatorState state;
    state.name = "online:iq";
    state.counters = {{"injections", 10}, {"failures", 2}};
    state.estimates = {0.2, 0.3};
    checkpoint.lastStates.push_back(state);

    const std::string text = serve::encodeCheckpoint(checkpoint);
    serve::Checkpoint decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeCheckpoint(text, decoded, error))
        << error;
    EXPECT_EQ(serve::encodeCheckpoint(decoded), text);
    EXPECT_EQ(decoded.campaign.name, "ckpt");
    EXPECT_EQ(decoded.slicesDone, 2u);
    EXPECT_EQ(decoded.lastStates.size(), 1u);
    EXPECT_EQ(decoded.lastStates[0].counterValue("failures"), 2u);
}

TEST(ServeCheckpoint, RejectsCampaignOutsideProtocolRanges)
{
    // A corrupt checkpoint must fail to load, not resume a campaign
    // that divides by zero or never advances.
    serve::Checkpoint checkpoint;
    checkpoint.campaign = tinySpec("ckpt");
    const std::string text = serve::encodeCheckpoint(checkpoint);
    for (const auto &[field, bad] :
         {std::pair{"\"checkpoint_every\":1", "\"checkpoint_every\":0"},
          std::pair{"\"slice_intervals\":2", "\"slice_intervals\":0"},
          std::pair{"\"benchmark\":\"bzip2\"", "\"benchmark\":\"nope\""}}) {
        std::string corrupt = text;
        const std::size_t at = corrupt.find(field);
        ASSERT_NE(at, std::string::npos) << field;
        corrupt.replace(at, std::string_view(field).size(), bad);
        serve::Checkpoint decoded;
        std::string error;
        EXPECT_FALSE(serve::decodeCheckpoint(corrupt, decoded, error))
            << bad;
        EXPECT_EQ(error.rfind("checkpoint: campaign request: ", 0), 0u)
            << error;
    }
}

// ---------------------------------------------------------------- //
// Daemon socket behaviour                                           //
// ---------------------------------------------------------------- //

TEST(ServeDaemon, RejectsMalformedRequestsOverTheSocket)
{
    const std::string dir =
        ::testing::TempDir() + "serve_daemon_sock";
    ASSERT_TRUE(::mkdir(dir.c_str(), 0775) == 0 || errno == EEXIST);

    serve::DaemonOptions options;
    options.stateDir = dir;
    options.workers = 1;
    std::thread daemon(
        [options] { (void)serve::runDaemon(options); });

    // Wait for the socket to come up (bounded poll, no clock reads).
    std::string response, error;
    bool up = false;
    for (int poll = 0; poll < 100 && !up; ++poll) {
        up = serve::sendRequest(
            dir, std::string(serve::encodeRequest(serve::Request{})),
            response, error);
        if (!up) {
            timespec pause{0, 50'000'000L};
            (void)::nanosleep(&pause, nullptr);
        }
    }
    ASSERT_TRUE(up) << error;
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;

    // Malformed lines get an error response, and the daemon lives on
    // to answer the next request.
    for (const char *line :
         {"this is not json",
          "{\"v\":\"avf-serve-v1\",\"op\":\"reboot\"}",
          "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
          "{\"name\":\"a\",\"benchmark\":\"nope\"}}"}) {
        ASSERT_TRUE(serve::sendRequest(dir, line, response, error))
            << error;
        EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u)
            << response;
    }

    serve::Request status;
    status.op = serve::Request::Op::Status;
    ASSERT_TRUE(serve::sendRequest(dir, serve::encodeRequest(status),
                                   response, error))
        << error;
    EXPECT_EQ(response.rfind("{\"ok\":true,\"campaigns\"", 0), 0u)
        << response;

    serve::Request shutdown;
    shutdown.op = serve::Request::Op::Shutdown;
    ASSERT_TRUE(serve::sendRequest(
        dir, serve::encodeRequest(shutdown), response, error))
        << error;
    daemon.join();
}

} // namespace
