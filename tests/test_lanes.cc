/**
 * @file
 * Lane-vs-serial equivalence suite (ctest label `lanes`): pins the
 * InjectionPort contract's lane-independence guarantee. Four layers:
 * the ErrorPlane factors into 64 non-interacting single-lane planes;
 * a port window's outcome is unchanged by traffic on other lanes;
 * lane-parallel campaigns (lanes=64) agree statistically with the
 * serial estimator (lanes=1); and the METRICS.json bytes of a
 * lanes=64 campaign are identical at 1 and 8 workers. Plus the
 * AVF_LANES fail-fast validation contract, and the event-driven
 * observer dispatch: the harness roster run with every observer
 * behind an all-hooks, every-cycle proxy gives bit-identical results.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/injection_port.hh"
#include "core/online_estimator.hh"
#include "cpu/pipeline.hh"
#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "harness/task_codec.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "util/error_plane.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace
{

using namespace avf;
using namespace avf::harness;
using core::Site;
using core::Structure;

// ---------------------------------------------------------------- //
// ErrorPlane: lanes never interact                                  //
// ---------------------------------------------------------------- //

// The plane's documented invariant: the state of lane k after any
// operation sequence equals the state of a one-lane plane fed the
// same sequence masked to bit k. Checked against a full per-lane
// reference, all 64 lanes.
TEST(LaneEquivalence, PlaneStateFactorsIntoIndependentLanes)
{
    constexpr std::size_t kEntries = 48;
    Rng rng(20080624); // ISCA'08

    ErrorPlane full(kEntries);
    std::array<ErrorPlane, numErrorChannels> perLane;
    for (auto &plane : perLane)
        plane.resize(kEntries);

    for (int step = 0; step < 3000; ++step) {
        auto idx = static_cast<std::size_t>(rng.below(kEntries));
        ErrorMask mask = rng.next();
        switch (rng.below(3)) {
          case 0:
            full.orMask(idx, mask);
            for (int k = 0; k < numErrorChannels; ++k)
                perLane[k].orMask(idx, mask & laneBit(k));
            break;
          case 1:
            // setMask overwrites the whole word (the kill
            // discipline), which is the one op whose per-lane
            // projection also clears the lane's bit when absent
            // from the mask — the factoring must survive it.
            full.setMask(idx, mask);
            for (int k = 0; k < numErrorChannels; ++k)
                perLane[k].setMask(idx, mask & laneBit(k));
            break;
          default:
            full.clearChannels(mask);
            for (int k = 0; k < numErrorChannels; ++k)
                perLane[k].clearChannels(mask & laneBit(k));
            break;
        }
    }

    for (std::size_t idx = 0; idx < kEntries; ++idx)
        for (int k = 0; k < numErrorChannels; ++k)
            ASSERT_EQ(full.get(idx) & laneBit(k),
                      perLane[k].get(idx))
                << "entry " << idx << " lane " << k;
}

// ---------------------------------------------------------------- //
// InjectionPort: a window's outcome ignores other lanes             //
// ---------------------------------------------------------------- //

struct PortRig
{
    explicit PortRig(unsigned warmupCycles)
        : gen(trace::specProfile("mesa")),
          pipe(cpu::CpuConfig{}, gen),
          port(pipe)
    {
        pipe.addObserver(&port);
        for (unsigned c = 0; c < warmupCycles; ++c)
            pipe.step();
    }

    trace::SyntheticTraceGenerator gen;
    cpu::Pipeline pipe;
    core::InjectionPort port;
};

struct WindowResult
{
    bool failed = false;
    bool live = false;
    Cycle openedAt = 0;
    Cycle failCycle = 0;
};

/**
 * Fresh deterministic pipeline, warm 2000 cycles, open every window
 * in @p opens at the same cycle, run 600 more cycles, close all in
 * lane order, and report the @p probe lane's outcome.
 */
WindowResult
probeWindow(const std::vector<std::pair<LaneId, Site>> &opens,
            LaneId probe)
{
    PortRig rig(2'000);
    for (const auto &[lane, site] : opens)
        rig.port.reserveLane(lane);

    Cycle now = rig.pipe.now();
    std::map<LaneId, core::WindowHandle> handles;
    for (const auto &[lane, site] : opens)
        handles[lane] = rig.port.open(lane, site, now);

    for (int c = 0; c < 600; ++c)
        rig.pipe.step();

    WindowResult result;
    for (auto &[lane, handle] : handles) {
        core::Outcome out = rig.port.closed(handle);
        if (lane == probe)
            result = {out.failed, out.live, out.openedAt,
                      out.failCycle};
    }
    rig.port.clearLanes(rig.port.reservedMask());
    return result;
}

Site
regSite(int entry)
{
    Site site;
    site.structure = Structure::REG;
    site.entry = entry;
    return site;
}

Site
structSite(Structure s, int entry)
{
    Site site;
    site.structure = s;
    site.entry = entry;
    return site;
}

TEST(LaneEquivalence, WindowOutcomeUnaffectedByOtherLanes)
{
    // Probe several register sites so both fates (failure within the
    // window and masked-to-the-end) are exercised; whichever way a
    // solo window goes, the identical window in a crowded port must
    // go the same way with the same cycle stamps.
    for (int entry : {3, 5, 9, 17, 26}) {
        WindowResult solo = probeWindow({{2, regSite(entry)}}, 2);

        std::vector<std::pair<LaneId, Site>> crowded = {
            {0, regSite(entry + 1)},
            {2, regSite(entry)}, // the probe, same site and cycle
            {5, structSite(Structure::IQ, 3)},
            {7, structSite(Structure::FXU, 0)},
            {63, regSite(entry + 2)},
        };
        WindowResult busy = probeWindow(crowded, 2);

        EXPECT_EQ(solo.failed, busy.failed) << "reg " << entry;
        EXPECT_EQ(solo.live, busy.live) << "reg " << entry;
        EXPECT_EQ(solo.openedAt, busy.openedAt) << "reg " << entry;
        EXPECT_EQ(solo.failCycle, busy.failCycle) << "reg " << entry;
    }
}

// ---------------------------------------------------------------- //
// Campaign level: lanes=64 agrees with the serial estimator         //
// ---------------------------------------------------------------- //

ExperimentResult
runWithLanes(int lanes)
{
    ExperimentConfig conf;
    conf.profile = trace::specProfile("bzip2");
    conf.online.m = 200;
    conf.online.n = 400;
    conf.online.lanes = lanes;
    conf.numIntervals = 2;
    conf.lookahead = 8'192;
    return runExperiment(conf);
}

TEST(LaneEquivalence, LaneParallelAvfMatchesSerialStatistically)
{
    auto serial = runWithLanes(1);
    auto parallel = runWithLanes(64);
    ASSERT_EQ(serial.intervals.size(), parallel.intervals.size());

    // Same M, same N, same round-robin site coverage — only the
    // window scheduling differs, so the two estimators sample the
    // same population and the per-structure run averages must agree
    // to sampling noise (N=400 per interval).
    for (int s = 0; s < core::numStructures; ++s) {
        double sumSerial = 0.0;
        double sumParallel = 0.0;
        for (std::size_t k = 0; k < serial.intervals.size(); ++k) {
            sumSerial += serial.intervals[k].online[s];
            sumParallel += parallel.intervals[k].online[s];
        }
        double count = static_cast<double>(serial.intervals.size());
        EXPECT_NEAR(sumSerial / count, sumParallel / count, 0.15)
            << core::structureName(static_cast<Structure>(s));
    }
}

// ---------------------------------------------------------------- //
// Worker invariance: lanes=64 METRICS.json bytes                    //
// ---------------------------------------------------------------- //

std::string
metricsJsonAtWorkers(unsigned threads)
{
    RunOptions options;
    options.threads = threads;
    options.lanes = 64;
    ExperimentEngine engine(options);
    for (const char *bench : {"mesa", "bzip2", "swim"}) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile(bench);
        conf.online.m = 250;
        conf.online.n = 200;
        conf.numIntervals = 2;
        conf.lookahead = 8'192;
        conf.metrics = true;
        engine.submit(bench, conf);
    }
    auto tasks = engine.collect();
    std::string path = ::testing::TempDir() + "lanes_w" +
        std::to_string(threads) + "_METRICS.json";
    writeMetricsJson(path, "lanes-equivalence", tasks);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
}

TEST(LaneEquivalence, MetricsBytesIdenticalAcrossWorkerCounts)
{
    std::string one = metricsJsonAtWorkers(1);
    std::string eight = metricsJsonAtWorkers(8);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, eight);
    // The lane count itself is part of the snapshot.
    EXPECT_NE(one.find("\"injection_lanes\""), std::string::npos);
}

// ---------------------------------------------------------------- //
// AVF_LANES validation contract                                     //
// ---------------------------------------------------------------- //

TEST(LaneEquivalence, AvfLanesEnvIsValidatedFailFast)
{
    ::unsetenv("AVF_LANES");
    EXPECT_EQ(loadRunOptions().lanes, 64);

    ::setenv("AVF_LANES", "1", 1);
    EXPECT_EQ(loadRunOptions().lanes, 1);
    ::setenv("AVF_LANES", "8", 1);
    EXPECT_EQ(loadRunOptions().lanes, 8);
    ::setenv("AVF_LANES", "64", 1);
    EXPECT_EQ(loadRunOptions().lanes, 64);

    ::setenv("AVF_LANES", "0", 1);
    EXPECT_DEATH(loadRunOptions(), "must be positive");
    ::setenv("AVF_LANES", "-3", 1);
    EXPECT_DEATH(loadRunOptions(), "must be positive");
    ::setenv("AVF_LANES", "65", 1);
    EXPECT_DEATH(loadRunOptions(), "exceeds the 64-bit error plane");
    ::setenv("AVF_LANES", "8moo", 1);
    EXPECT_DEATH(loadRunOptions(), "not an integer");
    ::unsetenv("AVF_LANES");
}

// ---------------------------------------------------------------- //
// Event-driven dispatch: skipping non-due observers changes nothing //
// ---------------------------------------------------------------- //

/**
 * Forwards every hook to one observer and declares nothing, so the
 * pipeline calls it on every event and every cycle: the all-hooks
 * fallback path, which also hands each inner observer extra onCycle
 * calls before its wake cycle.
 */
class EveryHookProxy : public cpu::PipelineObserver
{
  public:
    explicit EveryHookProxy(cpu::PipelineObserver &inner) : inner(inner)
    {
    }
    void onDispatch(const cpu::DynInstr &d) override
    {
        inner.onDispatch(d);
    }
    void onIssue(const cpu::DynInstr &d) override { inner.onIssue(d); }
    void onComplete(const cpu::DynInstr &d) override
    {
        inner.onComplete(d);
    }
    void
    onRetire(const cpu::DynInstr &d, const cpu::RetireInfo &info) override
    {
        inner.onRetire(d, info);
    }
    void onCycle(Cycle now) override { inner.onCycle(now); }
    void
    onErrorHop(const cpu::DynInstr &d, ErrorMask bits,
               cpu::ErrorHop hop) override
    {
        inner.onErrorHop(d, bits, hop);
    }

  private:
    cpu::PipelineObserver &inner;
};

/** The run's full result in the bit-exact wire encoding. */
std::string
encodedRun(const ExperimentConfig &conf, bool proxied)
{
    TaskResult task;
    task.name = conf.profile.name;
    std::vector<std::unique_ptr<EveryHookProxy>> proxies;
    if (proxied) {
        task.result = detail::runExperimentDirect(
            conf, [&](cpu::Pipeline &pipe, cpu::PipelineObserver &obs) {
                proxies.push_back(std::make_unique<EveryHookProxy>(obs));
                pipe.addObserver(proxies.back().get());
            });
    } else {
        task.result = detail::runExperimentDirect(conf);
    }
    return codec::encodeTaskResult(task);
}

ExperimentConfig
dispatchConfig(int lanes)
{
    ExperimentConfig conf;
    conf.profile = trace::specProfile("mesa");
    conf.online.m = 200;
    conf.online.n = 120;
    conf.online.lanes = lanes;
    conf.numIntervals = 3;
    conf.lookahead = 4'096;
    conf.metrics = true;
    conf.snapshotEstimators = true;
    return conf;
}

void
expectProxiedRunIdentical(const ExperimentConfig &conf)
{
    const std::string direct = encodedRun(conf, false);
    ASSERT_NE(direct.find("\"intervals\":[{"), std::string::npos);
    EXPECT_EQ(direct, encodedRun(conf, true));
}

TEST(ObserverDispatch, ProxiedRosterBitIdenticalSerial)
{
    expectProxiedRunIdentical(dispatchConfig(1));
}

TEST(ObserverDispatch, ProxiedRosterBitIdenticalLanes64)
{
    expectProxiedRunIdentical(dispatchConfig(64));
}

TEST(ObserverDispatch, ProxiedRosterBitIdenticalRandomizedTiming)
{
    for (int lanes : {1, 64}) {
        ExperimentConfig conf = dispatchConfig(lanes);
        conf.online.randomizeInjectionTiming = true;
        conf.online.fieldGranularIq = true;
        expectProxiedRunIdentical(conf);
    }
}

TEST(ObserverDispatch, ProxiedRosterBitIdenticalLifecycleAttribution)
{
    ExperimentConfig conf = dispatchConfig(64);
    conf.lifecycle.enabled = true;
    conf.attribution.enabled = true;
    expectProxiedRunIdentical(conf);
}

TEST(ObserverDispatch, ProxiedRosterBitIdenticalControl)
{
    ExperimentConfig conf = dispatchConfig(64);
    conf.control.enabled = true;
    conf.control.reportLatencyCycles = 300;
    expectProxiedRunIdentical(conf);
}

// Out-of-range lane requests are rejected at the experiment layer
// too, not just at the env boundary.
TEST(LaneEquivalence, ExperimentRejectsOutOfRangeLanes)
{
    ExperimentConfig conf;
    conf.profile = trace::specProfile("mesa");
    conf.online.lanes = 65;
    conf.numIntervals = 1;
    EXPECT_THROW(runExperiment(conf), std::invalid_argument);
}

} // namespace
