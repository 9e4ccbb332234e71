/**
 * @file
 * The window engine against a fixed reference: core::WindowedEstimator
 * replaced three hand-written copies of Algorithm 1's M-cycle loop
 * (the online estimator, the dTLB estimator, the coverage probes).
 * Those copies live on here, test-local and verbatim apart from
 * naming, and each new class must reproduce its copy exactly: the
 * full estimate series, the lifetime counters, every lifecycle sink
 * call, and the attribution snapshot, on identical pipelines.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/injection_port.hh"
#include "core/lifecycle_sink.hh"
#include "core/online_estimator.hh"
#include "core/tlb_estimator.hh"
#include "cpu/pipeline.hh"
#include "obs/attribution.hh"
#include "obs/coverage_probe.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "util/interval_ticker.hh"
#include "util/random.hh"

namespace
{

using namespace avf;
using core::InjectionPort;
using core::OnlineConfig;
using core::Outcome;
using core::Site;
using core::Structure;
using core::WindowHandle;

// ---------------------------------------------------------------- //
// Reference copies of the three window loops                        //
// ---------------------------------------------------------------- //

/** The online estimator's loop (lane slots, batched clear, N-cap,
 *  randomized timing) with its per-structure site switch. */
class RefOnline : public cpu::PipelineObserver
{
  public:
    RefOnline(cpu::Pipeline &pipe, Structure structure,
              OnlineConfig config, InjectionPort *sharedPort)
        : pipeline(pipe), target(structure), conf(config),
          rng(config.seed ^ static_cast<std::uint64_t>(
              core::channelOf(structure))),
          boundaryTick(config.m)
    {
        const int lanes = conf.lanes > 0 ? conf.lanes : 1;
        std::vector<LaneId> reserved;
        if (sharedPort) {
            portPtr = sharedPort;
            for (int i = 0; i < lanes; ++i)
                reserved.push_back(portPtr->reserveLane());
        } else {
            ownedPort = std::make_unique<InjectionPort>(pipe);
            portPtr = ownedPort.get();
            portPtr->reserveLane(core::channelOf(structure));
            reserved.push_back(core::channelOf(structure));
            for (int i = 1; i < lanes; ++i)
                reserved.push_back(portPtr->reserveLane());
        }
        slots.resize(reserved.size());
        for (std::size_t i = 0; i < reserved.size(); ++i) {
            slots[i].lane = reserved[i];
            myLanes |= laneBit(reserved[i]);
        }
    }

    void
    onRetire(const cpu::DynInstr &instr,
             const cpu::RetireInfo &info) override
    {
        if (ownedPort)
            ownedPort->onRetire(instr, info);
    }

    void
    onCycle(Cycle now) override
    {
        if (boundaryTick.tick(now))
            windowBoundary(now);
        if (scheduledCount) {
            for (auto &slot : slots) {
                if (!slot.scheduled || now != slot.injectAt)
                    continue;
                slot.scheduled = false;
                --scheduledCount;
                openWindow(slot, now);
            }
        }
    }

    core::LifecycleSink *sink = nullptr;
    std::uint32_t injections = 0;
    std::uint32_t failures = 0;
    std::uint64_t lifetimeInjections = 0;
    std::uint64_t lifetimeFailures = 0;
    std::uint64_t liveInjections = 0;
    std::uint64_t windowsClosed = 0;
    std::uint32_t openedThisInterval = 0;
    int cursor = 0;
    std::vector<double> results;

  private:
    struct LaneSlot
    {
        LaneId lane = -1;
        WindowHandle handle;
        bool open = false;
        bool scheduled = false;
        Cycle injectAt = 0;
    };

    Site
    nextSite()
    {
        Site site;
        site.structure = target;
        site.entry = cursor;
        switch (target) {
          case Structure::REG:
            cursor = (cursor + 1) % pipeline.numIntPhysRegs();
            break;
          case Structure::FREG:
            cursor = (cursor + 1) % pipeline.config().fpPhysRegs;
            break;
          case Structure::IQ:
            if (conf.fieldGranularIq) {
                int fields = cpu::Pipeline::iqFieldsPerEntry;
                int slot_count = pipeline.totalIqEntries() * fields;
                site.entry = cursor / fields;
                site.field = cursor % fields;
                cursor = (cursor + 1) % slot_count;
            } else {
                cursor = (cursor + 1) % pipeline.totalIqEntries();
            }
            break;
          case Structure::FXU:
            cursor = (cursor + 1) % pipeline.config().numFxu;
            break;
          case Structure::FPU:
            cursor = (cursor + 1) % pipeline.config().numFpu;
            break;
          default:
            ADD_FAILURE() << "invalid structure";
        }
        return site;
    }

    void
    openWindow(LaneSlot &slot, Cycle now)
    {
        Site site = nextSite();
        slot.handle = portPtr->open(slot.lane, site, now);
        slot.open = true;
        ++lifetimeInjections;
        bool live = slot.handle.inject == InjectOutcome::Occupied;
        if (live)
            ++liveInjections;
        if (sink)
            sink->openRecord(target, slot.lane, site.entry, site.field,
                             live, now);
    }

    void
    windowBoundary(Cycle now)
    {
        for (auto &slot : slots) {
            slot.scheduled = false;
            if (!slot.open)
                continue;
            Outcome outcome = portPtr->closed(slot.handle);
            slot.open = false;
            ++injections;
            ++windowsClosed;
            if (outcome.failed) {
                ++failures;
                ++lifetimeFailures;
            }
            if (sink)
                sink->closeRecord(target, slot.lane, now, outcome);
            if (injections == conf.n) {
                // Test-only record. avflint: allow(hot-path-alloc)
                results.push_back(static_cast<double>(failures) /
                                  static_cast<double>(conf.n));
                injections = 0;
                failures = 0;
                openedThisInterval = 0;
            }
        }
        scheduledCount = 0;
        portPtr->clearLanes(myLanes);
        auto want = static_cast<std::uint32_t>(slots.size());
        std::uint32_t room = conf.n - openedThisInterval;
        std::uint32_t opening = want < room ? want : room;
        for (std::uint32_t i = 0; i < opening; ++i) {
            LaneSlot &slot = slots[i];
            if (conf.randomizeInjectionTiming) {
                slot.scheduled = true;
                slot.injectAt = now + rng.below(conf.m);
                ++scheduledCount;
            } else {
                openWindow(slot, now);
            }
        }
        openedThisInterval += opening;
    }

    cpu::Pipeline &pipeline;
    Structure target;
    OnlineConfig conf;
    Rng rng;
    IntervalTicker boundaryTick;
    InjectionPort *portPtr = nullptr;
    std::unique_ptr<InjectionPort> ownedPort;
    std::vector<LaneSlot> slots;
    ErrorMask myLanes = 0;
    int scheduledCount = 0;
};

/** The dTLB estimator's single-window loop on private lane 6. */
class RefTlb : public cpu::PipelineObserver
{
  public:
    RefTlb(cpu::Pipeline &pipe, core::TlbEstimatorConfig config)
        : pipeline(pipe), conf(config), boundaryTick(config.m),
          port(pipe)
    {
        port.reserveLane(lane);
    }

    void
    onRetire(const cpu::DynInstr &instr,
             const cpu::RetireInfo &info) override
    {
        port.onRetire(instr, info);
    }

    void
    onCycle(Cycle now) override
    {
        if (!boundaryTick.tick(now))
            return;
        if (windowOpen) {
            Outcome outcome = port.closed(handle);
            windowOpen = false;
            ++injections;
            if (outcome.failed)
                ++failures;
            if (injections == conf.n) {
                // Test-only record. avflint: allow(hot-path-alloc)
                results.push_back(static_cast<double>(failures) /
                                  static_cast<double>(conf.n));
                injections = 0;
                failures = 0;
            }
        }
        port.clearLanes(laneBit(lane));
        Site site;
        site.kind = Site::Kind::Dtlb;
        site.entry = cursor;
        cursor = (cursor + 1) % pipeline.numDtlbSlots();
        handle = port.open(lane, site, now);
        windowOpen = true;
        ++lifetimeInjections;
    }

    std::uint32_t injections = 0;
    std::uint32_t failures = 0;
    std::uint64_t lifetimeInjections = 0;
    int cursor = 0;
    std::vector<double> results;

  private:
    static constexpr LaneId lane = 6;
    cpu::Pipeline &pipeline;
    core::TlbEstimatorConfig conf;
    IntervalTicker boundaryTick;
    InjectionPort port;
    WindowHandle handle;
    bool windowOpen = false;
};

/** The coverage probe's loop: one shared-port lane, attribution
 *  charged on every close, lifetime injections counted at close. */
class RefProbe : public cpu::PipelineObserver
{
  public:
    RefProbe(cpu::Pipeline &pipe, InjectionPort &port,
             obs::AttributionTracker &tracker,
             obs::CoverageTarget target, obs::CoverageProbeConfig config)
        : pipeline(pipe), portRef(port), attribution(tracker),
          probeTarget(target), conf(config), boundaryTick(config.m)
    {
        unit = attribution.registerBlameUnit(
            std::string(obs::coverageTargetName(target)));
        lane = portRef.reserveLane();
    }

    void
    onCycle(Cycle now) override
    {
        if (!boundaryTick.tick(now))
            return;
        if (windowOpen) {
            Outcome outcome = portRef.closed(handle);
            windowOpen = false;
            ++injections;
            ++lifetimeInjections;
            if (outcome.failed) {
                ++failures;
                ++lifetimeFailures;
            }
            attribution.recordWindow(unit, openCycle, windowLive,
                                     outcome.failed, outcome.failPc,
                                     outcome.failOp);
            if (injections == conf.n) {
                // Test-only record. avflint: allow(hot-path-alloc)
                results.push_back(static_cast<double>(failures) /
                                  static_cast<double>(conf.n));
                injections = 0;
                failures = 0;
            }
        }
        portRef.clearLanes(laneBit(lane));
        Site site = siteAt(cursor);
        cursor = (cursor + 1) % numSlots();
        handle = portRef.open(lane, site, now);
        windowOpen = true;
        windowLive = handle.inject == InjectOutcome::Occupied;
        openCycle = now;
    }

    std::uint32_t injections = 0;
    std::uint32_t failures = 0;
    std::uint64_t lifetimeInjections = 0;
    std::uint64_t lifetimeFailures = 0;
    int cursor = 0;
    std::vector<double> results;

  private:
    int
    numSlots() const
    {
        switch (probeTarget) {
          case obs::CoverageTarget::FetchBuf:
            return pipeline.numFetchBufSlots();
          case obs::CoverageTarget::RenameMap:
            return pipeline.numRenameMapSlots();
          default:
            return pipeline.numBranchPredSlots();
        }
    }

    Site
    siteAt(int slot) const
    {
        Site site;
        switch (probeTarget) {
          case obs::CoverageTarget::FetchBuf:
            site.kind = Site::Kind::FetchBuf;
            break;
          case obs::CoverageTarget::RenameMap:
            site.kind = Site::Kind::RenameMap;
            break;
          default:
            site.kind = Site::Kind::BranchPred;
        }
        site.entry = slot;
        return site;
    }

    cpu::Pipeline &pipeline;
    InjectionPort &portRef;
    obs::AttributionTracker &attribution;
    obs::CoverageTarget probeTarget;
    obs::CoverageProbeConfig conf;
    std::uint32_t unit = 0;
    IntervalTicker boundaryTick;
    LaneId lane = -1;
    WindowHandle handle;
    bool windowOpen = false;
    bool windowLive = false;
    Cycle openCycle = 0;
};

// ---------------------------------------------------------------- //
// Shared fixtures                                                    //
// ---------------------------------------------------------------- //

/** Logs every sink call, exactly, for sequence comparison. */
class RecordingSink : public core::LifecycleSink
{
  public:
    using Open = std::tuple<int, LaneId, int, int, bool, Cycle>;
    using Close = std::tuple<int, LaneId, Cycle, bool, bool, LaneId,
                             Cycle, Cycle, Addr, int, int, int, int>;

    void
    openRecord(Structure s, LaneId lane, int entry, int field,
               bool live, Cycle now) override
    {
        // Test-only record. avflint: allow(hot-path-alloc)
        opens.emplace_back(static_cast<int>(s), lane, entry, field,
                           live, now);
    }

    void
    closeRecord(Structure s, LaneId lane, Cycle now,
                const Outcome &o) override
    {
        // Test-only record. avflint: allow(hot-path-alloc)
        closes.emplace_back(static_cast<int>(s), lane, now, o.failed,
                            o.live, o.lane, o.openedAt, o.failCycle,
                            o.failPc, o.failOp,
                            static_cast<int>(o.site.kind), o.site.entry,
                            o.site.field);
    }

    std::vector<Open> opens;
    std::vector<Close> closes;
};

/** A pipeline on the mesa profile (FP and integer traffic). */
struct Rig
{
    trace::SyntheticTraceGenerator gen{trace::specProfile("mesa")};
    cpu::Pipeline pipe{cpu::CpuConfig{}, gen};
};

std::string
attributionBytes(const obs::AttributionTracker &tracker)
{
    std::ostringstream out;
    tracker.snapshot().writeJson(out);
    return out.str();
}

// ---------------------------------------------------------------- //
// Online estimator                                                   //
// ---------------------------------------------------------------- //

struct OnlineCase
{
    int lanes;
    bool randomize;
    bool sharedPort;
};

/** Readable, build-stable test names (no raw padding bytes). */
void
PrintTo(const OnlineCase &c, std::ostream *os)
{
    *os << "lanes" << c.lanes << (c.randomize ? " random" : " fixed")
        << (c.sharedPort ? " shared" : " private");
}

class OnlineMatchesReference
    : public ::testing::TestWithParam<OnlineCase>
{
};

TEST_P(OnlineMatchesReference, EstimatesCountersAndLifecycle)
{
    const OnlineCase param = GetParam();
    OnlineConfig conf;
    conf.m = 60;
    conf.n = 50;
    conf.lanes = param.lanes;
    conf.randomizeInjectionTiming = param.randomize;
    conf.fieldGranularIq = true;
    conf.seed = 77;
    // Three and a half intervals at the compressed boundary count,
    // so the run ends inside a torn interval.
    const Cycle boundaries = (conf.n + static_cast<Cycle>(
        param.lanes) - 1) / static_cast<Cycle>(param.lanes);
    const Cycle run = conf.m * boundaries * 7 / 2 + 13;

    Rig ref_rig;
    std::unique_ptr<InjectionPort> ref_port;
    if (param.sharedPort) {
        ref_port = std::make_unique<InjectionPort>(ref_rig.pipe);
        ref_rig.pipe.addObserver(ref_port.get());
    }
    RecordingSink ref_sink;
    std::vector<std::unique_ptr<RefOnline>> refs;
    for (int s = 0; s < core::numStructures; ++s) {
        refs.push_back(std::make_unique<RefOnline>(
            ref_rig.pipe, static_cast<Structure>(s), conf,
            ref_port.get()));
        refs.back()->sink = &ref_sink;
        ref_rig.pipe.addObserver(refs.back().get());
    }
    ref_rig.pipe.run(run);

    Rig rig;
    std::unique_ptr<InjectionPort> port;
    if (param.sharedPort) {
        port = std::make_unique<InjectionPort>(rig.pipe);
        rig.pipe.addObserver(port.get());
    }
    RecordingSink sink;
    std::vector<std::unique_ptr<core::OnlineAvfEstimator>> ests;
    for (int s = 0; s < core::numStructures; ++s) {
        ests.push_back(std::make_unique<core::OnlineAvfEstimator>(
            rig.pipe, static_cast<Structure>(s), conf, port.get()));
        ests.back()->setLifecycleSink(&sink);
        rig.pipe.addObserver(ests.back().get());
    }
    rig.pipe.run(run);

    for (int s = 0; s < core::numStructures; ++s) {
        SCOPED_TRACE(core::structureName(static_cast<Structure>(s)));
        const RefOnline &ref = *refs[static_cast<std::size_t>(s)];
        const auto &est = *ests[static_cast<std::size_t>(s)];
        ASSERT_GE(ref.results.size(), 3u);
        EXPECT_EQ(est.estimates(), ref.results);
        EXPECT_EQ(est.injectionsSoFar(), ref.injections);
        EXPECT_EQ(est.failuresSoFar(), ref.failures);
        EXPECT_EQ(est.totalInjections(), ref.lifetimeInjections);
        EXPECT_EQ(est.totalFailures(), ref.lifetimeFailures);
        EXPECT_EQ(est.totalLiveInjections(), ref.liveInjections);
        EXPECT_EQ(est.totalWindowsClosed(), ref.windowsClosed);
        core::EstimatorState state = est.snapshotState();
        EXPECT_EQ(state.counterValue("opened_this_interval"),
                  ref.openedThisInterval);
        EXPECT_EQ(state.counterValue("cursor"),
                  static_cast<std::uint64_t>(ref.cursor));
    }
    ASSERT_FALSE(ref_sink.closes.empty());
    EXPECT_EQ(sink.opens, ref_sink.opens);
    EXPECT_EQ(sink.closes, ref_sink.closes);
}

INSTANTIATE_TEST_SUITE_P(
    WindowEngine, OnlineMatchesReference,
    ::testing::Values(OnlineCase{1, false, true},
                      OnlineCase{1, true, true},
                      OnlineCase{12, false, true},
                      OnlineCase{12, true, true},
                      OnlineCase{1, false, false},
                      OnlineCase{12, true, false}),
    [](const ::testing::TestParamInfo<OnlineCase> &info) {
        return "lanes" + std::to_string(info.param.lanes) +
               (info.param.randomize ? "_random" : "_fixed") +
               (info.param.sharedPort ? "_shared" : "_private");
    });

// ---------------------------------------------------------------- //
// dTLB estimator                                                     //
// ---------------------------------------------------------------- //

TEST(WindowEngine, TlbMatchesReference)
{
    core::TlbEstimatorConfig conf;
    conf.m = 400;
    conf.n = 30;
    const Cycle run = conf.m * conf.n * 3 + 250;

    Rig ref_rig;
    RefTlb ref(ref_rig.pipe, conf);
    ref_rig.pipe.addObserver(&ref);
    ref_rig.pipe.run(run);

    Rig rig;
    core::TlbAvfEstimator est(rig.pipe, conf);
    rig.pipe.addObserver(&est);
    rig.pipe.run(run);

    ASSERT_EQ(ref.results.size(), 3u);
    EXPECT_EQ(est.estimates(), ref.results);
    EXPECT_EQ(est.injectionsSoFar(), ref.injections);
    EXPECT_EQ(est.failuresSoFar(), ref.failures);
    EXPECT_EQ(est.totalInjections(), ref.lifetimeInjections);
    EXPECT_EQ(est.snapshotState().counterValue("cursor"),
              static_cast<std::uint64_t>(ref.cursor));
}

// ---------------------------------------------------------------- //
// Coverage probes                                                    //
// ---------------------------------------------------------------- //

TEST(WindowEngine, CoverageProbesMatchReference)
{
    obs::AttributionConfig at_conf;
    at_conf.enabled = true;
    at_conf.phaseCycles = 2000;
    at_conf.phaseCount = 8;
    obs::CoverageProbeConfig conf;
    conf.m = 50;
    conf.n = 40;
    const Cycle run = conf.m * conf.n * 4 + 30;

    // All three targets on one shared port, next to a lane-parallel
    // online estimator, as the harness wires them.
    OnlineConfig online_conf;
    online_conf.m = conf.m;
    online_conf.n = conf.n;
    online_conf.lanes = 4;

    Rig ref_rig;
    InjectionPort ref_port(ref_rig.pipe);
    ref_rig.pipe.addObserver(&ref_port);
    obs::AttributionTracker ref_tracker(at_conf);
    RefOnline ref_online(ref_rig.pipe, Structure::REG, online_conf,
                         &ref_port);
    ref_online.sink = &ref_tracker;
    ref_rig.pipe.addObserver(&ref_online);
    std::vector<std::unique_ptr<RefProbe>> refs;
    for (int t = 0; t < obs::numCoverageTargets; ++t) {
        refs.push_back(std::make_unique<RefProbe>(
            ref_rig.pipe, ref_port, ref_tracker,
            static_cast<obs::CoverageTarget>(t), conf));
        ref_rig.pipe.addObserver(refs.back().get());
    }
    ref_rig.pipe.run(run);

    Rig rig;
    InjectionPort port(rig.pipe);
    rig.pipe.addObserver(&port);
    obs::AttributionTracker tracker(at_conf);
    core::OnlineAvfEstimator online(rig.pipe, Structure::REG,
                                    online_conf, &port);
    online.setLifecycleSink(&tracker);
    rig.pipe.addObserver(&online);
    std::vector<std::unique_ptr<obs::CoverageProbe>> probes;
    for (int t = 0; t < obs::numCoverageTargets; ++t) {
        probes.push_back(std::make_unique<obs::CoverageProbe>(
            rig.pipe, port, tracker,
            static_cast<obs::CoverageTarget>(t), conf));
        rig.pipe.addObserver(probes.back().get());
    }
    rig.pipe.run(run);

    for (int t = 0; t < obs::numCoverageTargets; ++t) {
        SCOPED_TRACE(obs::coverageTargetName(
            static_cast<obs::CoverageTarget>(t)));
        const RefProbe &ref = *refs[static_cast<std::size_t>(t)];
        const obs::CoverageProbe &probe =
            *probes[static_cast<std::size_t>(t)];
        ASSERT_EQ(ref.results.size(), 4u);
        EXPECT_EQ(probe.estimates(), ref.results);
        EXPECT_EQ(probe.injectionsSoFar(), ref.injections);
        EXPECT_EQ(probe.failuresSoFar(), ref.failures);
        // The reference counted lifetime injections at close.
        EXPECT_EQ(probe.totalWindowsClosed(), ref.lifetimeInjections);
        EXPECT_EQ(probe.totalFailures(), ref.lifetimeFailures);
        EXPECT_EQ(probe.snapshotState().counterValue("cursor"),
                  static_cast<std::uint64_t>(ref.cursor));
    }
    EXPECT_EQ(online.estimates(), ref_online.results);
    const std::string ref_bytes = attributionBytes(ref_tracker);
    EXPECT_NE(ref_bytes.find("branch_pred"), std::string::npos);
    EXPECT_EQ(attributionBytes(tracker), ref_bytes);
}

} // namespace
