#include "roster.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/avf_estimator.hh"
#include "core/injection_port.hh"
#include "core/occupancy_estimator.hh"
#include "core/online_estimator.hh"
#include "core/regression_estimator.hh"
#include "core/utilization_estimator.hh"
#include "cpu/pipeline.hh"
#include "obs/attribution.hh"
#include "obs/coverage_probe.hh"
#include "softarch/ace_analyzer.hh"
#include "trace/synthetic.hh"
#include "util/timing.hh"

namespace avf::perfbench
{

using core::Structure;
using harness::ExperimentConfig;
using harness::ExperimentResult;

namespace
{

/**
 * Longest plausible sampled region, in ns. A longer one was
 * descheduled, and scaled by sampleStride * numSlots into its layer's
 * total, one preemption would outweigh the layer; it is dropped.
 * (Finalizations are timed apart, every one, and not dropped.)
 */
inline constexpr double maxSampleNs = 20e3;

/** Open a timed region on @p clock. */
inline void
regionBegin(LayerClock &clock)
{
    clock.regionStart = timing::steadyNowNs();
}

/** Close the region regionBegin() opened. */
inline void
regionEnd(LayerClock &clock)
{
    clock.ns += static_cast<double>(timing::steadyNowNs() -
                                    clock.regionStart);
    ++clock.timed;
}

/** Run @p call, timing it when the step samples @p slot. */
template <typename Call>
inline void
forward(const Sampler &sampler, Slot slot, LayerClock &clock,
        Call &&call)
{
    ++clock.calls;
    if (sampler.slot != slot) {
        call();
        return;
    }
    regionBegin(clock);
    call();
    regionEnd(clock);
}

/** Counts and samples the synthetic generator's next() calls. */
class TraceProxy : public trace::TraceSource
{
  public:
    TraceProxy(trace::TraceSource &inner, const Sampler &sampler,
               LayerClock &clock)
        : inner(inner), sampler(sampler), clock(clock)
    {
    }

    bool
    next(trace::TraceInstruction &out) override
    {
        bool ok = false;
        forward(sampler, Slot::Trace, clock,
                [&] { ok = inner.next(out); });
        return ok;
    }

  private:
    trace::TraceSource &inner;
    const Sampler &sampler;
    LayerClock &clock;
};

/**
 * Forwards every hook to one observer. The pipeline calls its
 * observers back to back, so consecutive observers of one layer form
 * a run: the run's first proxy opens the timed region and its last
 * closes it, two clock reads per event for the whole run. onRetire
 * and onCycle, the hooks the roster's observers implement, are
 * counted and sampled; the others are default no-ops in every roster
 * observer and forward untimed, so their dispatch cost stays in the
 * cpu layer.
 */
class ObserverProxy : public cpu::PipelineObserver
{
  public:
    ObserverProxy(cpu::PipelineObserver &inner, const Sampler &sampler,
                  Slot slot, LayerClock &clock, bool opensRun,
                  bool closesRun, std::uint64_t *onCycleCalls)
        : inner(inner), sampler(sampler), slot(slot), clock(clock),
          opensRun(opensRun), closesRun(closesRun),
          onCycleCalls(onCycleCalls)
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
    onErrorHop(const cpu::DynInstr &d, cpu::ErrorMask bits,
               cpu::ErrorHop hop) override
    {
        inner.onErrorHop(d, bits, hop);
    }

    void
    onRetire(const cpu::DynInstr &d, const cpu::RetireInfo &info) override
    {
        inRun([&] { inner.onRetire(d, info); });
    }

    void
    onCycle(Cycle now) override
    {
        if (onCycleCalls)
            ++*onCycleCalls;
        inRun([&] { inner.onCycle(now); });
    }

  private:
    template <typename Call>
    void
    inRun(Call &&call)
    {
        ++clock.calls;
        bool timed = sampler.slot == slot;
        if (timed && opensRun)
            regionBegin(clock);
        call();
        if (timed && closesRun)
            regionEnd(clock);
    }

    cpu::PipelineObserver &inner;
    const Sampler &sampler;
    Slot slot;
    LayerClock &clock;
    bool opensRun;
    bool closesRun;
    std::uint64_t *onCycleCalls;
};

/**
 * The SoftArch reference's proxy. Interval finalization is rare and
 * expensive, so cycle sampling would miss most of it: the proxy
 * predicts the finalizing cycles from the analyzer's own rule
 * (now >= (k + 1) * interval + lookahead) and times each of them.
 */
class SoftArchProxy : public cpu::PipelineObserver
{
  public:
    SoftArchProxy(softarch::AceAnalyzer &inner, Cycle interval,
                  Cycle lookahead, const Sampler &sampler,
                  TaskLedger &ledger)
        : inner(inner), interval(interval),
          nextDue(interval + lookahead), sampler(sampler),
          ledger(ledger)
    {
    }

    void
    onRetire(const cpu::DynInstr &d, const cpu::RetireInfo &info) override
    {
        ++ledger.softarchOnRetireCalls;
        forward(sampler, Slot::SoftArch, ledger.softarch,
                [&] { inner.onRetire(d, info); });
    }

    void
    onCycle(Cycle now) override
    {
        if (now < nextDue) {
            forward(sampler, Slot::SoftArch, ledger.softarch,
                    [&] { inner.onCycle(now); });
            return;
        }
        while (now >= nextDue)
            nextDue += interval;
        double ns = finalizeTimed([&] { inner.onCycle(now); });
        if (sampler.slot == Slot::Step) {
            ++ledger.finalizeInStep.timed;
            ledger.finalizeInStep.ns += ns;
        }
    }

    /** Time the analyzer's end-of-run flush. */
    void
    finalizeAll(std::size_t throughInterval)
    {
        finalizeTimed([&] { inner.finalizeAll(throughInterval); });
    }

  private:
    template <typename Call>
    double
    finalizeTimed(Call &&call)
    {
        ledger.peakRecords = std::max<std::uint64_t>(
            ledger.peakRecords, inner.bufferedRecords());
        LayerClock &clock = ledger.finalize;
        double before = clock.ns;
        ++clock.calls;
        regionBegin(clock);
        call();
        regionEnd(clock);
        return clock.ns - before;
    }

    softarch::AceAnalyzer &inner;
    Cycle interval;
    Cycle nextDue;
    const Sampler &sampler;
    TaskLedger &ledger;
};

/** Counts the estimators' lifecycle-sink calls; timed in the online
 *  estimators' slot, nested inside their region. */
class SinkProxy : public core::LifecycleSink
{
  public:
    SinkProxy(core::LifecycleSink &inner, const Sampler &sampler,
              LayerClock &clock)
        : inner(inner), sampler(sampler), clock(clock)
    {
    }

    void
    openRecord(Structure s, LaneId lane, int entry, int field,
               bool live, Cycle now) override
    {
        forward(sampler, Slot::Online, clock, [&] {
            inner.openRecord(s, lane, entry, field, live, now);
        });
    }

    void
    closeRecord(Structure s, LaneId lane, Cycle now,
                const core::Outcome &outcome) override
    {
        forward(sampler, Slot::Online, clock,
                [&] { inner.closeRecord(s, lane, now, outcome); });
    }

  private:
    core::LifecycleSink &inner;
    const Sampler &sampler;
    LayerClock &clock;
};

} // namespace

ExperimentResult
runTracedExperiment(const ExperimentConfig &config, TaskLedger &ledger,
                    bool buildOnly)
{
    // The same validation and interval geometry as
    // runExperimentDirect (harness/experiment.cc).
    if (config.numIntervals <= 0)
        throw std::invalid_argument(
            "experiment: need at least one interval");
    if (config.online.m == 0 || config.online.n == 0)
        throw std::invalid_argument(
            "experiment: online M and N must be positive");
    if (config.online.lanes < 0 ||
        config.online.lanes > numErrorChannels)
        throw std::invalid_argument(
            "experiment: online lanes out of 0..64");
    if (config.lifecycle.enabled || config.control.enabled)
        throw std::invalid_argument(
            "traced roster: lifecycle tracing and control are not "
            "mirrored");

    const int requested = config.online.lanes > 0
                              ? config.online.lanes
                              : 1;
    const int per_est = std::max(
        1, std::min(requested,
                    numErrorChannels / core::numStructures));
    const auto boundaries = static_cast<Cycle>(
        (config.online.n + static_cast<std::uint32_t>(per_est) - 1) /
        static_cast<std::uint32_t>(per_est));
    const Cycle interval_len = config.online.m * boundaries;

    Sampler sampler;
    trace::SyntheticTraceGenerator generator(config.profile);
    TraceProxy source(generator, sampler, ledger.trace);
    cpu::Pipeline pipeline(config.cpu, source);

    // Attach one run of same-layer observers, in order.
    std::vector<std::unique_ptr<ObserverProxy>> proxies;
    auto attachRun = [&](const std::vector<cpu::PipelineObserver *> &run,
                         Slot slot, LayerClock &clock,
                         std::uint64_t *onCycleCalls = nullptr) {
        for (std::size_t i = 0; i < run.size(); ++i) {
            proxies.push_back(std::make_unique<ObserverProxy>(
                *run[i], sampler, slot, clock, i == 0,
                i + 1 == run.size(), onCycleCalls));
            pipeline.addObserver(proxies.back().get());
        }
    };

    core::InjectionPort port(pipeline);
    attachRun({&port}, Slot::Port, ledger.port);

    core::OnlineConfig online_conf = config.online;
    online_conf.lanes = per_est;

    std::vector<std::unique_ptr<core::AvfEstimator>> estimators;
    for (int s = 0; s < core::numStructures; ++s)
        estimators.push_back(
            std::make_unique<core::OnlineAvfEstimator>(
                pipeline, static_cast<Structure>(s), online_conf,
                &port));
    const std::size_t util_fxu_slot = estimators.size();
    estimators.push_back(std::make_unique<core::UtilizationEstimator>(
        pipeline, cpu::FuClass::Fxu, interval_len));
    estimators.push_back(std::make_unique<core::UtilizationEstimator>(
        pipeline, cpu::FuClass::Fpu, interval_len));
    const std::size_t occupancy_slot = estimators.size();
    estimators.push_back(std::make_unique<core::OccupancyEstimator>(
        pipeline, interval_len));

    Cycle eff_lookahead = config.lookahead;
    if (per_est > 1)
        eff_lookahead = std::min(eff_lookahead, interval_len);

    softarch::SoftArchConfig sa_conf;
    sa_conf.intervalCycles = interval_len;
    sa_conf.lookahead = eff_lookahead;
    sa_conf.fieldGranularIq = config.online.fieldGranularIq;
    softarch::AceAnalyzer reference(pipeline, sa_conf);
    SoftArchProxy reference_proxy(reference, interval_len,
                                  eff_lookahead, sampler, ledger);

    core::FeatureCollector features(pipeline, interval_len);
    std::vector<cpu::PipelineObserver *> online, baselines;
    for (std::size_t i = 0; i < estimators.size(); ++i)
        (i < util_fxu_slot ? online : baselines)
            .push_back(estimators[i].get());
    baselines.push_back(&features);
    attachRun(online, Slot::Online, ledger.online,
              &ledger.onlineOnCycleCalls);
    pipeline.addObserver(&reference_proxy);
    attachRun(baselines, Slot::Baseline, ledger.baseline);

    std::unique_ptr<obs::AttributionTracker> attribution;
    std::vector<std::unique_ptr<obs::CoverageProbe>> probes;
    std::unique_ptr<SinkProxy> sink;
    if (config.attribution.enabled) {
        obs::AttributionConfig at_conf = config.attribution;
        if (at_conf.phaseCycles == 0)
            at_conf.phaseCycles = interval_len;
        if (at_conf.phaseCount == 0)
            at_conf.phaseCount =
                static_cast<std::uint32_t>(config.numIntervals);
        attribution =
            std::make_unique<obs::AttributionTracker>(at_conf);
        obs::CoverageProbeConfig probe_conf;
        probe_conf.m = config.online.m;
        probe_conf.n = static_cast<std::uint32_t>(boundaries);
        std::vector<cpu::PipelineObserver *> run;
        for (int t = 0; t < obs::numCoverageTargets; ++t) {
            probes.push_back(std::make_unique<obs::CoverageProbe>(
                pipeline, port, *attribution,
                static_cast<obs::CoverageTarget>(t), probe_conf));
            run.push_back(probes.back().get());
        }
        attachRun(run, Slot::Probe, ledger.probe);
        sink = std::make_unique<SinkProxy>(*attribution, sampler,
                                           ledger.sink);
        for (int s = 0; s < core::numStructures; ++s)
            static_cast<core::OnlineAvfEstimator *>(
                estimators[static_cast<std::size_t>(s)].get())
                ->setLifecycleSink(sink.get());
    }

    if (buildOnly)
        return {};

    // Pipeline::run(total), one step at a time; every
    // sampleStride-th step samples the next slot in rotation.
    const Cycle total = interval_len *
        static_cast<Cycle>(config.numIntervals) +
        eff_lookahead + config.online.m;
    for (Cycle i = 0; i < total; ++i) {
        sampler.slot = Slot::None;
        LayerClock *sampled = nullptr;
        LayerClock before, sinkBefore, finalizeBefore;
        if (i % sampleStride == 0) {
            sampler.slot = static_cast<Slot>((i / sampleStride) %
                                             numSlots);
            sampled = &ledger.clockOf(sampler.slot);
            ++sampled->samples;
            before = *sampled;
            sinkBefore = ledger.sink;
            finalizeBefore = ledger.finalizeInStep;
        }
        bool more = false;
        forward(sampler, Slot::Step, ledger.step,
                [&] { more = pipeline.step(); });
        if (sampled &&
            (sampled->ns - before.ns) -
                    (ledger.finalizeInStep.ns - finalizeBefore.ns) >
                maxSampleNs) {
            // Descheduled mid-sample: drop the sample, keep the calls.
            --sampled->samples;
            sampled->ns = before.ns;
            sampled->timed = before.timed;
            ledger.sink.ns = sinkBefore.ns;
            ledger.sink.timed = sinkBefore.timed;
            ledger.finalizeInStep = finalizeBefore;
        }
        if (!more)
            break;
    }
    sampler.slot = Slot::None;
    reference_proxy.finalizeAll(
        static_cast<std::size_t>(config.numIntervals - 1));

    ExperimentResult result;
    result.benchmark = config.profile.name;
    auto intervals_available = static_cast<std::size_t>(
        config.numIntervals);
    for (const auto &est : estimators)
        intervals_available = std::min(intervals_available,
                                       est->estimates().size());
    intervals_available = std::min(intervals_available,
                                   reference.results().size());
    intervals_available = std::min(intervals_available,
                                   features.features().size());
    result.intervals.resize(intervals_available);
    for (std::size_t k = 0; k < intervals_available; ++k) {
        auto &row = result.intervals[k];
        for (int s = 0; s < core::numStructures; ++s) {
            auto idx = static_cast<std::size_t>(s);
            row.online[idx] = estimators[idx]->estimates()[k];
            row.softarch[idx] = reference.results()[k].avf[idx];
        }
        row.utilization[0] = estimators[util_fxu_slot]->estimates()[k];
        row.utilization[1] =
            estimators[util_fxu_slot + 1]->estimates()[k];
        row.occupancy = estimators[occupancy_slot]->estimates()[k];
    }
    result.features.assign(
        features.features().begin(),
        features.features().begin() +
            static_cast<std::ptrdiff_t>(intervals_available));

    const auto &stats = pipeline.stats();
    const auto &memory = pipeline.memory();
    const auto &dtlb = memory.dtlb().stats();
    result.summary.ipc = stats.ipc();
    result.summary.branchAccuracy =
        pipeline.branchPredictor().stats().accuracy();
    result.summary.l1dMissRate = memory.l1d().stats().missRate();
    result.summary.l2MissRate = memory.l2().stats().missRate();
    result.summary.dtlbMissRate =
        dtlb.accesses ? static_cast<double>(dtlb.misses) /
                            static_cast<double>(dtlb.accesses)
                      : 0.0;
    result.summary.cycles = stats.cycles;
    result.summary.retired = stats.retired;
    if (attribution) {
        result.attribution = attribution->snapshot();
        ledger.attributionRows = result.attribution.rows.size();
    }

    ledger.cycles = stats.cycles;
    ledger.retired = stats.retired;
    ledger.fetchStallCycles = stats.fetchStallCycles;
    ledger.redirects = stats.redirects;
    ledger.l1dAccesses = memory.l1d().stats().accesses;
    ledger.l1dMisses = memory.l1d().stats().misses;
    ledger.l2Accesses = memory.l2().stats().accesses;
    ledger.l2Misses = memory.l2().stats().misses;
    ledger.dtlbAccesses = dtlb.accesses;
    ledger.dtlbMisses = dtlb.misses;
    for (int s = 0; s < core::numStructures; ++s) {
        const auto *est = static_cast<const core::OnlineAvfEstimator *>(
            estimators[static_cast<std::size_t>(s)].get());
        ledger.windowsClosed += est->totalWindowsClosed();
        ledger.injections += est->totalInjections();
        ledger.failures += est->totalFailures();
    }
    return result;
}

bool
sameIntervals(const ExperimentResult &a, const ExperimentResult &b)
{
    if (a.intervals.size() != b.intervals.size())
        return false;
    for (std::size_t k = 0; k < a.intervals.size(); ++k) {
        const auto &x = a.intervals[k];
        const auto &y = b.intervals[k];
        if (std::memcmp(x.online.data(), y.online.data(),
                        sizeof(x.online)) != 0 ||
            std::memcmp(x.softarch.data(), y.softarch.data(),
                        sizeof(x.softarch)) != 0 ||
            std::memcmp(x.utilization.data(), y.utilization.data(),
                        sizeof(x.utilization)) != 0 ||
            std::memcmp(&x.occupancy, &y.occupancy,
                        sizeof(x.occupancy)) != 0)
            return false;
    }
    return true;
}

} // namespace avf::perfbench
