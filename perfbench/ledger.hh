/**
 * @file
 * Per-layer accounting for the traced run. The benchmark's proxies
 * (roster.hh) count every call they forward and time the calls of a
 * fixed stride of sampled cycles; the serve steps (serve_steps.hh)
 * time each step of a campaign. This file folds those raw tallies
 * into the per-layer metrics BENCHMARK.json lists.
 *
 * Self time of a timed region is its measured time minus the cost of
 * the clock reads that bracket it and everything nested inside it,
 * with that cost calibrated once per process (calibrateClockNs).
 */

#ifndef AVF_PERFBENCH_LEDGER_HH
#define AVF_PERFBENCH_LEDGER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/engine.hh"

namespace avf::perfbench
{

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Cycles between sampled steps (prime: never aligned with M). */
inline constexpr std::uint32_t sampleStride = 31;

/**
 * What a sampled step times. Sampled steps rotate through the slots,
 * so each times one layer and pays the clock reads of that layer
 * only; the Step slot times the whole step, which gives the cpu
 * layer's self time as the remainder.
 */
enum class Slot : int
{
    Step,
    Trace,
    Port,
    Online,
    SoftArch,
    Baseline,
    Probe,
    NumSlots,
    None = NumSlots
};

inline constexpr int numSlots = static_cast<int>(Slot::NumSlots);

/** Shared switch: the slot the current step times, if any. */
struct Sampler
{
    Slot slot = Slot::None;
};

/** Calls into one layer and the time of the sampled ones. */
struct LayerClock
{
    /** Every forwarded call. */
    std::uint64_t calls = 0;
    /** Sampled steps that timed this clock's slot. */
    std::uint64_t samples = 0;
    /** Timed regions, and their measured nanoseconds. */
    std::uint64_t timed = 0;
    double ns = 0.0;
    /** Tick at which the current timed region began. */
    std::uint64_t regionStart = 0;
};

/** Everything one traced task measured. */
struct TaskLedger
{
    /** Pipeline steps driven (step.calls); step.samples of them were
     *  timed whole. */
    LayerClock step;

    /** TraceSource::next() of the synthetic generator. */
    LayerClock trace;
    /** The shared InjectionPort observer. */
    LayerClock port;
    /** The five online estimators. */
    LayerClock online;
    /** AceAnalyzer onRetire and its non-finalizing onCycle calls. */
    LayerClock softarch;
    /** Utilization and occupancy baselines, feature collector. */
    LayerClock baseline;
    /** Coverage probes (attribution runs only). */
    LayerClock probe;
    /** LifecycleSink calls; nested inside `online`, timed with it. */
    LayerClock sink;
    /** AceAnalyzer interval finalizations: every one is timed. */
    LayerClock finalize;
    /** The share of `finalize` inside whole-step samples. */
    LayerClock finalizeInStep;

    /** onCycle calls delivered to the five online estimators. */
    std::uint64_t onlineOnCycleCalls = 0;
    std::uint64_t softarchOnRetireCalls = 0;
    std::uint64_t peakRecords = 0;

    /** Simulated statistics read after the run. */
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t fetchStallCycles = 0;
    std::uint64_t redirects = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t dtlbAccesses = 0, dtlbMisses = 0;
    std::uint64_t windowsClosed = 0;
    std::uint64_t injections = 0;
    std::uint64_t failures = 0;
    std::uint64_t attributionRows = 0;

    /** The clock sampled steps of @p slot time. */
    LayerClock &clockOf(Slot slot);
};

/** Batches (checkpointed runShardedSlices calls) and the worker
 *  processes they forked. */
struct Dispatch
{
    std::uint64_t batches = 0;
    std::uint64_t forks = 0;

    bool
    operator==(const Dispatch &other) const
    {
        return batches == other.batches && forks == other.forks;
    }
};

/** The serve steps of one traced campaign. */
struct ServeLedger
{
    /** runCampaignFresh's own dispatch (DispatchWatch). */
    Dispatch dispatch;
    double shardWaitNs = 0.0;
    double consumerNs = 0.0;
    double mergeNs = 0.0;
    double feedSyncNs = 0.0;
    double ckptSaveNs = 0.0;
    std::uint64_t ckptBytes = 0;
    std::uint64_t feedBytes = 0;
    std::uint64_t attributionRows = 0;
};

/** Engine-side view of one campaign: its tasks and their queueing. */
struct HarnessLedger
{
    int workers = 1;
    /** Per task: ticks at submit, start, and end. */
    std::vector<std::uint64_t> submitNs, startNs, endNs;
};

/** Per-layer self times of one task, in ns; they partition its
 *  steps. */
struct LayerTimes
{
    double trace = 0, cpu = 0, port = 0, online = 0, baseline = 0,
           softarch = 0, finalize = 0, probe = 0, sink = 0;
};

/** Self times of task @p t, with clock reads costing @p clockNs. */
LayerTimes layerTimes(const TaskLedger &t, double clockNs);

/** Cost of one steadyNowNs() read, in ns (median of many). */
double calibrateClockNs();

/** Record @p tasks' timing from a collected campaign. */
void recordHarness(HarnessLedger &ledger,
                   const std::vector<harness::TaskResult> &tasks);

/**
 * Fold the traced run into the per-layer metrics, in BENCHMARK.json
 * order. Every figure is per campaign: @p tasks holds the traced
 * tasks of @p taskReps campaigns, @p serve sums @p serveReps traced
 * serve campaigns, and harness figures are means over @p harness.
 */
std::vector<Metric> layerMetrics(const std::vector<TaskLedger> &tasks,
                                 int taskReps, const ServeLedger &serve,
                                 int serveReps,
                                 const std::vector<HarnessLedger> &harness,
                                 double clockNs, double traceOverhead);

} // namespace avf::perfbench

#endif // AVF_PERFBENCH_LEDGER_HH
