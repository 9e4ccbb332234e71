#include "ledger.hh"

#include <algorithm>

#include "util/timing.hh"

namespace avf::perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
calibrateClockNs()
{
    std::vector<double> laps;
    laps.reserve(2001);
    for (int i = 0; i < 2001; ++i) {
        std::uint64_t t0 = timing::steadyNowNs();
        std::uint64_t t1 = timing::steadyNowNs();
        laps.push_back(static_cast<double>(t1 - t0));
    }
    return median(std::move(laps));
}

void
recordHarness(HarnessLedger &ledger,
              const std::vector<harness::TaskResult> &tasks)
{
    ledger.startNs.clear();
    ledger.endNs.clear();
    for (const auto &task : tasks) {
        ledger.startNs.push_back(task.startNs);
        ledger.endNs.push_back(task.endNs);
    }
}

LayerClock &
TaskLedger::clockOf(Slot slot)
{
    switch (slot) {
      case Slot::Step: return step;
      case Slot::Trace: return trace;
      case Slot::Port: return port;
      case Slot::Online: return online;
      case Slot::SoftArch: return softarch;
      case Slot::Baseline: return baseline;
      case Slot::Probe: return probe;
      default: return step;
    }
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
toDouble(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** Measured minus the clock reads: one per timed region. */
double
selfNs(const LayerClock &clock, double clockNs)
{
    return clock.ns - toDouble(clock.timed) * clockNs;
}

/** What a nested clock took out of its parent's region: its own
 *  time plus both of its clock reads. */
double
nestedNs(const LayerClock &clock, double clockNs)
{
    return clock.ns + toDouble(clock.timed) * clockNs;
}

/** Whole-task self time of a sampled layer: per-sample mean times
 *  every step. */
double
scaled(const TaskLedger &t, const LayerClock &clock, double ns)
{
    return ns * ratio(toDouble(t.step.calls), toDouble(clock.samples));
}

} // namespace

LayerTimes
layerTimes(const TaskLedger &t, double c)
{
    LayerTimes lt;
    lt.trace = scaled(t, t.trace, selfNs(t.trace, c));
    lt.port = scaled(t, t.port, selfNs(t.port, c));
    lt.sink = scaled(t, t.online, selfNs(t.sink, c));
    lt.online = scaled(t, t.online,
                       selfNs(t.online, c) - nestedNs(t.sink, c));
    lt.baseline = scaled(t, t.baseline, selfNs(t.baseline, c));
    lt.softarch = scaled(t, t.softarch, selfNs(t.softarch, c));
    lt.finalize = selfNs(t.finalize, c);
    lt.probe = scaled(t, t.probe, selfNs(t.probe, c));
    // The cpu layer is what remains of a step once every observer
    // and trace read is taken out; finalizations are timed exactly,
    // so the whole-step samples drop theirs.
    double steps = scaled(t, t.step,
                          selfNs(t.step, c) -
                              nestedNs(t.finalizeInStep, c));
    lt.cpu = steps - lt.trace - lt.port - lt.online - lt.sink -
             lt.baseline - lt.softarch - lt.probe;
    return lt;
}

std::vector<Metric>
layerMetrics(const std::vector<TaskLedger> &tasks, int taskReps,
             const ServeLedger &serve, int serveReps,
             const std::vector<HarnessLedger> &harness, double clockNs,
             double traceOverhead)
{
    LayerTimes ns;
    TaskLedger sum;
    for (const auto &t : tasks) {
        LayerTimes lt = layerTimes(t, clockNs);
        ns.trace += lt.trace;
        ns.cpu += lt.cpu;
        ns.port += lt.port;
        ns.online += lt.online;
        ns.baseline += lt.baseline;
        ns.softarch += lt.softarch;
        ns.finalize += lt.finalize;
        ns.probe += lt.probe;
        ns.sink += lt.sink;

        sum.trace.calls += t.trace.calls;
        sum.onlineOnCycleCalls += t.onlineOnCycleCalls;
        sum.softarchOnRetireCalls += t.softarchOnRetireCalls;
        sum.peakRecords = std::max(sum.peakRecords, t.peakRecords);
        sum.sink.calls += t.sink.calls;
        sum.cycles += t.cycles;
        sum.retired += t.retired;
        sum.fetchStallCycles += t.fetchStallCycles;
        sum.redirects += t.redirects;
        sum.l1dAccesses += t.l1dAccesses;
        sum.l1dMisses += t.l1dMisses;
        sum.l2Accesses += t.l2Accesses;
        sum.l2Misses += t.l2Misses;
        sum.dtlbAccesses += t.dtlbAccesses;
        sum.dtlbMisses += t.dtlbMisses;
        sum.windowsClosed += t.windowsClosed;
        sum.injections += t.injections;
        sum.failures += t.failures;
        sum.attributionRows += t.attributionRows;
    }
    const double reps = std::max(1, taskReps);
    const double sreps = std::max(1, serveReps);
    auto perCount = [&](std::uint64_t v) { return toDouble(v) / reps; };
    auto secs = [&](double ns) { return ns * 1e-9 / reps; };
    auto serveSecs = [&](double ns) { return ns * 1e-9 / sreps; };

    // Engine queueing and balance, averaged over the traced campaigns.
    double tasksPer = 0, p50 = 0, maxS = 0, waitS = 0, imbalance = 0;
    for (const auto &h : harness) {
        std::vector<double> durs;
        double busy = 0, wait = 0;
        std::uint64_t first = ~std::uint64_t{0}, last = 0;
        for (std::size_t i = 0; i < h.startNs.size(); ++i) {
            double d = toDouble(h.endNs[i] - h.startNs[i]) * 1e-9;
            durs.push_back(d);
            busy += d;
            wait += toDouble(h.startNs[i] - h.submitNs[i]) * 1e-9;
            first = std::min(first, h.submitNs[i]);
            last = std::max(last, h.endNs[i]);
        }
        double makespan = durs.empty() ? 0.0
                                       : toDouble(last - first) * 1e-9;
        tasksPer += toDouble(durs.size());
        maxS += durs.empty() ? 0.0
                             : *std::max_element(durs.begin(), durs.end());
        p50 += median(durs);
        waitS += wait;
        imbalance += ratio(makespan * h.workers, busy);
    }
    const double hn = std::max<std::size_t>(1, harness.size());

    double trS = secs(ns.trace);
    double cpuSec = secs(ns.cpu);
    return {
        {"trace.instrs", "count", perCount(sum.trace.calls)},
        {"trace.self_s", "s", trS},
        {"trace.ns_per_instr", "ns",
         ratio(trS * 1e9, perCount(sum.trace.calls))},
        {"cpu.cycles", "count", perCount(sum.cycles)},
        {"cpu.retired", "count", perCount(sum.retired)},
        {"cpu.ipc", "ratio",
         ratio(toDouble(sum.retired), toDouble(sum.cycles))},
        {"cpu.fetch_stall_cycles", "count",
         perCount(sum.fetchStallCycles)},
        {"cpu.redirects", "count", perCount(sum.redirects)},
        {"mem.l1d_miss_rate", "ratio",
         ratio(toDouble(sum.l1dMisses), toDouble(sum.l1dAccesses))},
        {"mem.l2_miss_rate", "ratio",
         ratio(toDouble(sum.l2Misses), toDouble(sum.l2Accesses))},
        {"mem.dtlb_miss_rate", "ratio",
         ratio(toDouble(sum.dtlbMisses), toDouble(sum.dtlbAccesses))},
        {"cpu.self_s", "s", cpuSec},
        {"cpu.ns_per_cycle", "ns",
         ratio(cpuSec * 1e9, perCount(sum.cycles))},
        {"core.on_cycle_calls", "count",
         perCount(sum.onlineOnCycleCalls)},
        {"core.windows_closed", "count", perCount(sum.windowsClosed)},
        {"core.useful_call_ratio", "ratio",
         ratio(toDouble(sum.windowsClosed),
               toDouble(sum.onlineOnCycleCalls))},
        {"core.injections", "count", perCount(sum.injections)},
        {"core.failures", "count", perCount(sum.failures)},
        {"core.self_s", "s", secs(ns.port + ns.online + ns.baseline)},
        {"core.port_self_s", "s", secs(ns.port)},
        {"softarch.on_retire_calls", "count",
         perCount(sum.softarchOnRetireCalls)},
        {"softarch.self_s", "s", secs(ns.softarch + ns.finalize)},
        {"softarch.finalize_s", "s", secs(ns.finalize)},
        {"softarch.peak_records", "count", toDouble(sum.peakRecords)},
        {"obs.probe_self_s", "s", secs(ns.probe)},
        {"obs.sink_calls", "count", perCount(sum.sink.calls)},
        {"obs.sink_self_s", "s", secs(ns.sink)},
        {"obs.attribution_rows", "count",
         serve.dispatch.batches
             ? toDouble(serve.attributionRows) / sreps
             : perCount(sum.attributionRows)},
        {"obs.merge_s", "s", serveSecs(serve.mergeNs)},
        {"harness.tasks", "count", tasksPer / hn},
        {"harness.task_p50_s", "s", p50 / hn},
        {"harness.task_max_s", "s", maxS / hn},
        {"harness.queue_wait_s", "s", waitS / hn},
        {"harness.imbalance", "ratio", imbalance / hn},
        {"serve.batches", "count",
         toDouble(serve.dispatch.batches) / sreps},
        {"serve.workers_forked", "count",
         toDouble(serve.dispatch.forks) / sreps},
        {"serve.shard_wait_s", "s", serveSecs(serve.shardWaitNs)},
        {"serve.consumer_s", "s", serveSecs(serve.consumerNs)},
        {"serve.feed_sync_s", "s", serveSecs(serve.feedSyncNs)},
        {"serve.ckpt_save_s", "s", serveSecs(serve.ckptSaveNs)},
        {"serve.ckpt_bytes", "bytes", toDouble(serve.ckptBytes) / sreps},
        {"serve.feed_bytes", "bytes", toDouble(serve.feedBytes) / sreps},
        {"bench.trace_overhead", "ratio", traceOverhead},
    };
}

} // namespace avf::perfbench
