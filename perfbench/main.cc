/**
 * @file
 * avf_perfbench: the repo's campaign benchmark (see README.md and
 * BENCHMARK.json at the repo root).
 *
 *   avf_perfbench --workload W --seed N --seconds S --trace 0|1
 *                 [--out-dir DIR]
 *
 * --trace 0 runs the workload through its public entry point
 * (ExperimentEngine::submit/collect, or serve::runCampaignFresh),
 * after an unmeasured warm-up, as many times as fit in S
 * seconds (at least once), and reports the end-to-end metrics.
 * --trace 1 alternates untraced and traced campaigns the same way
 * and reports the per-layer metrics; the traced campaigns run
 * through the benchmark's own proxies (roster.hh, serve_steps.hh)
 * and must reproduce the untraced outputs bit for bit. Every
 * campaign passes the correctness gate or counts as failed.
 *
 * Human-readable lines go to stdout first; the last stdout line is
 * one JSON object {"correct", "attempted", "failed", "metrics"}. The
 * exit code is 0 only when every check passed.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "campaign.hh"
#include "ledger.hh"
#include "obs/trace_export.hh"
#include "roster.hh"
#include "serve/sharder.hh"
#include "serve_steps.hh"
#include "util/timing.hh"

namespace avf::perfbench
{

namespace
{

/** Parsed command line. */
struct Options
{
    /** fig3_serial, fig3_default, or serve_rootcause. */
    std::string workload;
    /**
     * Workload seed: the salt every fig3 task's seeds derive from
     * (deriveTaskSeeds, see makeFig3Campaign), and the serve
     * campaign's CampaignSpec::seedSalt when nonzero.
     */
    std::uint64_t seed = 1;
    /** Measurement window, seconds. */
    double seconds = 10.0;
    /** false: end-to-end metrics; true: per-layer metrics. */
    bool trace = false;
    /** Directory for serve state and the Perfetto trace. */
    std::string outDir = ".bench_build/out";
};

/** Peak resident set of this process (plus its largest child's), MB. */
double
peakRssMb(bool withChildren)
{
    rusage self{};
    double kb = 0.0;
    if (::getrusage(RUSAGE_SELF, &self) == 0)
        kb += static_cast<double>(self.ru_maxrss);
    rusage children{};
    if (withChildren && ::getrusage(RUSAGE_CHILDREN, &children) == 0)
        kb += static_cast<double>(children.ru_maxrss);
    return kb / 1024.0;
}

/** Engine workers / serve procs: min(4, hardware threads). */
int
workerCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(hw == 0 ? 1 : std::min(hw, 4u));
}

/**
 * Set-ups timed per run, in groups spread through it: a burst of
 * set-ups follows the host's load of its moment, and one burst per
 * run read up to 1.5x another run's on the same code. fig3 takes
 * setupSamples / fig3Rounds before each round, 42 a campaign.
 */
constexpr int setupSamples = 48;

/** Set-ups per group around serve campaigns. */
constexpr int serveSetupGroup = 8;

double
secondsSince(std::uint64_t t0)
{
    return static_cast<double>(timing::steadyNowNs() - t0) * 1e-9;
}

/**
 * Whether a campaign as long as the last one (@p lastS) still ends
 * inside the measurement window that began at @p start.
 */
bool
fitsWindow(std::uint64_t start, double lastS, const Options &opts)
{
    return secondsSince(start) + lastS <= opts.seconds;
}

/**
 * Build each task's simulator in turn, from the constructors
 * runExperimentDirect uses, without running a cycle.
 */
void
buildRosters(const TaskList &tasks)
{
    TaskLedger unused;
    for (const auto &task : tasks)
        runTracedExperiment(task.second, unused, true);
}

/** The slices of @p spec as named tasks, in slice order. */
TaskList
sliceTasks(const serve::CampaignSpec &spec)
{
    TaskList tasks;
    for (std::uint64_t i = 0; i < spec.numSlices(); ++i)
        tasks.emplace_back(spec.name + ":" + std::to_string(i),
                           serve::makeSliceConfig(spec, i));
    return tasks;
}

/** What a run reports. An operation is a task or a slice. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<Metric> metrics;

    /** Record a failed check that cost @p count operations. */
    void
    fail(std::uint64_t count, std::string why)
    {
        failed += count;
        errors.push_back(std::move(why));
    }
};

// ------------------------------------------------------------------ //
// fig3 workloads                                                      //
// ------------------------------------------------------------------ //

/** One round of a fig3 campaign: one engine batch. */
struct Fig3Round
{
    double wallS = 0.0;
    std::uint64_t cycles = 0;
    std::vector<harness::TaskResult> tasks;
};

/** Submit @p tasks to @p engine and collect them, timed. */
Fig3Round
runFig3Round(harness::ExperimentEngine &engine, const TaskList &tasks)
{
    Fig3Round round;
    std::uint64_t t0 = timing::steadyNowNs();
    for (const auto &[name, config] : tasks)
        engine.submit(name, config);
    round.tasks = engine.collect();
    round.wallS = secondsSince(t0);
    for (const auto &task : round.tasks)
        round.cycles += task.result.summary.cycles;
    return round;
}

/**
 * Gate every task: it passed checkTask and, when @p reference is
 * not empty, its series is bit-identical to the reference task's.
 */
void
gateFig3(Report &report, const std::vector<harness::TaskResult> &tasks,
         const std::vector<harness::TaskResult> &reference,
         int intervals, const char *what)
{
    report.attempted += tasks.size();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        std::string why = checkTask(tasks[i], intervals);
        if (why.empty() && i < reference.size() &&
            (!sameIntervals(tasks[i].result, reference[i].result) ||
             tasks[i].result.summary.cycles !=
                 reference[i].result.summary.cycles))
            why = tasks[i].name + ": " + what +
                  " differs from the first campaign";
        if (!why.empty())
            report.fail(1, why);
    }
}

/** gateFig3 for each round, against the reference's same round. */
void
gateFig3Rounds(Report &report, const std::vector<Fig3Round> &rounds,
               const std::vector<Fig3Round> &reference, int intervals)
{
    static const std::vector<harness::TaskResult> none;
    for (std::size_t r = 0; r < rounds.size(); ++r)
        gateFig3(report, rounds[r].tasks,
                 r < reference.size() ? reference[r].tasks : none,
                 intervals, "series");
}

/** The untimed warm-up round, run and gated on @p engine. */
void
warmUpFig3(const Options &opts, int workers,
           harness::ExperimentEngine &engine, Report &report)
{
    Fig3Campaign warm =
        makeFig3Campaign(opts.workload, opts.seed, workers, Size::WarmUp);
    Fig3Round round = runFig3Round(engine, warm.rounds.front());
    gateFig3(report, round.tasks, {}, warm.intervals, "series");
}

std::vector<Metric>
accuracyMetrics(const Accuracy &acc)
{
    return {
        {"worst_mean_abs_err", "avf", acc.worstMean},
        {"worst_max_abs_err", "avf", acc.worstMax},
        {"mean_abs_err", "avf", acc.mean},
    };
}

/** Accuracy over each app's series, its rounds laid end to end. */
Accuracy
fig3Accuracy(const std::vector<Fig3Round> &rounds)
{
    std::vector<AppSeries> series(rounds.front().tasks.size());
    for (const auto &round : rounds)
        for (std::size_t a = 0; a < round.tasks.size(); ++a) {
            const AppSeries &rows = round.tasks[a].result.intervals;
            series[a].insert(series[a].end(), rows.begin(), rows.end());
        }
    std::vector<const AppSeries *> apps;
    for (const auto &app : series)
        apps.push_back(&app);
    return accuracyOf(apps);
}

/**
 * Time @p count fig3 set-ups into @p out: the campaign's configs,
 * its engine with the workers it starts, and every task's simulator
 * of one round, built in turn.
 */
void
sampleFig3Setups(const Options &opts, int workers, int count,
                 std::vector<double> &out)
{
    for (int i = 0; i < count; ++i) {
        std::uint64_t t0 = timing::steadyNowNs();
        Fig3Campaign campaign = makeFig3Campaign(
            opts.workload, opts.seed, workers, Size::Measured);
        harness::ExperimentEngine engine(campaign.options);
        buildRosters(submittedTasks(campaign, 0));
        out.push_back(secondsSince(t0));
    }
}

void
runFig3Untraced(const Options &opts, Report &report)
{
    const int workers = workerCount();
    const Fig3Campaign campaign = makeFig3Campaign(
        opts.workload, opts.seed, workers, Size::Measured);
    harness::ExperimentEngine engine(campaign.options);
    // Warm-up: fills caches and the allocator before timing.
    warmUpFig3(opts, workers, engine, report);

    // Every round is a rate sample, with a group of set-ups before
    // it. The first campaign is the reference every later one must
    // reproduce bit for bit.
    std::vector<Fig3Round> first;
    std::vector<double> rates, setups;
    double lastS = 0.0;
    std::uint64_t start = timing::steadyNowNs();
    do {
        std::vector<Fig3Round> rounds;
        lastS = 0.0;
        for (const auto &tasks : campaign.rounds) {
            sampleFig3Setups(opts, workers, setupSamples / fig3Rounds,
                             setups);
            Fig3Round round = runFig3Round(engine, tasks);
            rates.push_back(static_cast<double>(round.cycles) /
                            round.wallS * 1e-6);
            lastS += round.wallS;
            rounds.push_back(std::move(round));
        }
        gateFig3Rounds(report, rounds, first, campaign.intervals);
        if (first.empty())
            first = std::move(rounds);
    } while (fitsWindow(start, lastS, opts));

    report.metrics = {
        {"sim_mcycles_per_s", "Mcycles/s", median(rates)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mb", "MB", peakRssMb(false)},
    };
    for (const auto &m : accuracyMetrics(fig3Accuracy(first)))
        report.metrics.push_back(m);
}

/** Task spans per worker lane, each with its layer breakdown. */
void
addTaskSpans(obs::TraceWriter &trace,
             const std::vector<harness::TaskResult> &tasks,
             const std::vector<TaskLedger> &ledgers, double clockNs)
{
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto &task = tasks[i];
        auto lane = static_cast<std::uint32_t>(task.worker + 1);
        trace.setThreadName(lane,
                            "worker " + std::to_string(task.worker));
        obs::TraceSpan span;
        span.name = task.name;
        span.category = "task";
        span.beginNs = task.startNs;
        span.durNs = task.endNs - task.startNs;
        span.tid = lane;
        span.args = {
            {"cycles", static_cast<double>(task.result.summary.cycles)},
        };
        trace.addSpan(std::move(span));

        // The task's layer self times, which partition its steps,
        // laid end to end on a lane of their own.
        const LayerTimes lt = layerTimes(ledgers[i], clockNs);
        const std::pair<std::string_view, double> layers[] = {
            {"trace", lt.trace},
            {"cpu", lt.cpu},
            {"core", lt.port + lt.online + lt.baseline},
            {"softarch", lt.softarch + lt.finalize},
            {"obs.probe", lt.probe},
            {"obs.sink", lt.sink}};
        timing::PhaseAccumulator phases;
        for (const auto &[name, ns] : layers)
            if (ns > 0.0)
                phases.add(name, ns);
        auto phaseLane = static_cast<std::uint32_t>(100 + i);
        trace.setThreadName(phaseLane, task.name + " layers");
        trace.addPhases(phases, phaseLane, task.startNs);
    }
}

void
writeTrace(const Options &opts, const obs::TraceWriter &trace,
           Report &report)
{
    std::string path = opts.outDir + "/" + opts.workload + ".trace.json";
    std::ofstream out(path);
    trace.writeJson(out);
    out.close();
    if (!out)
        report.fail(0, "could not write " + path);
}

/** A campaign of TaskFns over the proxied roster (roster.hh). */
struct TracedCampaign
{
    std::vector<harness::TaskResult> tasks;
    std::vector<TaskLedger> ledgers;
    HarnessLedger harness;
    double wallS = 0.0;
};

TracedCampaign
runTracedCampaign(const TaskList &tasks, int workers)
{
    TracedCampaign out;
    out.ledgers.resize(tasks.size());
    out.harness.workers = workers;
    harness::RunOptions options;
    options.threads = static_cast<unsigned>(workers);
    harness::ExperimentEngine engine(options);
    std::uint64_t t0 = timing::steadyNowNs();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        TaskLedger &ledger = out.ledgers[i];
        out.harness.submitNs.push_back(timing::steadyNowNs());
        engine.submit(tasks[i].first,
                      [config = tasks[i].second, &ledger] {
                          return runTracedExperiment(config, ledger);
                      });
    }
    out.tasks = engine.collect();
    out.wallS = secondsSince(t0);
    recordHarness(out.harness, out.tasks);
    return out;
}

void
runFig3Traced(const Options &opts, Report &report)
{
    const int workers = workerCount();
    const double clockNs = calibrateClockNs();
    const Fig3Campaign campaign = makeFig3Campaign(
        opts.workload, opts.seed, workers, Size::Measured);
    harness::ExperimentEngine engine(campaign.options);
    warmUpFig3(opts, workers, engine, report);

    std::vector<TaskLedger> ledgers;
    std::vector<HarnessLedger> harnessLedgers;
    // Every round of the last traced campaign, for the Perfetto trace.
    TracedCampaign last;
    double untracedS = 0.0, tracedS = 0.0, lastS = 0.0;
    int reps = 0;
    std::uint64_t start = timing::steadyNowNs();
    std::vector<Fig3Round> first;
    do {
        std::vector<Fig3Round> plain;
        lastS = 0.0;
        for (const auto &tasks : campaign.rounds) {
            plain.push_back(runFig3Round(engine, tasks));
            untracedS += plain.back().wallS;
            lastS += plain.back().wallS;
        }
        gateFig3Rounds(report, plain, first, campaign.intervals);
        if (first.empty())
            first = std::move(plain);

        last = TracedCampaign{};
        for (std::size_t r = 0; r < campaign.rounds.size(); ++r) {
            TracedCampaign round =
                runTracedCampaign(submittedTasks(campaign, r), workers);
            tracedS += round.wallS;
            lastS += round.wallS;
            gateFig3(report, round.tasks, first[r].tasks,
                     campaign.intervals, "traced series");
            harnessLedgers.push_back(round.harness);
            ledgers.insert(ledgers.end(), round.ledgers.begin(),
                           round.ledgers.end());
            last.tasks.insert(last.tasks.end(), round.tasks.begin(),
                              round.tasks.end());
            last.ledgers.insert(last.ledgers.end(),
                                round.ledgers.begin(),
                                round.ledgers.end());
        }
        ++reps;
    } while (fitsWindow(start, lastS, opts));

    report.metrics =
        layerMetrics(ledgers, reps, ServeLedger{}, 1, harnessLedgers,
                     clockNs, tracedS / untracedS);

    obs::TraceWriter trace;
    trace.setProcessName("avf_perfbench " + opts.workload);
    addTaskSpans(trace, last.tasks, last.ledgers, clockNs);
    writeTrace(opts, trace, report);
}

// ------------------------------------------------------------------ //
// serve_rootcause                                                     //
// ------------------------------------------------------------------ //

/** One campaign through serve::runCampaignFresh. */
struct ServeRep
{
    double wallS = 0.0;
    ServeOutcome outcome;
};

/**
 * Run @p spec fresh in a new state directory with @p run (the
 * public entry point or the traced steps), gate its files, and keep
 * the directory for the caller when @p keepDir is non-null.
 */
ServeRep
runServeRep(const Options &opts, const serve::CampaignSpec &spec,
            Report &report,
            const std::function<bool(const serve::StatePaths &,
                                     std::string &)> &run,
            std::string *keepDir = nullptr)
{
    ServeRep rep;
    report.attempted += spec.numSlices();
    std::string dir = makeStateDir(opts.outDir);
    if (dir.empty()) {
        report.fail(spec.numSlices(), "mkdtemp failed under " +
                                          opts.outDir);
        return rep;
    }
    serve::StatePaths paths(dir);
    std::string error;
    std::uint64_t t0 = timing::steadyNowNs();
    bool ok = run(paths, error);
    rep.wallS = secondsSince(t0);
    rep.outcome = readServeOutcome(spec, paths);
    if (!ok && rep.outcome.errorText.empty())
        rep.outcome.errorText = error;
    if (!rep.outcome.errorText.empty()) {
        std::uint64_t done = std::min(rep.outcome.slicesDone,
                                      spec.numSlices());
        report.fail(std::max<std::uint64_t>(1, spec.numSlices() - done),
                    "serve campaign: " + rep.outcome.errorText);
    }
    if (keepDir)
        *keepDir = dir;
    else
        removeStateDir(dir);
    return rep;
}

/** The public entry point, runCampaignFresh. */
std::function<bool(const serve::StatePaths &, std::string &)>
freshRun(const serve::CampaignSpec &spec, int workers)
{
    return [&spec, workers](const serve::StatePaths &paths,
                            std::string &error) {
        return serve::runCampaignFresh(spec, paths, workers, error);
    };
}

/**
 * Count a serve rep that does not reproduce the first measured one;
 * the first becomes @p first.
 */
void
gateServeSeries(Report &report, ServeRep rep, ServeRep &first,
                const serve::CampaignSpec &spec)
{
    if (!rep.outcome.errorText.empty())
        return; // already counted
    if (first.outcome.intervals.empty()) {
        first = std::move(rep);
        return;
    }
    harness::ExperimentResult a, b;
    a.intervals = rep.outcome.intervals;
    b.intervals = first.outcome.intervals;
    if (!sameIntervals(a, b))
        report.fail(spec.numSlices(),
                    "serve feed differs from the first campaign");
}

/**
 * Time @p count serve set-ups into @p out: a fresh state directory,
 * prepareCampaign until the campaign is durable, and every slice's
 * simulator, built in turn.
 */
void
sampleServeSetups(const Options &opts, const serve::CampaignSpec &spec,
                  int count, std::vector<double> &out, Report &report)
{
    for (int i = 0; i < count; ++i) {
        std::uint64_t t0 = timing::steadyNowNs();
        std::string dir = makeStateDir(opts.outDir);
        std::string error;
        bool ok = !dir.empty() &&
                  serve::prepareCampaign(spec, serve::StatePaths(dir),
                                         error);
        buildRosters(sliceTasks(spec));
        out.push_back(secondsSince(t0));
        if (!ok)
            report.fail(0, "prepareCampaign failed: " + error);
        removeStateDir(dir);
    }
}

void
runServeUntraced(const Options &opts, Report &report)
{
    const int workers = workerCount();
    const serve::CampaignSpec spec =
        makeServeSpec(opts.seed, Size::Measured);
    const serve::CampaignSpec warmSpec =
        makeServeSpec(opts.seed, Size::WarmUp);

    runServeRep(opts, warmSpec, report, freshRun(warmSpec, workers));

    // A group of set-ups before every measured campaign and after
    // the last, until setupSamples are taken.
    std::vector<double> setups;
    ServeRep first;
    std::vector<double> rates;
    double lastS = 0.0;
    std::uint64_t start = timing::steadyNowNs();
    do {
        sampleServeSetups(opts, spec, serveSetupGroup, setups, report);
        ServeRep rep =
            runServeRep(opts, spec, report, freshRun(spec, workers));
        if (rep.outcome.errorText.empty())
            rates.push_back(static_cast<double>(rep.outcome.cycles) /
                            rep.wallS * 1e-6);
        lastS = rep.wallS;
        gateServeSeries(report, std::move(rep), first, spec);
    } while (fitsWindow(start, lastS, opts));
    sampleServeSetups(
        opts, spec,
        std::max(serveSetupGroup,
                 setupSamples - static_cast<int>(setups.size())),
        setups, report);

    report.metrics = {
        {"sim_mcycles_per_s", "Mcycles/s", median(rates)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mb", "MB", peakRssMb(true)},
    };
    for (const auto &m :
         accuracyMetrics(accuracyOf({&first.outcome.intervals})))
        report.metrics.push_back(m);
}

/** Attribution tables compared through their canonical JSON. */
bool
sameAttribution(const obs::AttributionSnapshot &a,
                const obs::AttributionSnapshot &b)
{
    std::ostringstream ja, jb;
    a.writeJson(ja);
    b.writeJson(jb);
    return a.enabled == b.enabled && ja.str() == jb.str();
}

void
runServeTraced(const Options &opts, Report &report)
{
    const int workers = workerCount();
    const double clockNs = calibrateClockNs();
    const serve::CampaignSpec spec =
        makeServeSpec(opts.seed, Size::Measured);
    const serve::CampaignSpec warmSpec =
        makeServeSpec(opts.seed, Size::WarmUp);

    runServeRep(opts, warmSpec, report, freshRun(warmSpec, workers));
    ServeRep first;

    obs::TraceWriter trace;
    trace.setProcessName("avf_perfbench " + opts.workload);
    trace.setThreadName(0, "serve");
    ServeLedger serveLedger;
    std::vector<harness::ExperimentResult> slices;
    double untracedS = 0.0, tracedS = 0.0, lastS = 0.0;
    int reps = 0;
    std::uint64_t start = timing::steadyNowNs();
    do {
        std::string plainDir, tracedDir;
        // runCampaignFresh's own batches and forks, watched from
        // outside; the traced loop must dispatch the same.
        Dispatch seen, looped;
        ServeRep plain = runServeRep(
            opts, spec, report,
            [&](const serve::StatePaths &paths, std::string &error) {
                DispatchWatch watch(spec, paths);
                return serve::runCampaignFresh(spec, paths, workers,
                                               error) &&
                       watch.finish(seen, error);
            },
            &plainDir);
        untracedS += plain.wallS;
        bool plainOk = plain.outcome.errorText.empty();
        gateServeSeries(report, std::move(plain), first, spec);

        slices.clear();
        ServeRep traced = runServeRep(
            opts, spec, report,
            [&](const serve::StatePaths &paths, std::string &error) {
                return runTracedServeCampaign(spec, paths, workers,
                                              serveLedger, slices,
                                              trace, 0, looped, error);
            },
            &tracedDir);
        tracedS += traced.wallS;
        if (plainOk && traced.outcome.errorText.empty() &&
            !(seen == looped))
            report.fail(spec.numSlices(),
                        "traced serve loop ran " +
                            std::to_string(looped.batches) +
                            " batches / " + std::to_string(looped.forks) +
                            " forks, runCampaignFresh " +
                            std::to_string(seen.batches) + " / " +
                            std::to_string(seen.forks));
        serveLedger.dispatch.batches += seen.batches;
        serveLedger.dispatch.forks += seen.forks;
        serve::StatePaths a(plainDir), b(tracedDir);
        if (!sameFileBytes(a.feedPath(spec.name),
                           b.feedPath(spec.name)) ||
            !sameFileBytes(a.checkpointPath(spec.name),
                           b.checkpointPath(spec.name)))
            report.fail(spec.numSlices(),
                        "traced serve feed/checkpoint differs from "
                        "runCampaignFresh's");
        removeStateDir(plainDir);
        removeStateDir(tracedDir);
        ++reps;
        lastS = plain.wallS + traced.wallS;
    } while (fitsWindow(start, lastS, opts));

    // Per-layer replay: every slice of the last traced campaign again,
    // in process, through the proxied roster, and untraced, as the
    // workers run them. Both must reproduce the slice results the
    // workers sent over the wire.
    const TaskList tasks = sliceTasks(spec);
    TracedCampaign replayed = runTracedCampaign(tasks, workers);
    harness::RunOptions options;
    options.threads = static_cast<unsigned>(workers);
    harness::ExperimentEngine engine(options);
    std::uint64_t t0 = timing::steadyNowNs();
    for (const auto &[name, config] : tasks)
        engine.submit(name, [&config = config] {
            return harness::detail::runExperimentDirect(config);
        });
    const std::vector<harness::TaskResult> plainReplay = engine.collect();
    const double plainReplayS = secondsSince(t0);

    const auto &replay = replayed.tasks;
    report.attempted += replay.size();
    for (std::size_t i = 0; i < replay.size(); ++i) {
        std::string why = checkTask(
            replay[i], spec.sliceLength(static_cast<std::uint64_t>(i)));
        if (why.empty() &&
            (i >= slices.size() ||
             !sameIntervals(replay[i].result, slices[i]) ||
             !sameIntervals(plainReplay[i].result, slices[i]) ||
             !sameAttribution(replay[i].result.attribution,
                              slices[i].attribution)))
            why = replay[i].name +
                  ": replayed slice differs from the worker's result";
        if (!why.empty())
            report.fail(1, why);
    }
    // Traced wall time covers both halves of the per-layer figures:
    // the serve steps and the proxied replay.
    report.metrics = layerMetrics(
        replayed.ledgers, 1, serveLedger, reps, {replayed.harness},
        clockNs,
        (tracedS / reps + replayed.wallS) /
            (untracedS / reps + plainReplayS));
    addTaskSpans(trace, replay, replayed.ledgers, clockNs);
    writeTrace(opts, trace, report);
}

// ------------------------------------------------------------------ //
// Command line and output                                             //
// ------------------------------------------------------------------ //

bool
parseU64(const char *text, std::uint64_t &out)
{
    if (!text || !*text || *text == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    bool haveWorkload = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            return false;
        const char *flag = argv[i];
        const char *value = argv[i + 1];
        std::uint64_t number = 0;
        if (std::strcmp(flag, "--workload") == 0) {
            opts.workload = value;
            haveWorkload = knownWorkload(opts.workload);
        } else if (std::strcmp(flag, "--seed") == 0) {
            if (!parseU64(value, opts.seed))
                return false;
        } else if (std::strcmp(flag, "--seconds") == 0) {
            if (!parseU64(value, number) || number < 1 || number > 600)
                return false;
            opts.seconds = static_cast<double>(number);
        } else if (std::strcmp(flag, "--trace") == 0) {
            if (!parseU64(value, number) || number > 1)
                return false;
            opts.trace = number == 1;
        } else if (std::strcmp(flag, "--out-dir") == 0) {
            opts.outDir = value;
        } else {
            return false;
        }
    }
    return haveWorkload;
}

void
printReport(const Options &opts, const Report &report)
{
    for (const auto &why : report.errors)
        std::printf("FAILED: %s\n", why.c_str());
    auto line = [&](const Metric &m) {
        std::printf("%-16s %-26s %.6g %s\n", opts.workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
    };
    for (const auto &m : report.metrics)
        line(m);
    double rate = report.attempted
                      ? static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted)
                      : 1.0;
    line({"error_rate", "ratio", rate});

    std::string json = "{\"correct\": ";
    json += report.errors.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

} // namespace avf::perfbench

int
main(int argc, char **argv)
{
    using namespace avf::perfbench;
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: avf_perfbench --workload "
                     "fig3_serial|fig3_default|serve_rootcause "
                     "--seed N --seconds S --trace 0|1 "
                     "[--out-dir DIR]\n");
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(opts.outDir, ec);

    Report report;
    if (isFig3(opts.workload))
        (opts.trace ? runFig3Traced : runFig3Untraced)(opts, report);
    else
        (opts.trace ? runServeTraced : runServeUntraced)(opts, report);
    printReport(opts, report);
    return report.errors.empty() ? 0 : 1;
}
