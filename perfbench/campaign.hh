/**
 * @file
 * The three benchmark workloads, their correctness gate, and their
 * accuracy against SoftArch. BENCHMARK.json lists fig3_default and
 * serve_rootcause; fig3_serial runs by name the same way.
 *
 *  - fig3_serial: the Figure 3 campaign at lanes = 1 (the paper's
 *    serial Algorithm 1): 11 SPEC profiles, M = N = 1000,
 *    serialIntervals 1M-cycle intervals per app, 32k lookahead.
 *  - fig3_default: the same profiles under the default RunOptions
 *    (64 lanes, 12 per estimator, 84k-cycle intervals, clamped
 *    lookahead), with 12x the intervals so each app simulates about
 *    as many cycles as in fig3_serial.
 *  - serve_rootcause: one avf-serve campaign (mesa, serveIntervals
 *    intervals of 84k cycles in 2-interval slices, checkpoint after
 *    every slice, metrics and root-cause attribution on) through
 *    serve::runCampaignFresh.
 *
 * A fig3 campaign runs in fig3Rounds rounds, one engine batch each;
 * a round runs every app for 1/fig3Rounds of its intervals, with its
 * own seeds, the way avf-serve cuts a campaign into slices. An app's
 * series is its rounds' series laid end to end. Each round is timed
 * on its own, so a run holds fig3Rounds rate samples rather than one.
 *
 * The accuracy figures are maxima and means over one seed's synthetic
 * traces, so their spread across seeds shrinks only with simulated
 * cycles. A fig3 campaign is sized to fill one run of BENCHMARK.json's
 * run_seconds on a 4-vCPU host: rounds of about 3 s, and as many as
 * keep the median rate steady against the host's shifting load.
 * Each run first does a warm-up
 * round of one interval per app (12 for fig3_default; a tenth of the
 * campaign for serve), untimed.
 */

#ifndef AVF_PERFBENCH_CAMPAIGN_HH
#define AVF_PERFBENCH_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/engine.hh"
#include "serve/campaign.hh"
#include "serve/protocol.hh"

namespace avf::perfbench
{

/** 1M-cycle intervals per app in fig3_serial. */
inline constexpr int serialIntervals = 28;

/** Engine batches a fig3 campaign runs in; divides serialIntervals. */
inline constexpr int fig3Rounds = 14;

/** Estimation intervals of the serve_rootcause campaign. */
inline constexpr int serveIntervals = 96;

/** The measured campaign, or the smaller warm-up before it. */
enum class Size
{
    Measured,
    WarmUp
};

/** Named experiment configs, in submission order. */
using TaskList =
    std::vector<std::pair<std::string, harness::ExperimentConfig>>;

/** A fig3 workload: engine options plus each round's task configs. */
struct Fig3Campaign
{
    harness::RunOptions options;
    /**
     * Per round, one config per app in submission order, with its
     * seeds already derived and its lanes left to the options,
     * exactly as a bench submits them.
     */
    std::vector<TaskList> rounds;
    /** Intervals every task must complete. */
    int intervals = 0;
};

/** True for fig3_serial and fig3_default. */
bool isFig3(const std::string &workload);

/** True for every workload name the benchmark knows. */
bool knownWorkload(const std::string &workload);

/**
 * Build the fig3 campaign for @p workload: the task of round r and
 * app a takes its seeds from deriveTaskSeeds(config, @p seed,
 * r * apps + a), the engine's rule for submission index r * apps + a.
 * The warm-up is one round of one interval per app (12 at default
 * lanes).
 */
Fig3Campaign makeFig3Campaign(const std::string &workload,
                              std::uint64_t seed, int workers, Size size);

/**
 * One round's tasks as ExperimentEngine::submit(name, config) would
 * run them (lanes inherited), for callers that submit a TaskFn
 * instead.
 */
TaskList submittedTasks(const Fig3Campaign &campaign, std::size_t round);

/** The serve_rootcause campaign for @p seed. */
serve::CampaignSpec makeServeSpec(std::uint64_t seed, Size size);

/** Online-vs-SoftArch error over the paper's four structures. */
struct Accuracy
{
    /** Worst per-(app, structure) mean absolute error. */
    double worstMean = 0.0;
    /** Worst per-(app, structure) top-4-excluded max. */
    double worstMax = 0.0;
    /** Mean absolute error over every app, structure, interval. */
    double mean = 0.0;
};

/** One app's interval series: online and SoftArch AVF rows. */
using AppSeries = std::vector<harness::IntervalResult>;

/** Accuracy over @p apps, as fig3_accuracy's headline computes it. */
Accuracy accuracyOf(const std::vector<const AppSeries *> &apps);

/**
 * Correctness gate for one task: it ran, it completed
 * @p intervals intervals, and every AVF is finite and in [0, 1].
 * Returns an empty string when it passes.
 */
std::string checkTask(const harness::TaskResult &task, int intervals);

/** What one serve campaign produced, read back from its files. */
struct ServeOutcome
{
    /** Empty when every check passed. */
    std::string errorText;
    std::uint64_t cycles = 0;
    std::uint64_t slicesDone = 0;
    AppSeries intervals;
};

/**
 * Read the campaign's checkpoint and feed back from @p paths and
 * check them: the checkpoint is complete, its rollup covers every
 * interval of @p spec, and every feed interval row is present with
 * finite AVFs in [0, 1].
 */
ServeOutcome readServeOutcome(const serve::CampaignSpec &spec,
                              const serve::StatePaths &paths);

/** A fresh state directory under @p parent (mkdtemp); "" on error. */
std::string makeStateDir(const std::string &parent);

/** Remove @p dir and everything under it. */
void removeStateDir(const std::string &dir);

/** True when files @p a and @p b hold the same bytes. */
bool sameFileBytes(const std::string &a, const std::string &b);

} // namespace avf::perfbench

#endif // AVF_PERFBENCH_CAMPAIGN_HH
