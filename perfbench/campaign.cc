#include "campaign.hh"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "serve/checkpoint.hh"
#include "stats/error_metrics.hh"
#include "trace/spec_profiles.hh"
#include "util/json.hh"

namespace avf::perfbench
{

bool
isFig3(const std::string &workload)
{
    return workload == "fig3_serial" || workload == "fig3_default";
}

bool
knownWorkload(const std::string &workload)
{
    return isFig3(workload) || workload == "serve_rootcause";
}

Fig3Campaign
makeFig3Campaign(const std::string &workload, std::uint64_t seed,
                 int workers, Size size)
{
    Fig3Campaign campaign;
    campaign.options.threads = static_cast<unsigned>(workers);
    const bool measured = size == Size::Measured;
    const int rounds = measured ? fig3Rounds : 1;
    campaign.intervals = measured ? serialIntervals / fig3Rounds : 1;
    if (workload == "fig3_serial") {
        campaign.options.lanes = 1;
    } else {
        // Default lanes: 12 per estimator, so an interval is
        // M * ceil(N / 12) = 84k cycles and 12 of them span about as
        // many cycles as one serial 1M-cycle interval.
        campaign.intervals *= 12;
    }
    const auto &names = trace::specBenchmarkNames();
    for (int r = 0; r < rounds; ++r) {
        TaskList round;
        for (std::size_t a = 0; a < names.size(); ++a) {
            harness::ExperimentConfig config;
            config.profile = trace::specProfile(names[a]);
            config.numIntervals = campaign.intervals;
            harness::deriveTaskSeeds(
                config, seed,
                static_cast<std::size_t>(r) * names.size() + a);
            round.emplace_back(names[a], config);
        }
        campaign.rounds.push_back(std::move(round));
    }
    return campaign;
}

TaskList
submittedTasks(const Fig3Campaign &campaign, std::size_t round)
{
    TaskList tasks = campaign.rounds[round];
    for (auto &task : tasks)
        if (task.second.online.lanes == 0)
            task.second.online.lanes = campaign.options.lanes;
    return tasks;
}

serve::CampaignSpec
makeServeSpec(std::uint64_t seed, Size size)
{
    serve::CampaignSpec spec;
    spec.name = "perfbench";
    spec.benchmark = "mesa";
    spec.intervals = size == Size::Measured ? serveIntervals
                                            : serveIntervals / 10;
    spec.sliceIntervals = 2;
    spec.m = 1000;
    spec.n = 1000;
    // The slice seed rule needs a nonzero salt; seed 0 keeps the
    // protocol default.
    if (seed != 0)
        spec.seedSalt = seed;
    spec.metrics = true;
    spec.rootCause = true;
    return spec;
}

Accuracy
accuracyOf(const std::vector<const AppSeries *> &apps)
{
    Accuracy acc;
    double sum = 0.0;
    std::size_t count = 0;
    for (const AppSeries *app : apps) {
        for (int s = 0; s < core::numPaperStructures; ++s) {
            auto idx = static_cast<std::size_t>(s);
            std::vector<double> online, reference;
            for (const auto &row : *app) {
                online.push_back(row.online[idx]);
                reference.push_back(row.softarch[idx]);
            }
            auto errors = stats::absoluteErrors(online, reference);
            auto summary = stats::summarizeErrors(errors);
            acc.worstMean = std::max(acc.worstMean, summary.mean);
            acc.worstMax = std::max(acc.worstMax, summary.maxExcl);
            for (double e : errors)
                sum += e;
            count += errors.size();
        }
    }
    acc.mean = count ? sum / static_cast<double>(count) : 0.0;
    return acc;
}

namespace
{

bool
validAvf(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

/** Empty when every AVF of @p rows is finite and in [0, 1]. */
std::string
checkRows(const AppSeries &rows)
{
    for (std::size_t k = 0; k < rows.size(); ++k)
        for (int s = 0; s < core::numStructures; ++s) {
            auto idx = static_cast<std::size_t>(s);
            if (!validAvf(rows[k].online[idx]) ||
                !validAvf(rows[k].softarch[idx]))
                return "interval " + std::to_string(k) +
                       ": AVF not finite or outside [0, 1]";
        }
    return {};
}

/** Read one AVF array member of a feed row into @p out. */
bool
readAvfs(const json::Value &row, std::string_view key,
         std::array<double, core::numStructures> &out)
{
    const json::Value *arr = row.find(key, json::Value::Kind::Array);
    if (!arr || arr->items.size() != out.size())
        return false;
    for (std::size_t s = 0; s < out.size(); ++s) {
        if (!arr->items[s].isNumber())
            return false;
        out[s] = arr->items[s].asDouble();
    }
    return true;
}

} // namespace

std::string
checkTask(const harness::TaskResult &task, int intervals)
{
    if (!task.ok())
        return task.name + ": " + task.errorText;
    if (task.result.intervals.size() !=
        static_cast<std::size_t>(intervals))
        return task.name + ": " +
               std::to_string(task.result.intervals.size()) + " of " +
               std::to_string(intervals) + " intervals completed";
    std::string rows = checkRows(task.result.intervals);
    return rows.empty() ? rows : task.name + ": " + rows;
}

ServeOutcome
readServeOutcome(const serve::CampaignSpec &spec,
                 const serve::StatePaths &paths)
{
    ServeOutcome out;
    serve::Checkpoint checkpoint;
    if (!serve::loadCheckpoint(paths.checkpointPath(spec.name),
                               checkpoint, out.errorText))
        return out;
    out.cycles = checkpoint.rollup.cycles;
    out.slicesDone = checkpoint.slicesDone;
    if (!checkpoint.complete) {
        out.errorText = "checkpoint is not complete";
        return out;
    }
    if (checkpoint.rollup.intervals !=
        static_cast<std::uint64_t>(spec.intervals)) {
        out.errorText = "rollup holds " +
                    std::to_string(checkpoint.rollup.intervals) +
                    " intervals, spec asked for " +
                    std::to_string(spec.intervals);
        return out;
    }

    std::ifstream feed(paths.feedPath(spec.name));
    std::string line;
    bool summary = false;
    while (std::getline(feed, line)) {
        json::Value row;
        std::string error;
        if (!json::parse(line, row, error)) {
            out.errorText = "feed row: " + error;
            return out;
        }
        if (row.find("summary"))
            summary = true;
        const json::Value *index =
            row.find("interval", json::Value::Kind::Uint);
        if (!index)
            continue;
        if (index->uintValue != out.intervals.size()) {
            out.errorText = "feed interval rows out of order";
            return out;
        }
        harness::IntervalResult result;
        if (!readAvfs(row, "online", result.online) ||
            !readAvfs(row, "softarch", result.softarch)) {
            out.errorText = "feed interval row lacks its AVFs";
            return out;
        }
        out.intervals.push_back(result);
    }
    if (out.intervals.size() !=
        static_cast<std::size_t>(spec.intervals))
        out.errorText = "feed holds " +
                    std::to_string(out.intervals.size()) +
                    " interval rows, spec asked for " +
                    std::to_string(spec.intervals);
    else if (!summary)
        out.errorText = "feed has no summary row";
    else
        out.errorText = checkRows(out.intervals);
    return out;
}

std::string
makeStateDir(const std::string &parent)
{
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    std::string templ = parent + "/serve-XXXXXX";
    if (!::mkdtemp(templ.data()))
        return {};
    return templ;
}

void
removeStateDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

bool
sameFileBytes(const std::string &a, const std::string &b)
{
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    if (!fa || !fb)
        return false;
    std::string ba((std::istreambuf_iterator<char>(fa)),
                   std::istreambuf_iterator<char>());
    std::string bb((std::istreambuf_iterator<char>(fb)),
                   std::istreambuf_iterator<char>());
    return ba == bb;
}

} // namespace avf::perfbench
