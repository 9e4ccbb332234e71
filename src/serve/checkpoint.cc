#include "serve/checkpoint.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "harness/export.hh"
#include "harness/task_codec.hh"
#include "util/json.hh"

namespace avf::serve
{

namespace
{

using harness::codec::appendExactDouble;

void
appendUint(std::string &out, std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out += buf;
}

void
appendString(std::string &out, std::string_view text)
{
    out += '"';
    out += harness::jsonEscape(text);
    out += '"';
}

void
appendDoubles(std::string &out, const double *values,
              std::size_t count)
{
    out += '[';
    for (std::size_t i = 0; i < count; ++i) {
        if (i)
            out += ',';
        appendExactDouble(out, values[i]);
    }
    out += ']';
}

bool
fail(std::string &errorOut, const std::string &what)
{
    errorOut = "checkpoint: " + what;
    return false;
}

bool
readUint(const json::Value &object, const char *key,
         std::uint64_t &out, std::string &errorOut)
{
    const json::Value *value = object.find(key);
    if (!value || !value->isNumber())
        return fail(errorOut, std::string("missing number '") + key +
                                  "'");
    out = value->asUint();
    return true;
}

bool
readFixedDoubles(const json::Value &object, const char *key,
                 double *out, std::size_t count,
                 std::string &errorOut)
{
    const json::Value *value = object.find(key);
    if (!value || !value->isArray() || value->items.size() != count)
        return fail(errorOut, std::string("bad array '") + key + "'");
    for (std::size_t i = 0; i < count; ++i) {
        if (!value->items[i].isNumber())
            return fail(errorOut,
                        std::string("non-number in '") + key + "'");
        out[i] = value->items[i].asDouble();
    }
    return true;
}

} // namespace

std::string
encodeCheckpoint(const Checkpoint &checkpoint)
{
    const CampaignSpec &c = checkpoint.campaign;
    std::string out;
    out.reserve(512);
    out += "{\"v\":\"";
    out += checkpointSchemaVersion;
    out += "\",\"campaign\":{\"name\":";
    appendString(out, c.name);
    out += ",\"benchmark\":";
    appendString(out, c.benchmark);
    out += ",\"intervals\":";
    appendUint(out, static_cast<std::uint64_t>(c.intervals));
    out += ",\"slice_intervals\":";
    appendUint(out, static_cast<std::uint64_t>(c.sliceIntervals));
    out += ",\"m\":";
    appendUint(out, c.m);
    out += ",\"n\":";
    appendUint(out, c.n);
    out += ",\"lanes\":";
    appendUint(out, static_cast<std::uint64_t>(c.lanes));
    out += ",\"seed_salt\":";
    appendUint(out, c.seedSalt);
    out += ",\"checkpoint_every\":";
    appendUint(out,
               static_cast<std::uint64_t>(c.checkpointEverySlices));
    out += ",\"metrics\":";
    out += c.metrics ? "true" : "false";
    out += ",\"root_cause\":";
    out += c.rootCause ? "true" : "false";
    out += "},\"slices_done\":";
    appendUint(out, checkpoint.slicesDone);
    out += ",\"feed_bytes\":";
    appendUint(out, checkpoint.feedBytes);
    out += ",\"complete\":";
    out += checkpoint.complete ? "true" : "false";

    const CampaignRollup &r = checkpoint.rollup;
    out += ",\"rollup\":{\"intervals\":";
    appendUint(out, r.intervals);
    out += ",\"slices\":";
    appendUint(out, r.slices);
    out += ",\"online_sum\":";
    appendDoubles(out, r.onlineSum.data(), r.onlineSum.size());
    out += ",\"softarch_sum\":";
    appendDoubles(out, r.softarchSum.data(), r.softarchSum.size());
    out += ",\"utilization_sum\":";
    appendDoubles(out, r.utilizationSum.data(),
                  r.utilizationSum.size());
    out += ",\"occupancy_sum\":";
    appendExactDouble(out, r.occupancySum);
    out += ",\"cycles\":";
    appendUint(out, r.cycles);
    out += ",\"retired\":";
    appendUint(out, r.retired);
    out += ",\"injections\":";
    appendUint(out, r.injections);
    out += ",\"failures\":";
    appendUint(out, r.failures);
    out += "},\"states\":[";
    for (std::size_t i = 0; i < checkpoint.lastStates.size(); ++i) {
        if (i)
            out += ',';
        harness::codec::appendEstimatorState(
            out, checkpoint.lastStates[i]);
    }
    out += ']';
    if (checkpoint.metricsTotals.enabled) {
        out += ",\"metrics\":";
        harness::codec::appendMetricsSnapshot(
            out, checkpoint.metricsTotals);
    }
    if (checkpoint.attributionTotals.enabled) {
        out += ",\"attribution\":";
        harness::codec::appendAttributionSnapshot(
            out, checkpoint.attributionTotals);
    }
    out += '}';
    return out;
}

bool
decodeCheckpoint(std::string_view text, Checkpoint &out,
                 std::string &errorOut)
{
    json::Value doc;
    std::string parseError;
    if (!json::parse(text, doc, parseError))
        return fail(errorOut, parseError);
    if (!doc.isObject())
        return fail(errorOut, "top level not an object");
    const json::Value *version =
        doc.find("v", json::Value::Kind::String);
    if (!version || version->text != checkpointSchemaVersion)
        return fail(errorOut, "unknown checkpoint version");

    out = Checkpoint{};
    const json::Value *campaign = doc.find("campaign");
    if (!campaign || !campaign->isObject())
        return fail(errorOut, "missing campaign");
    // The protocol's own validation: a corrupt checkpoint must not
    // resume a campaign a submit request could not have started.
    std::string campaignError;
    if (!parseCampaign(*campaign, out.campaign, campaignError))
        return fail(errorOut, "campaign " + campaignError);

    if (!readUint(doc, "slices_done", out.slicesDone, errorOut) ||
        !readUint(doc, "feed_bytes", out.feedBytes, errorOut))
        return false;
    const json::Value *complete = doc.find("complete");
    if (!complete || !complete->isBool())
        return fail(errorOut, "missing complete flag");
    out.complete = complete->boolean;

    const json::Value *rollup = doc.find("rollup");
    if (!rollup || !rollup->isObject())
        return fail(errorOut, "missing rollup");
    CampaignRollup &r = out.rollup;
    const json::Value *occupancy = rollup->find("occupancy_sum");
    if (!readUint(*rollup, "intervals", r.intervals, errorOut) ||
        !readUint(*rollup, "slices", r.slices, errorOut) ||
        !readFixedDoubles(*rollup, "online_sum", r.onlineSum.data(),
                          r.onlineSum.size(), errorOut) ||
        !readFixedDoubles(*rollup, "softarch_sum",
                          r.softarchSum.data(), r.softarchSum.size(),
                          errorOut) ||
        !readFixedDoubles(*rollup, "utilization_sum",
                          r.utilizationSum.data(),
                          r.utilizationSum.size(), errorOut) ||
        !readUint(*rollup, "cycles", r.cycles, errorOut) ||
        !readUint(*rollup, "retired", r.retired, errorOut) ||
        !readUint(*rollup, "injections", r.injections, errorOut) ||
        !readUint(*rollup, "failures", r.failures, errorOut))
        return false;
    if (!occupancy || !occupancy->isNumber())
        return fail(errorOut, "rollup missing occupancy_sum");
    r.occupancySum = occupancy->asDouble();

    const json::Value *states = doc.find("states");
    if (!states || !states->isArray())
        return fail(errorOut, "missing states");
    out.lastStates.clear();
    out.lastStates.reserve(states->items.size());
    for (const auto &item : states->items) {
        core::EstimatorState state;
        if (!harness::codec::decodeEstimatorState(item, state,
                                                  errorOut))
            return false;
        out.lastStates.push_back(std::move(state));
    }
    if (const json::Value *metrics = doc.find("metrics")) {
        if (!harness::codec::decodeMetricsSnapshot(
                *metrics, out.metricsTotals, errorOut))
            return false;
    }
    if (const json::Value *attr = doc.find("attribution")) {
        if (!harness::codec::decodeAttributionSnapshot(
                *attr, out.attributionTotals, errorOut))
            return false;
    }
    return true;
}

bool
saveCheckpoint(const Checkpoint &checkpoint, const std::string &path,
               std::string &errorOut)
{
    const std::string text = encodeCheckpoint(checkpoint);
    const std::string tmp = path + ".tmp";
    std::FILE *stream = std::fopen(tmp.c_str(), "wb");
    if (!stream) {
        errorOut = "checkpoint '" + tmp +
                   "': open failed: " + std::strerror(errno);
        return false;
    }
    bool ok =
        std::fwrite(text.data(), 1, text.size(), stream) ==
            text.size() &&
        std::fputc('\n', stream) != EOF &&
        std::fflush(stream) == 0 &&
        ::fsync(::fileno(stream)) == 0;
    if (std::fclose(stream) != 0)
        ok = false;
    if (!ok) {
        errorOut = "checkpoint '" + tmp +
                   "': write failed: " + std::strerror(errno);
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        errorOut = "checkpoint '" + path +
                   "': rename failed: " + std::strerror(errno);
        return false;
    }
    return true;
}

bool
loadCheckpoint(const std::string &path, Checkpoint &out,
               std::string &errorOut)
{
    std::FILE *stream = std::fopen(path.c_str(), "rb");
    if (!stream) {
        errorOut = "checkpoint '" + path +
                   "': open failed: " + std::strerror(errno);
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, stream)) > 0)
        text.append(buf, got);
    bool readOk = std::ferror(stream) == 0;
    if (std::fclose(stream) != 0)
        readOk = false;
    if (!readOk) {
        errorOut = "checkpoint '" + path +
                   "': read failed: " + std::strerror(errno);
        return false;
    }
    return decodeCheckpoint(text, out, errorOut);
}

} // namespace avf::serve
