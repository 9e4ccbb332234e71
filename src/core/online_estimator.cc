#include "core/online_estimator.hh"

namespace avf::core
{

namespace
{

/** The structure's injection target (field-granular IQ on request). */
Site
targetSite(Structure structure, const OnlineConfig &config)
{
    Site site;
    site.structure = structure;
    if (structure == Structure::IQ && config.fieldGranularIq)
        site.field = 0;
    return site;
}

/** Salt the timing seed with the structure's channel so estimators
 *  of distinct structures draw independent schedules. */
OnlineConfig
salted(OnlineConfig config, Structure structure)
{
    config.seed ^= static_cast<std::uint64_t>(channelOf(structure));
    return config;
}

} // namespace

OnlineAvfEstimator::OnlineAvfEstimator(cpu::Pipeline &pipe,
                                       Structure structure,
                                       OnlineConfig config,
                                       InjectionPort *sharedPort)
    : WindowedEstimator(pipe, targetSite(structure, config),
                        salted(config, structure), sharedPort,
                        channelOf(structure)),
      target(structure)
{
}

std::string
OnlineAvfEstimator::name() const
{
    return "online:" + std::string(structureName(target));
}

void
OnlineAvfEstimator::windowOpened(LaneId lane, const Site &site,
                                 bool live, Cycle now)
{
    if (sink)
        sink->openRecord(target, lane, site.entry, site.field, live,
                         now);
}

void
OnlineAvfEstimator::windowClosed(LaneId lane, Cycle now,
                                 const Outcome &outcome)
{
    if (sink)
        sink->closeRecord(target, lane, now, outcome);
}

} // namespace avf::core
