#include "obs/coverage_probe.hh"

#include "obs/attribution.hh"
#include "util/logging.hh"

namespace avf::obs
{

namespace
{

core::Site
probeSite(CoverageTarget target)
{
    static constexpr core::Site::Kind kinds[numCoverageTargets] = {
        core::Site::Kind::FetchBuf, core::Site::Kind::RenameMap,
        core::Site::Kind::BranchPred};
    auto t = static_cast<int>(target);
    avf_assert(t >= 0 && t < numCoverageTargets,
               "coverage probe bound to invalid target %d", t);
    core::Site site;
    site.kind = kinds[t];
    return site;
}

} // namespace

std::string_view
coverageTargetName(CoverageTarget t)
{
    switch (t) {
      case CoverageTarget::FetchBuf: return "fetch_buf";
      case CoverageTarget::RenameMap: return "rename_map";
      case CoverageTarget::BranchPred: return "branch_pred";
      default: break;
    }
    panic("coverageTargetName(%d) out of range", static_cast<int>(t));
}

CoverageProbe::CoverageProbe(cpu::Pipeline &pipe,
                             core::InjectionPort &port,
                             AttributionTracker &tracker,
                             CoverageTarget target,
                             CoverageProbeConfig config)
    : core::WindowedEstimator(
          pipe, probeSite(target),
          core::OnlineConfig{.m = config.m, .n = config.n, .lanes = 1},
          &port, -1),
      attribution(tracker), probeTarget(target),
      unit(attribution.registerBlameUnit(
          std::string(coverageTargetName(target))))
{
}

std::string
CoverageProbe::name() const
{
    return "probe:" + std::string(coverageTargetName(probeTarget));
}

void
CoverageProbe::windowClosed(LaneId, Cycle, const core::Outcome &outcome)
{
    attribution.recordWindow(unit, outcome.openedAt, outcome.live,
                             outcome.failed, outcome.failPc,
                             outcome.failOp);
}

} // namespace avf::obs
