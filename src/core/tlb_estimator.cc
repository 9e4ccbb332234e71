#include "core/tlb_estimator.hh"

namespace avf::core
{

namespace
{

/** Injection lane of the private port: clear of the four paper
 *  structures and FREG, which pin lanes 0..4. */
constexpr LaneId dtlbLane = 6;

} // namespace

TlbAvfEstimator::TlbAvfEstimator(cpu::Pipeline &pipe,
                                 TlbEstimatorConfig config)
    : WindowedEstimator(pipe, Site{.kind = Site::Kind::Dtlb},
                        OnlineConfig{.m = config.m, .n = config.n,
                                     .lanes = 1},
                        nullptr, dtlbLane)
{
}

std::string
TlbAvfEstimator::name() const
{
    return "online:dtlb";
}

double
TlbAvfEstimator::meanEstimate() const
{
    if (estimates().empty())
        return 0.0;
    double sum = 0.0;
    for (double v : estimates())
        sum += v;
    return sum / static_cast<double>(estimates().size());
}

} // namespace avf::core
