/**
 * @file
 * Online AVF estimator for the data TLB — the experiment the paper
 * could not afford (footnote 1: a reasonable M for TLBs is close to
 * one million cycles, so one AVF estimate costs a billion cycles of
 * simulation; our simulator is fast enough to demonstrate the effect
 * directly). TlbAvfEstimator is a WindowedEstimator over the dTLB
 * entry slots (Site::Kind::Dtlb): Algorithm 1 verbatim, with failure
 * when a load or store retires having used the corrupted translation.
 * It injects on one lane of a private port.
 */

#ifndef AVF_CORE_TLB_ESTIMATOR_HH
#define AVF_CORE_TLB_ESTIMATOR_HH

#include <cstdint>
#include <string>

#include "core/windowed_estimator.hh"
#include "cpu/pipeline.hh"
#include "util/types.hh"

namespace avf::core
{

/** Estimator parameters for the TLB experiment. */
struct TlbEstimatorConfig
{
    /** Wait window in cycles (TLBs need very large values). */
    Cycle m = 100'000;
    /** Injections per estimate. */
    std::uint32_t n = 100;
};

/** Algorithm 1 pointed at the dTLB. */
class TlbAvfEstimator : public WindowedEstimator
{
  public:
    TlbAvfEstimator(cpu::Pipeline &pipe,
                    TlbEstimatorConfig config = TlbEstimatorConfig{});

    /** "online:dtlb". */
    std::string name() const override;

    /** Mean of all completed estimates (0 when none). */
    double meanEstimate() const;
};

} // namespace avf::core

#endif // AVF_CORE_TLB_ESTIMATOR_HH
