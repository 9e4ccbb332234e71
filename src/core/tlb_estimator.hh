/**
 * @file
 * Online AVF estimator for the data TLB — the experiment the paper
 * could not afford (footnote 1: a reasonable M for TLBs is close to
 * one million cycles, so one AVF estimate costs a billion cycles of
 * simulation; our simulator is fast enough to demonstrate the effect
 * directly). The machinery is Algorithm 1 verbatim: round-robin
 * injections into TLB entry slots, a wait window of M cycles, and
 * failure when a load or store retires having used the corrupted
 * translation. Injections go through the shared InjectionPort API
 * (Site::Kind::Dtlb sites) on a single reserved lane.
 */

#ifndef AVF_CORE_TLB_ESTIMATOR_HH
#define AVF_CORE_TLB_ESTIMATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/avf_estimator.hh"
#include "core/injection_port.hh"
#include "cpu/observer.hh"
#include "cpu/pipeline.hh"
#include "util/interval_ticker.hh"
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
    /** Injection lane to reserve (keep clear of the four paper
     *  structures and FREG, which pin lanes 0..4). */
    int channel = 6;
};

/** Algorithm 1 pointed at the dTLB. */
class TlbAvfEstimator : public AvfEstimator
{
  public:
    /**
     * @param sharedPort port to reserve the injection lane from;
     *        nullptr makes the estimator own a private port (it then
     *        forwards its own onRetire to it).
     */
    TlbAvfEstimator(cpu::Pipeline &pipe,
                    TlbEstimatorConfig config = TlbEstimatorConfig{},
                    InjectionPort *sharedPort = nullptr);

    /** Cycle; Retire too when the estimator owns a private port. */
    unsigned
    hooks() const override
    {
        return ownedPort ? cpu::hookRetire | cpu::hookCycle
                         : cpu::hookCycle;
    }
    Cycle wakeAt() const override { return boundaryTick.due(); }
    void onRetire(const cpu::DynInstr &instr,
                  const cpu::RetireInfo &info) override;
    void onCycle(Cycle now) override;

    /** "online:dtlb". */
    std::string name() const override;

    /** Completed AVF estimates (one per N windows). */
    const std::vector<double> &estimates() const override
    {
        return results;
    }

    /** Mean of all completed estimates (0 when none). */
    double meanEstimate() const;

    /** Failures/injections of the still-open estimate. */
    double partialAvf() const override;

    /** Total injections fired. */
    std::uint64_t totalInjections() const { return lifetimeInjections; }

    /**
     * Counters, cursor, and completed estimates; the open window
     * itself is not captured (see EstimatorState).
     */
    EstimatorState snapshotState() const override;
    void restoreState(const EstimatorState &state) override;

  private:
    cpu::Pipeline &pipeline;
    TlbEstimatorConfig conf;
    IntervalTicker boundaryTick;

    InjectionPort *portPtr = nullptr;
    std::unique_ptr<InjectionPort> ownedPort;
    LaneId lane = -1;
    WindowHandle handle;
    bool windowOpen = false;
    std::uint32_t injections = 0;
    std::uint32_t failures = 0;
    std::uint64_t lifetimeInjections = 0;
    int cursor = 0;
    std::vector<double> results;
};

} // namespace avf::core

#endif // AVF_CORE_TLB_ESTIMATOR_HH
