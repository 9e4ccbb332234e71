/**
 * @file
 * Extended-coverage injection probes: single-lane online estimators
 * for the structures the paper models but never estimates — the
 * fetch/instruction buffer, the rename map, and the branch predictor
 * counter table. Each probe runs the same M-cycle tagged-window
 * protocol as core::OnlineAvfEstimator (open at the boundary, read
 * the Outcome at the next, clear, re-open round-robin), through the
 * shared core::InjectionPort, so lane accounting and the
 * one-error-per-lane rule are identical.
 *
 * What distinguishes the three targets is how their bits leave the
 * machine:
 *  - fetch buffer: the error mask rides the buffered instruction into
 *    dispatch and from there behaves exactly like an IQ injection —
 *    it can fail at a retiring load/store/branch.
 *  - rename map: injecting a map slot corrupts the currently mapped
 *    physical register (always a live, occupied target), so failures
 *    surface through the ordinary register read-out path.
 *  - branch predictor: counter bits never enter the dataflow; the
 *    first counter update kills them (architecturally masked by
 *    construction). The probe observes the kill through the
 *    predictor's killed mask and reports AVF 0 — the point is the
 *    attribution row proving the mass is masked, not the estimate.
 *
 * Every closed window is charged to the AttributionTracker under the
 * probe's own blame unit ("fetch_buf", "rename_map", "branch_pred"),
 * giving `avf-report root-cause` visibility into the whole modeled
 * machine rather than just the five estimated structures.
 */

#ifndef AVF_OBS_COVERAGE_PROBE_HH
#define AVF_OBS_COVERAGE_PROBE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/avf_estimator.hh"
#include "core/injection_port.hh"
#include "util/interval_ticker.hh"
#include "util/types.hh"

namespace avf::cpu
{
class Pipeline;
}

namespace avf::obs
{

class AttributionTracker;

/** Structures covered by probes (beyond core::Structure). */
enum class CoverageTarget : int
{
    FetchBuf = 0,   ///< fetch/instruction buffer entries
    RenameMap = 1,  ///< rename map (arch -> phys) slots
    BranchPred = 2, ///< branch predictor counter table
    NumTargets
};

/** Number of probe targets. */
inline constexpr int numCoverageTargets =
    static_cast<int>(CoverageTarget::NumTargets);

/** Blame-unit / display name ("fetch_buf", ...). */
std::string_view coverageTargetName(CoverageTarget t);

/** Probe parameters (one M/N pair shared by the probe set). */
struct CoverageProbeConfig
{
    /** Injection window length in cycles. */
    Cycle m = 1000;
    /** Windows per completed AVF estimate. */
    std::uint32_t n = 100;
};

/**
 * One probe: a core::AvfEstimator over one CoverageTarget, one lane
 * of the shared injection port, feeding the attribution tracker
 * directly through recordWindow(). Attach with pipe.addObserver()
 * after the shared port, like any estimator.
 */
class CoverageProbe : public core::AvfEstimator
{
  public:
    CoverageProbe(cpu::Pipeline &pipe, core::InjectionPort &port,
                  AttributionTracker &tracker, CoverageTarget target,
                  CoverageProbeConfig config);

    // ---- cpu::PipelineObserver ----
    unsigned hooks() const override { return cpu::hookCycle; }
    Cycle wakeAt() const override { return boundaryTick.due(); }
    void onCycle(Cycle now) override;

    // ---- core::AvfEstimator ----
    std::string name() const override;
    const std::vector<double> &estimates() const override
    {
        return results;
    }
    double partialAvf() const override;
    core::EstimatorState snapshotState() const override;
    void restoreState(const core::EstimatorState &state) override;

    /** Probe target. */
    CoverageTarget target() const { return probeTarget; }

    /** Lane this probe injects on. */
    LaneId laneId() const { return lane; }

    /** Windows whose bit the target killed (branch predictor only:
     *  the architecturally-masked-by-construction count). */
    std::uint64_t killedWindows() const { return killed; }

  private:
    /** Slots in the probed structure (round-robin modulus). */
    int numSlots() const;

    /** Build the injection site for the current cursor. */
    core::Site siteAt(int slot) const;

    cpu::Pipeline &pipeline;
    core::InjectionPort &portRef;
    AttributionTracker &attribution;
    CoverageTarget probeTarget;
    CoverageProbeConfig conf;
    std::uint32_t unit = 0;

    IntervalTicker boundaryTick;
    LaneId lane = -1;
    core::WindowHandle handle;
    bool windowOpen = false;
    bool windowLive = false;
    Cycle openCycle = 0;
    int cursor = 0;
    std::uint32_t injections = 0;
    std::uint32_t failures = 0;
    std::uint64_t lifetimeInjections = 0;
    std::uint64_t lifetimeFailures = 0;
    std::uint64_t killed = 0;
    std::vector<double> results;
};

} // namespace avf::obs

#endif // AVF_OBS_COVERAGE_PROBE_HH
