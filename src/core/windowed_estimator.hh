/**
 * @file
 * The one window engine: Algorithm 1's M-cycle tagged-window protocol,
 * lane-parallel over the InjectionPort, written once for every
 * estimator family that injects.
 *
 * Every M cycles the engine closes its open injection windows, sweeps
 * its lanes clean in one batched clearLanes(), and opens up to
 * `lanes` new tagged windows at the next round-robin sites of its
 * target (a SiteCursor over the port's slot table). Program execution
 * propagates each lane's bit independently; a window whose bit
 * reaches a retiring load, store, or branch before the boundary
 * counts as a failure. After N windows,
 *
 *     AVF ~= failureCount / N,
 *
 * and a new estimation interval begins. With one lane the behavior is
 * exactly the paper's serial Algorithm 1: one injection per M-cycle
 * window, one estimate per M*N cycles. With L lanes, L windows run
 * concurrently per boundary and an estimate needs only ceil(N/L)
 * boundaries; the last boundary of an interval opens only the
 * windows the interval still needs, so it closes on exactly N.
 *
 * Subclasses supply a name(), the target site, and optional per-
 * window notifications (windowOpened / windowClosed): the online
 * estimators feed a lifecycle sink there, the coverage probes the
 * attribution tracker, the dTLB estimator nothing.
 */

#ifndef AVF_CORE_WINDOWED_ESTIMATOR_HH
#define AVF_CORE_WINDOWED_ESTIMATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/avf_estimator.hh"
#include "core/injection_port.hh"
#include "cpu/observer.hh"
#include "cpu/pipeline.hh"
#include "util/interval_ticker.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace avf::core
{

/** Window protocol parameters (defaults = the paper's M = N = 1000). */
struct OnlineConfig
{
    /** Cycles between successive injections (the wait window M). */
    Cycle m = 1000;
    /** Injections per AVF estimate (the sample count N). */
    std::uint32_t n = 1000;
    /**
     * When true, the injection fires at a uniformly random cycle
     * within each M-cycle window instead of at the window start.
     * Used by the sampling ablation (Section 3.3 discusses the
     * fixed-interval approximation of random sampling).
     */
    bool randomizeInjectionTiming = false;
    /**
     * IQ structure only: inject at field granularity (opcode +
     * three operand fields per entry) instead of whole-entry
     * granularity — Section 3.6's multiple-error-bits extension.
     * Unpopulated fields mask their injections, so the estimated
     * AVF is lower (less conservative) than whole-entry AVF.
     */
    bool fieldGranularIq = false;
    /** Seed for the randomized-timing mode. */
    std::uint64_t seed = 12345;
    /**
     * Concurrent injection windows (error-plane bit lanes) this
     * estimator keeps saturated. 0 means "inherit": the engine fills
     * it from RunOptions::lanes (AVF_LANES); a directly-constructed
     * estimator treats it as 1, the paper's serial Algorithm 1.
     * lanes = 1 reproduces serial behavior exactly; lanes = L closes
     * an N-injection interval in ceil(N/L) boundaries.
     */
    int lanes = 0;
};

/** Algorithm 1 over one target: the shared window loop. */
class WindowedEstimator : public AvfEstimator
{
  public:
    /** Cycle; Retire too when the estimator owns a private port. */
    unsigned hooks() const override;
    /** The next window boundary or scheduled injection. */
    Cycle wakeAt() const override;
    void onRetire(const cpu::DynInstr &instr,
                  const cpu::RetireInfo &info) override;
    void onCycle(Cycle now) override;

    /** Completed per-interval AVF estimates (one per N windows). */
    const std::vector<double> &estimates() const override
    {
        return results;
    }

    /** AVF over the windows completed so far in the open interval. */
    double partialAvf() const override;

    /**
     * Accumulated reporting state: interval and lifetime counters,
     * the round-robin cursor, and the completed estimates. In-flight
     * lane windows are not captured (see EstimatorState).
     */
    EstimatorState snapshotState() const override;
    void restoreState(const EstimatorState &state) override;

    /** Injections performed in the current (incomplete) interval. */
    std::uint32_t injectionsSoFar() const { return injections; }

    /** Failures observed in the current (incomplete) interval. */
    std::uint32_t failuresSoFar() const { return failures; }

    /** Total injections across all intervals. */
    std::uint64_t totalInjections() const { return lifetimeInjections; }

    /** Total failures across all closed windows (never reset). */
    std::uint64_t totalFailures() const { return lifetimeFailures; }

    /** Windows closed across all intervals (never reset). */
    std::uint64_t totalWindowsClosed() const { return windowsClosed; }

    /**
     * Injections that landed on an occupied entry / busy unit; the
     * complement was trivially masked. Diagnostic only.
     */
    std::uint64_t totalLiveInjections() const { return liveInjections; }

    /** Resolved concurrent-window count (config.lanes, 0 -> 1). */
    int laneCount() const { return static_cast<int>(slots.size()); }

    /** The port this estimator injects through. */
    const InjectionPort &port() const { return *portPtr; }

    /** Window boundaries needed to close one N-injection interval. */
    std::uint32_t
    boundariesPerEstimate() const
    {
        auto lanes = static_cast<std::uint32_t>(slots.size());
        return (conf.n + lanes - 1) / lanes;
    }

  protected:
    /**
     * @param pipe pipeline to instrument (attach is the caller's job).
     * @param target kind/structure whose slots the cursor walks.
     * @param config M/N, lane count, and timing options; the seed is
     *        used as given.
     * @param sharedPort port to reserve lanes from (attached to the
     *        pipeline before this estimator). nullptr makes the
     *        estimator own a private port whose first lane is pinned
     *        to @p pinnedLane; it then forwards its own onRetire.
     */
    WindowedEstimator(cpu::Pipeline &pipe, const Site &target,
                      const OnlineConfig &config,
                      InjectionPort *sharedPort, LaneId pinnedLane);

    /** A window opened on @p lane at @p site (@p live: occupied). */
    virtual void windowOpened(LaneId, const Site &, bool, Cycle) {}

    /** The window on @p lane closed at @p now with @p outcome. */
    virtual void windowClosed(LaneId, Cycle, const Outcome &) {}

  private:
    /** One concurrent injection window. */
    struct LaneSlot
    {
        LaneId lane = -1;
        WindowHandle handle;
        bool open = false;
        /** Randomized timing: injection pending within the window. */
        bool scheduled = false;
        Cycle injectAt = 0;
    };

    /** Fire one injection through the port on slot @p slot. */
    void openWindow(LaneSlot &slot, Cycle now);

    /** Close every open window, sweep lanes, open the next batch. */
    void windowBoundary(Cycle now);

    OnlineConfig conf;
    Rng rng;
    /** Fires at window boundaries (now % M == 0); its due cycle is
     *  the estimator's wake cycle between injections. */
    IntervalTicker boundaryTick;

    /** Port injected through; ownedPort when privately constructed. */
    std::unique_ptr<InjectionPort> ownedPort;
    InjectionPort *portPtr;
    /** Round-robin cursor over the target's slots. */
    SiteCursor sites;
    /** This estimator's windows, one per reserved lane, lane order. */
    std::vector<LaneSlot> slots;
    /** Union bit mask of the reserved lanes (boundary sweeps). */
    ErrorMask myLanes = 0;
    /** Slots with a pending randomized-timing injection. */
    int scheduledCount = 0;
    /** Windows opened since the current interval began. */
    std::uint32_t openedThisInterval = 0;

    std::uint32_t injections = 0;
    std::uint32_t failures = 0;
    std::uint64_t lifetimeInjections = 0;
    std::uint64_t lifetimeFailures = 0;
    std::uint64_t liveInjections = 0;
    std::uint64_t windowsClosed = 0;

    std::vector<double> results;
};

} // namespace avf::core

#endif // AVF_CORE_WINDOWED_ESTIMATOR_HH
