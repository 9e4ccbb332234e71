/**
 * @file
 * The paper's contribution: Algorithm 1, the online AVF estimator.
 * OnlineAvfEstimator is a WindowedEstimator over the entries (storage
 * structures) or units (logic structures) of one core::Structure:
 * round-robin injection sites, the paper's hardware-friendly
 * approximation of random sampling, with the window protocol and its
 * lane parallelism in core/windowed_estimator.hh. With one lane (the
 * default for directly-constructed estimators) it is exactly the
 * paper's serial Algorithm 1.
 */

#ifndef AVF_CORE_ONLINE_ESTIMATOR_HH
#define AVF_CORE_ONLINE_ESTIMATOR_HH

#include <string>

#include "core/injection_port.hh"
#include "core/lifecycle_sink.hh"
#include "core/structures.hh"
#include "core/windowed_estimator.hh"
#include "cpu/pipeline.hh"

namespace avf::core
{

/**
 * Online AVF estimator for one structure, attached to the pipeline as
 * an observer. Multiple estimators (one per structure) may coexist;
 * each owns distinct error-bit lanes and individually obeys the
 * one-error-at-a-time rule within each lane.
 */
class OnlineAvfEstimator : public WindowedEstimator
{
  public:
    /**
     * @param pipe pipeline to instrument (attach is the caller's job:
     *        pipe.addObserver(&estimator)).
     * @param structure which structure to estimate.
     * @param config M/N, lane count, and sampling options.
     * @param sharedPort injection port to draw lanes from. Several
     *        estimators on one pipeline share one port (the harness
     *        wires this; the port must be attached as an observer
     *        before the estimators). nullptr makes the estimator own
     *        a private port whose first lane is pinned to the legacy
     *        channel bit channelOf(structure) — so directly
     *        constructed estimators of distinct structures coexist
     *        exactly as the per-channel design did.
     */
    OnlineAvfEstimator(cpu::Pipeline &pipe, Structure structure,
                       OnlineConfig config = OnlineConfig{},
                       InjectionPort *sharedPort = nullptr);

    /** "online:<structure>", e.g. "online:iq". */
    std::string name() const override;

    /** Structure being estimated. */
    Structure structure() const { return target; }

    /**
     * Attach a lifecycle sink (not owned; nullptr detaches): every
     * injection opens a record there and every window close stamps
     * it. Purely observational — estimates are unaffected.
     */
    void setLifecycleSink(LifecycleSink *s) { sink = s; }

  protected:
    void windowOpened(LaneId lane, const Site &site, bool live,
                      Cycle now) override;
    void windowClosed(LaneId lane, Cycle now,
                      const Outcome &outcome) override;

  private:
    Structure target;
    /** Lifecycle observer, nullptr when tracing is off. */
    LifecycleSink *sink = nullptr;
};

} // namespace avf::core

#endif // AVF_CORE_ONLINE_ESTIMATOR_HH
