/**
 * @file
 * Observation interface over the pipeline. The online estimator and
 * the SoftArch offline analyzer both attach here; the pipeline calls
 * out at dispatch, issue, completion, retirement, and at the end of
 * the cycles an observer asks to be woken on.
 */

#ifndef AVF_CPU_OBSERVER_HH
#define AVF_CPU_OBSERVER_HH

#include "cpu/dyn_instr.hh"

namespace avf::cpu
{

/**
 * How an error bit moved during one pipeline event. Mirrors the
 * paper's Section 3 propagation rules: reads carry bits into
 * consumers, multi-input OR gates merge them, corrupted values transit
 * functional units, and overwrites kill whatever the destination held.
 */
enum class ErrorHop : int
{
    ReadCarry = 0,  ///< a source read pulled error bits into a consumer
    OrMerge = 1,    ///< bits from two or more origins merged in one value
    FuTransit = 2,  ///< an erroneous value entered a functional unit
    OverwriteKill = 3, ///< a clean(er) writeback killed resident bits
    NumHops
};

/** Number of distinct hop kinds. */
inline constexpr int numErrorHops = static_cast<int>(ErrorHop::NumHops);

/** Stable display name ("read_carry", "or_merge", ...). */
constexpr const char *
errorHopName(ErrorHop hop)
{
    switch (hop) {
      case ErrorHop::ReadCarry: return "read_carry";
      case ErrorHop::OrMerge: return "or_merge";
      case ErrorHop::FuTransit: return "fu_transit";
      case ErrorHop::OverwriteKill: return "overwrite_kill";
      default: return "invalid";
    }
}

/** Bits of PipelineObserver::hooks(): the events an observer takes. */
enum HookBits : unsigned
{
    hookDispatch = 1u << 0,
    hookIssue = 1u << 1,
    hookComplete = 1u << 2,
    hookRetire = 1u << 3,
    hookCycle = 1u << 4,
    hookAll = (1u << 5) - 1,
};

/**
 * Passive pipeline observer; all hooks default to no-ops.
 *
 * Dispatch is event-driven. The pipeline reads hooks() once, when the
 * observer is attached, and calls only the declared hooks. It calls
 * onCycle(now) only when now >= wakeAt(), and reads wakeAt() again
 * after each onCycle call and at attach, nowhere else. So an
 * observer's wake cycle may move earlier only inside its own
 * onCycle. The defaults (every hook, every cycle) keep an observer
 * that declares nothing exactly as before. onCycle must tolerate
 * extra calls on cycles before its wake cycle: a forwarding proxy
 * that declares nothing calls it every cycle.
 */
class PipelineObserver
{
  public:
    virtual ~PipelineObserver() = default;

    /** HookBits mask of the hooks the pipeline should call. */
    virtual unsigned hooks() const { return hookAll; }

    /**
     * Next cycle whose onCycle must run (neverCycle: none). The
     * default 0 asks for every cycle.
     */
    virtual Cycle wakeAt() const { return 0; }

    /** Instruction entered the ROB (and its issue queue). */
    virtual void onDispatch(const DynInstr &) {}

    /** Instruction left its issue queue for a functional unit. */
    virtual void onIssue(const DynInstr &) {}

    /** Instruction finished execution / wrote back. */
    virtual void onComplete(const DynInstr &) {}

    /** Instruction retired (in order). */
    virtual void onRetire(const DynInstr &, const RetireInfo &) {}

    /** End of cycle @p now (on the cycles wakeAt() asks for). */
    virtual void onCycle(Cycle) {}

    /**
     * Error bits @p bits moved via @p hop at instruction @p instr.
     * Only delivered when the pipeline's hop events are enabled
     * (Pipeline::setHopSink) and the build retains the hooks
     * (cmake -DAVF_LIFECYCLE_HOOKS=ON, the default); bits is always
     * nonzero. @p instr is the consumer for ReadCarry/OrMerge/
     * FuTransit and the overwriting producer for OverwriteKill.
     */
    virtual void onErrorHop(const DynInstr &, ErrorMask, ErrorHop) {}
};

} // namespace avf::cpu

#endif // AVF_CPU_OBSERVER_HH
