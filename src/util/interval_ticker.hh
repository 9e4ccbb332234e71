/**
 * @file
 * Division-free periodic trigger for event-driven observers. The
 * estimators all ask "is `now` at my interval boundary?"; asked with
 * `now % period` that is a 64-bit division. IntervalTicker keeps the
 * absolute next firing cycle instead, so the question is one compare,
 * and due() hands that cycle to the pipeline as the observer's wake
 * cycle (cpu::PipelineObserver::wakeAt): an observer is called only
 * on its boundaries, not every cycle.
 *
 * tick() may be called on any strictly increasing sequence of
 * cycles, every cycle or only the due ones. A call that lands past
 * the pending firing cycle (the first call of a ticker attached
 * mid-run) realigns with one division, so the answer stays exactly
 * `now % period == phase`.
 */

#ifndef AVF_UTIL_INTERVAL_TICKER_HH
#define AVF_UTIL_INTERVAL_TICKER_HH

#include "util/logging.hh"
#include "util/types.hh"

namespace avf
{

/** Fires on the cycles congruent to @c phase modulo @c period. */
class IntervalTicker
{
  public:
    /**
     * @param period interval length in cycles (> 0).
     * @param phase residue to fire on: tick(now) is true exactly
     *        when now % period == phase.
     */
    explicit IntervalTicker(Cycle period, Cycle phase = 0)
        : interval(period)
    {
        avf_assert(period > 0, "ticker period must be positive");
        next = phase % period;
    }

    /** True when @p now is a firing cycle; advances past it. */
    bool
    tick(Cycle now)
    {
        if (now < next)
            return false;
        if (now > next) {
            // Skipped past the pending firing cycle: realign to the
            // first firing cycle at or after now.
            Cycle residue = next % interval;
            Cycle mod = now % interval;
            next = now + (mod <= residue ? residue - mod
                                         : interval - mod + residue);
            if (now != next)
                return false;
        }
        next += interval;
        return true;
    }

    /** The next cycle tick() fires on (once aligned). */
    Cycle due() const { return next; }

    /** The configured period. */
    Cycle period() const { return interval; }

  private:
    Cycle interval;
    Cycle next;
};

} // namespace avf

#endif // AVF_UTIL_INTERVAL_TICKER_HH
