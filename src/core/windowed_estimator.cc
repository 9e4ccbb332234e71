#include "core/windowed_estimator.hh"

#include <stdexcept>

#include "util/logging.hh"

namespace avf::core
{

namespace
{

/** Validate before any member (the boundary ticker) consumes M. */
const OnlineConfig &
checked(const OnlineConfig &config)
{
    avf_assert(config.m > 0, "window length M must be positive");
    avf_assert(config.n > 0, "sample count N must be positive");
    avf_assert(config.lanes >= 0 &&
                   config.lanes <= numErrorChannels,
               "lane count %d outside 0..%d", config.lanes,
               numErrorChannels);
    return config;
}

} // namespace

WindowedEstimator::WindowedEstimator(cpu::Pipeline &pipe,
                                     const Site &target,
                                     const OnlineConfig &config,
                                     InjectionPort *sharedPort,
                                     LaneId pinnedLane)
    : conf(checked(config)), rng(config.seed), boundaryTick(config.m),
      ownedPort(sharedPort ? nullptr
                           : std::make_unique<InjectionPort>(pipe)),
      portPtr(sharedPort ? sharedPort : ownedPort.get()),
      sites(*portPtr, target)
{
    slots.resize(static_cast<std::size_t>(conf.lanes > 0 ? conf.lanes
                                                         : 1));
    for (auto &slot : slots) {
        if (ownedPort && &slot == &slots.front()) {
            // Private port: pin the first lane so directly-constructed
            // estimators of distinct targets land on disjoint lanes.
            // (The private port is not on the observer list; this
            // estimator forwards its own onRetire to it.)
            portPtr->reserveLane(pinnedLane);
            slot.lane = pinnedLane;
        } else {
            slot.lane = portPtr->reserveLane();
        }
        myLanes |= laneBit(slot.lane);
    }
}

unsigned
WindowedEstimator::hooks() const
{
    return ownedPort ? cpu::hookRetire | cpu::hookCycle : cpu::hookCycle;
}

Cycle
WindowedEstimator::wakeAt() const
{
    Cycle wake = boundaryTick.due();
    if (scheduledCount)
        for (const auto &slot : slots)
            if (slot.scheduled && slot.injectAt < wake)
                wake = slot.injectAt;
    return wake;
}

void
WindowedEstimator::onRetire(const cpu::DynInstr &instr,
                            const cpu::RetireInfo &info)
{
    // A shared port sits on the pipeline's observer list itself; a
    // private one sees retirements only through its owner.
    if (ownedPort)
        ownedPort->onRetire(instr, info);
}

double
WindowedEstimator::partialAvf() const
{
    return injections ? static_cast<double>(failures) /
                        static_cast<double>(injections)
                      : 0.0;
}

EstimatorState
WindowedEstimator::snapshotState() const
{
    EstimatorState state;
    state.name = name();
    state.counters = {
        {"injections", injections},
        {"failures", failures},
        {"lifetime_injections", lifetimeInjections},
        {"lifetime_failures", lifetimeFailures},
        {"live_injections", liveInjections},
        {"windows_closed", windowsClosed},
        {"opened_this_interval", openedThisInterval},
        {"cursor", static_cast<std::uint64_t>(sites.position())},
    };
    state.estimates = results;
    return state;
}

void
WindowedEstimator::restoreState(const EstimatorState &state)
{
    if (state.name != name())
        throw std::invalid_argument(
            "estimator state for '" + state.name +
            "' cannot restore into '" + name() + "'");
    sites.seek(static_cast<int>(state.counterValue("cursor")));
    injections = static_cast<std::uint32_t>(
        state.counterValue("injections"));
    failures = static_cast<std::uint32_t>(
        state.counterValue("failures"));
    lifetimeInjections = state.counterValue("lifetime_injections");
    lifetimeFailures = state.counterValue("lifetime_failures");
    liveInjections = state.counterValue("live_injections");
    windowsClosed = state.counterValue("windows_closed");
    openedThisInterval = static_cast<std::uint32_t>(
        state.counterValue("opened_this_interval"));
    results = state.estimates;
}

void
WindowedEstimator::openWindow(LaneSlot &slot, Cycle now)
{
    Site site = sites.next();
    slot.handle = portPtr->open(slot.lane, site, now);
    slot.open = true;
    ++lifetimeInjections;

    bool live = slot.handle.inject == InjectOutcome::Occupied;
    if (live)
        ++liveInjections;
    windowOpened(slot.lane, site, live, now);
}

void
WindowedEstimator::windowBoundary(Cycle now)
{
    // Close phase: every window opened at the previous boundary ends
    // here, in lane order. The Nth close finishes the interval.
    for (auto &slot : slots) {
        slot.scheduled = false;
        if (!slot.open)
            continue;
        Outcome outcome = portPtr->closed(slot.handle);
        slot.open = false;
        ++injections;
        ++windowsClosed;
        if (outcome.failed) {
            ++failures;
            ++lifetimeFailures;
        }
        windowClosed(slot.lane, now, outcome);
        if (injections == conf.n) {
            // One estimate per completed interval of n injections.
            // avflint: allow(hot-path-alloc)
            results.push_back(static_cast<double>(failures) /
                              static_cast<double>(conf.n));
            injections = 0;
            failures = 0;
            openedThisInterval = 0;
        }
    }
    scheduledCount = 0;

    // One error at a time per lane: one batched sweep retires every
    // lane's bits before the next windows open.
    portPtr->clearLanes(myLanes);

    // Open phase: saturate the lanes, capped so an interval closes on
    // exactly N windows (the cap only binds on the last boundary of
    // an interval when lanes does not divide N).
    auto want = static_cast<std::uint32_t>(slots.size());
    std::uint32_t room = conf.n - openedThisInterval;
    std::uint32_t opening = want < room ? want : room;
    for (std::uint32_t i = 0; i < opening; ++i) {
        LaneSlot &slot = slots[i];
        if (conf.randomizeInjectionTiming) {
            slot.scheduled = true;
            slot.injectAt = now + rng.below(conf.m);
            ++scheduledCount;
        } else {
            openWindow(slot, now);
        }
    }
    openedThisInterval += opening;
}

void
WindowedEstimator::onCycle(Cycle now)
{
    if (boundaryTick.tick(now))
        windowBoundary(now);
    if (scheduledCount) {
        for (auto &slot : slots) {
            if (!slot.scheduled || now != slot.injectAt)
                continue;
            slot.scheduled = false;
            --scheduledCount;
            openWindow(slot, now);
        }
    }
}

} // namespace avf::core
