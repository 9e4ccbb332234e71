#include "core/online_estimator.hh"

#include <stdexcept>

#include "util/logging.hh"

namespace avf::core
{

namespace
{

/** Validate before any member (the boundary ticker) consumes M. */
OnlineConfig
checked(OnlineConfig config)
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

OnlineAvfEstimator::OnlineAvfEstimator(cpu::Pipeline &pipe,
                                       Structure structure,
                                       OnlineConfig config,
                                       InjectionPort *sharedPort)
    : pipeline(pipe), target(structure), conf(checked(config)),
      rng(config.seed ^ static_cast<std::uint64_t>(
          channelOf(structure))),
      boundaryTick(config.m)
{
    const int lanes = conf.lanes > 0 ? conf.lanes : 1;
    std::vector<LaneId> reserved;
    if (sharedPort) {
        portPtr = sharedPort;
        reserved = portPtr->reserveLanes(lanes);
    } else {
        // Private port: pin the first lane to the legacy channel bit
        // so directly-constructed estimators of distinct structures
        // land on disjoint lanes, exactly as the per-channel design
        // did. (The private port is not on the observer list; this
        // estimator forwards its own onRetire to it.)
        ownedPort = std::make_unique<InjectionPort>(pipe);
        portPtr = ownedPort.get();
        portPtr->reserveLane(channelOf(structure));
        reserved.push_back(channelOf(structure));
        for (int i = 1; i < lanes; ++i)
            reserved.push_back(portPtr->reserveLane());
    }
    slots.resize(reserved.size());
    for (std::size_t i = 0; i < reserved.size(); ++i) {
        slots[i].lane = reserved[i];
        myLanes |= laneBit(reserved[i]);
    }
}

unsigned
OnlineAvfEstimator::hooks() const
{
    return ownedPort ? cpu::hookRetire | cpu::hookCycle : cpu::hookCycle;
}

Cycle
OnlineAvfEstimator::wakeAt() const
{
    Cycle wake = boundaryTick.due();
    if (scheduledCount)
        for (const auto &slot : slots)
            if (slot.scheduled && slot.injectAt < wake)
                wake = slot.injectAt;
    return wake;
}

void
OnlineAvfEstimator::onRetire(const cpu::DynInstr &instr,
                             const cpu::RetireInfo &info)
{
    // A shared port sits on the pipeline's observer list itself; a
    // private one sees retirements only through its owner.
    if (ownedPort)
        ownedPort->onRetire(instr, info);
}

std::string
OnlineAvfEstimator::name() const
{
    return "online:" + std::string(structureName(target));
}

double
OnlineAvfEstimator::partialAvf() const
{
    return injections ? static_cast<double>(failures) /
                        static_cast<double>(injections)
                      : 0.0;
}

EstimatorState
OnlineAvfEstimator::snapshotState() const
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
        {"cursor", static_cast<std::uint64_t>(cursor)},
    };
    state.estimates = results;
    return state;
}

void
OnlineAvfEstimator::restoreState(const EstimatorState &state)
{
    if (state.name != name())
        throw std::invalid_argument(
            "estimator state for '" + state.name +
            "' cannot restore into '" + name() + "'");
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
    cursor = static_cast<int>(state.counterValue("cursor"));
    results = state.estimates;
}

Site
OnlineAvfEstimator::nextSite()
{
    Site site;
    site.structure = target;
    site.entry = cursor;

    switch (target) {
      case Structure::REG:
        cursor = (cursor + 1) % pipeline.numIntPhysRegs();
        break;
      case Structure::FREG:
        cursor = (cursor + 1) % pipeline.config().fpPhysRegs;
        break;
      case Structure::IQ:
        if (conf.fieldGranularIq) {
            int fields = cpu::Pipeline::iqFieldsPerEntry;
            int slot_count = pipeline.totalIqEntries() * fields;
            site.entry = cursor / fields;
            site.field = cursor % fields;
            cursor = (cursor + 1) % slot_count;
        } else {
            cursor = (cursor + 1) % pipeline.totalIqEntries();
        }
        break;
      case Structure::FXU:
        cursor = (cursor + 1) % pipeline.config().numFxu;
        break;
      case Structure::FPU:
        cursor = (cursor + 1) % pipeline.config().numFpu;
        break;
      default:
        panic("estimator bound to invalid structure");
    }
    return site;
}

void
OnlineAvfEstimator::openWindow(LaneSlot &slot, Cycle now)
{
    Site site = nextSite();
    slot.handle = portPtr->open(slot.lane, site, now);
    slot.open = true;
    ++lifetimeInjections;

    bool live = slot.handle.inject == InjectOutcome::Occupied;
    if (live)
        ++liveInjections;
    if (sink)
        sink->openRecord(target, slot.lane, site.entry, site.field,
                         live, now);
}

void
OnlineAvfEstimator::windowBoundary(Cycle now)
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
        if (sink)
            sink->closeRecord(target, slot.lane, now, outcome);
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
OnlineAvfEstimator::onCycle(Cycle now)
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
