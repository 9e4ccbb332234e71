/**
 * @file
 * Simulator throughput at each altitude of the stack, so the cost of
 * the estimation machinery reads as a difference between cases (the
 * paper argues its hardware overhead is negligible; these measure the
 * *simulation* overhead of the observers):
 *
 *   trace_synthetic_next        one synthetic trace instruction;
 *   mem_cache_access            one data access through the hierarchy;
 *   pipeline_step_bare          one pipeline cycle, no observers;
 *   pipeline_step_lifecycle     one cycle with the five online
 *                               estimators plus the lifecycle tracker
 *                               and its hop events — against
 *                               propagation_step_estimators this is
 *                               the full cost of lifecycle tracing
 *                               (it converges to it when the hop
 *                               sites compile out with
 *                               -DAVF_LIFECYCLE_HOOKS=OFF);
 *   pipeline_step_full_harness  one cycle with the estimators and the
 *                               SoftArch reference.
 *
 * The pipeline cases report items/sec as simulated cycles/sec.
 */

#include "micro.hh"

#include <memory>
#include <vector>

#include "core/online_estimator.hh"
#include "cpu/pipeline.hh"
#include "mem/hierarchy.hh"
#include "obs/lifecycle.hh"
#include "softarch/ace_analyzer.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;

/** A mesa pipeline; addEstimators() attaches the five online
 *  estimators (private ports, serial lanes). */
struct PipelineRig
{
    trace::SyntheticTraceGenerator gen{trace::specProfile("mesa")};
    cpu::Pipeline pipe{cpu::CpuConfig{}, gen};
    std::vector<std::unique_ptr<core::OnlineAvfEstimator>> ests;

    void
    addEstimators(core::LifecycleSink *sink = nullptr)
    {
        for (int s = 0; s < core::numStructures; ++s) {
            ests.push_back(std::make_unique<core::OnlineAvfEstimator>(
                pipe, static_cast<core::Structure>(s)));
            ests.back()->setLifecycleSink(sink);
            pipe.addObserver(ests.back().get());
        }
    }
};

obs::LifecycleConfig
lifecycleConfig()
{
    obs::LifecycleConfig conf;
    conf.enabled = true;
    return conf;
}

/** Estimators feeding a lifecycle tracker that also sees the hops. */
struct LifecycleRig
{
    PipelineRig rig;
    obs::LifecycleTracker tracker{lifecycleConfig()};

    LifecycleRig()
    {
        rig.pipe.addObserver(&tracker);
        rig.pipe.setHopSink(&tracker);
        rig.addEstimators(&tracker);
    }
};

/** Estimators plus the SoftArch reference. */
struct FullHarnessRig
{
    PipelineRig rig;
    softarch::AceAnalyzer analyzer{rig.pipe};

    FullHarnessRig()
    {
        rig.addEstimators();
        rig.pipe.addObserver(&analyzer);
    }
};

void
stepCycles(avf::micro::Bench &b, cpu::Pipeline &pipe)
{
    b.setItems(1); // items/sec == simulated cycles/sec
    while (b.next()) {
        pipe.step();
        avf::micro::clobberMemory();
    }
}

} // namespace

AVF_MICROBENCH(trace_synthetic_next)
{
    static trace::SyntheticTraceGenerator gen(
        trace::specProfile("mesa"));
    trace::TraceInstruction in;
    while (b.next()) {
        gen.next(in);
        avf::micro::doNotOptimize(in);
    }
}

AVF_MICROBENCH(mem_cache_access)
{
    static mem::MemoryHierarchy hier;
    Addr addr = 0;
    while (b.next()) {
        avf::micro::doNotOptimize(hier.dataAccess(addr));
        addr = (addr + 64) & 0x3FFFFF;
    }
}

AVF_MICROBENCH(pipeline_step_bare)
{
    static PipelineRig rig;
    stepCycles(b, rig.pipe);
}

AVF_MICROBENCH(pipeline_step_lifecycle)
{
    static LifecycleRig rig;
    stepCycles(b, rig.rig.pipe);
}

AVF_MICROBENCH(pipeline_step_full_harness)
{
    static FullHarnessRig rig;
    stepCycles(b, rig.rig.pipe);
}
