/**
 * @file
 * Tests for the SoftArch-style offline ACE analyzer: dead values and
 * transitively dead chains contribute nothing, failure points anchor
 * ACE-ness, residency spans match the pipeline's actual timings, and
 * multi-interval bucketing behaves.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"
#include "softarch/ace_analyzer.hh"
#include "test_helpers.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace
{

using namespace avf;
using namespace avf::core;
using namespace avf::cpu;
using namespace avf::softarch;
using namespace avf::testutil;

class RetireCollector : public PipelineObserver
{
  public:
    void
    onRetire(const DynInstr &instr, const RetireInfo &) override
    {
        // Test-only collector. avflint: allow(hot-path-alloc)
        retired.push_back(instr);
    }
    std::vector<DynInstr> retired;
};

struct Rig
{
    Rig(std::vector<trace::TraceInstruction> instrs,
        Cycle interval = 1000, Cycle lookahead = 500)
        : src(withPcs(std::move(instrs))), pipe(CpuConfig{}, src),
          analyzer(pipe, SoftArchConfig{interval, lookahead})
    {
        pipe.addObserver(&collector);
        pipe.addObserver(&analyzer);
    }

    SoftArchAvf
    runOneInterval()
    {
        drain(pipe);
        analyzer.finalizeAll(0);
        return analyzer.results().at(0);
    }

    trace::VectorTraceSource src;
    Pipeline pipe;
    RetireCollector collector;
    AceAnalyzer analyzer;
};

TEST(AceAnalyzer, DeadValueContributesNothing)
{
    // The ALU result is never read: FXU and REG must show zero ACE
    // residency; the store itself still makes its IQ entry ACE.
    Rig rig({
        alu(5, 1, 2),        // dead
        store(6, 1, 0x1000), // stores an (external) r6 value
    });
    auto avf = rig.runOneInterval();
    EXPECT_DOUBLE_EQ(avf[Structure::FXU], 0.0);
    EXPECT_DOUBLE_EQ(avf[Structure::REG], 0.0);
    EXPECT_GT(avf[Structure::IQ], 0.0);
    EXPECT_DOUBLE_EQ(avf[Structure::FPU], 0.0);
}

TEST(AceAnalyzer, TransitiveChainToStoreIsAce)
{
    // a -> b -> c -> store: all three ALU ops are ACE; each occupies
    // the FXU for exactly one cycle.
    Rig rig({
        alu(5, 1, 2),        // a
        alu(6, 5, 1),        // b
        alu(7, 6, 1),        // c
        store(7, 1, 0x1000),
    });
    auto avf = rig.runOneInterval();
    double fxu_unit_cycles = avf[Structure::FXU] * 1000.0 * 2.0;
    EXPECT_NEAR(fxu_unit_cycles, 3.0, 1e-9);
}

TEST(AceAnalyzer, TransitivelyDeadChainIsNotAce)
{
    // a -> b -> c but c is never consumed: the whole chain is dead.
    Rig rig({
        alu(5, 1, 2),
        alu(6, 5, 1),
        alu(7, 6, 1),
        store(2, 1, 0x1000), // unrelated store keeps a failure point
    });
    auto avf = rig.runOneInterval();
    EXPECT_DOUBLE_EQ(avf[Structure::FXU], 0.0);
    EXPECT_DOUBLE_EQ(avf[Structure::REG], 0.0);
}

TEST(AceAnalyzer, LoadAddressAndBranchConditionAreAce)
{
    Rig rig({
        alu(5, 1, 2),       // feeds the load's base: ACE
        load(6, 5, 0x2000), // failure point
        alu(7, 1, 2),       // feeds the branch: ACE
        branch(7, false),   // failure point
        alu(8, 1, 2),       // dead
    });
    auto avf = rig.runOneInterval();
    double fxu_unit_cycles = avf[Structure::FXU] * 1000.0 * 2.0;
    EXPECT_NEAR(fxu_unit_cycles, 2.0, 1e-9); // seq 0 and seq 2 only
}

TEST(AceAnalyzer, RegResidencyMatchesPipelineTimings)
{
    // The store's base register depends on a divide, so the ACE value
    // in r5 sits in the register file from its writeback until the
    // store finally issues.
    Rig rig({
        alu(5, 1, 2),                         // seq 0: ACE value
        alu(9, 1, 2, trace::OpClass::IntDiv), // seq 1: delays store
        store(5, 9, 0x1000),                  // seq 2
    });
    auto avf = rig.runOneInterval();

    const auto &retired = rig.collector.retired;
    ASSERT_EQ(retired.size(), 3u);
    // Expected REG ACE cycles: r5 from seq0.complete to seq2.issue,
    // plus r9 (also an ACE value: the store reads it as base) from
    // seq1.complete to seq2.issue (zero if back-to-back).
    double expected =
        static_cast<double>(retired[2].issueCycle -
                            retired[0].completeCycle) +
        static_cast<double>(retired[2].issueCycle -
                            retired[1].completeCycle);
    double measured = avf[Structure::REG] * 1000.0 * 80.0;
    EXPECT_NEAR(measured, expected, 1e-9);
}

TEST(AceAnalyzer, IqResidencyMatchesPipelineTimings)
{
    // Every instruction in this trace is ACE, so total IQ ACE cycles
    // must equal the summed dispatch-to-issue residencies.
    Rig rig({
        alu(9, 1, 2, trace::OpClass::IntDiv), // seq 0, feeds seq 1
        alu(5, 9, 1),                         // seq 1: waits ~35 cycles
        store(5, 1, 0x1000),                  // seq 2
    });
    auto avf = rig.runOneInterval();

    const auto &retired = rig.collector.retired;
    ASSERT_EQ(retired.size(), 3u);
    double expected = 0.0;
    for (const auto &instr : retired)
        expected += static_cast<double>(instr.issueCycle -
                                        instr.dispatchCycle);
    double measured = avf[Structure::IQ] * 1000.0 * 68.0;
    EXPECT_NEAR(measured, expected, 1e-9);
}

TEST(AceAnalyzer, FpChainCountsTowardFpuOnly)
{
    Rig rig({
        fp(40, 33, 34),       // FP value
        fp(41, 40, 33),       // consumes it
        store(41, 1, 0x1000), // exposes it
    });
    auto avf = rig.runOneInterval();
    EXPECT_GT(avf[Structure::FPU], 0.0);
    EXPECT_DOUBLE_EQ(avf[Structure::FXU], 0.0);
    // FP registers are not part of the (integer) REG structure.
    EXPECT_DOUBLE_EQ(avf[Structure::REG], 0.0);
    double fpu_unit_cycles = avf[Structure::FPU] * 1000.0 * 2.0;
    EXPECT_NEAR(fpu_unit_cycles, 10.0, 1e-9); // two 5-cycle FP ops
}

TEST(AceAnalyzer, StoreDataIsAce)
{
    Rig rig({
        alu(5, 1, 2),        // store data producer: ACE
        store(5, 1, 0x1000),
    });
    auto avf = rig.runOneInterval();
    EXPECT_GT(avf[Structure::FXU], 0.0);
}

TEST(AceAnalyzer, MultiIntervalBucketing)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile("mesa"));
    Pipeline pipe(CpuConfig{}, gen);
    SoftArchConfig conf;
    conf.intervalCycles = 5000;
    conf.lookahead = 2000;
    AceAnalyzer analyzer(pipe, conf);
    pipe.addObserver(&analyzer);

    pipe.run(5000 * 4 + 2500);
    analyzer.finalizeAll(3);
    ASSERT_GE(analyzer.results().size(), 4u);
    for (const auto &row : analyzer.results()) {
        for (double v : row.avf) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

TEST(AceAnalyzer, BufferIsBounded)
{
    // The rolling log must not grow without bound: after many
    // intervals it holds at most ~interval+lookahead worth of
    // records.
    trace::SyntheticTraceGenerator gen(trace::specProfile("swim"));
    Pipeline pipe(CpuConfig{}, gen);
    SoftArchConfig conf;
    conf.intervalCycles = 2000;
    conf.lookahead = 500;
    AceAnalyzer analyzer(pipe, conf);
    pipe.addObserver(&analyzer);

    pipe.run(2000 * 10);
    // Generous bound: 3 intervals of records at IPC <= 5.
    EXPECT_LT(analyzer.bufferedRecords(), 3u * 2000u * 5u);
    EXPECT_GE(analyzer.results().size(), 7u);
}

TEST(AceAnalyzer, ShortLookaheadUndercountsConservatively)
{
    // The documented approximation: a value whose last ACE read
    // falls more than `lookahead` cycles after its interval's
    // finalization point is (partially) missed. The error direction
    // is always an UNDERcount — the analyzer never invents ACE time.
    auto run_with_lookahead = [](Cycle lookahead) {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile("lucas"));
        Pipeline pipe(CpuConfig{}, gen);
        SoftArchConfig conf;
        conf.intervalCycles = 10'000;
        conf.lookahead = lookahead;
        AceAnalyzer analyzer(pipe, conf);
        pipe.addObserver(&analyzer);
        pipe.run(10'000 * 6 + lookahead + 100);
        analyzer.finalizeAll(4);
        double sum = 0;
        for (std::size_t k = 0; k < 5; ++k)
            sum += analyzer.results()[k][Structure::REG];
        return sum;
    };
    double tiny = run_with_lookahead(200);
    double ample = run_with_lookahead(8'000);
    EXPECT_LE(tiny, ample + 1e-9);
    EXPECT_GT(ample, 0.0);
}

TEST(AceAnalyzer, DeterministicAcrossRuns)
{
    auto run_once = []() {
        trace::SyntheticTraceGenerator gen(
            trace::specProfile("equake"));
        Pipeline pipe(CpuConfig{}, gen);
        SoftArchConfig conf;
        conf.intervalCycles = 4000;
        conf.lookahead = 1000;
        AceAnalyzer analyzer(pipe, conf);
        pipe.addObserver(&analyzer);
        pipe.run(4000 * 3 + 1500);
        analyzer.finalizeAll(2);
        return analyzer.results();
    };
    auto a = run_once();
    auto b = run_once();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        for (int s = 0; s < numStructures; ++s)
            EXPECT_DOUBLE_EQ(a[i].avf[s], b[i].avf[s]);
}

// ---- retire-time marking vs the backward pass ----

/**
 * The analyzer's former algorithm, kept here as the reference: log
 * every retirement, and at each finalization run an exact backward
 * dataflow pass over the whole buffer, then attribute and drop the
 * prefix that retired before the interval's end. The retire-time
 * worklist marking must reproduce its output bit for bit.
 */
class BackwardPassReference : public PipelineObserver
{
  public:
    BackwardPassReference(const Pipeline &pipe, SoftArchConfig config)
        : pipeline(pipe), conf(config)
    {
    }

    void
    onRetire(const DynInstr &instr, const RetireInfo &) override
    {
        Record rec;
        rec.dispatchCycle = instr.dispatchCycle;
        rec.issueCycle = instr.issueCycle;
        rec.completeCycle = instr.completeCycle;
        rec.retireCycle = instr.retireCycle;
        rec.srcProducer = instr.srcProducer;
        rec.destPhys = instr.destPhys;
        rec.numSrcs = instr.in.numSrcs();
        rec.inIq = instr.iqGlobalEntry >= 0;
        rec.failurePoint = instr.isFailurePoint();
        rec.fu = instr.fu;
        // Test-only log. avflint: allow(hot-path-alloc)
        records.push_back(rec);
    }

    void
    onCycle(Cycle now) override
    {
        while (now >= (static_cast<Cycle>(nextFinalize) + 1) *
                          conf.intervalCycles +
                          conf.lookahead)
            finalizeInterval();
    }

    void
    finalizeAll(std::size_t throughInterval)
    {
        while (nextFinalize <= throughInterval + 1)
            finalizeInterval();
    }

    std::vector<std::array<double, numStructures>> output;

  private:
    struct Record
    {
        Cycle dispatchCycle;
        Cycle issueCycle;
        Cycle completeCycle;
        Cycle retireCycle;
        std::array<InstrSeq, 3> srcProducer;
        int destPhys;
        int numSrcs;
        bool inIq;
        bool failurePoint;
        FuClass fu;
    };

    void
    addSpan(Structure s, Cycle lo, Cycle hi, double weight = 1.0)
    {
        if (hi <= lo || weight <= 0.0)
            return;
        auto first = static_cast<std::size_t>(lo / conf.intervalCycles);
        auto last =
            static_cast<std::size_t>((hi - 1) / conf.intervalCycles);
        if (last >= buckets.size())
            buckets.resize(last + 1);
        for (std::size_t b = first; b <= last; ++b) {
            Cycle bucket_lo = static_cast<Cycle>(b) * conf.intervalCycles;
            Cycle ov_lo = std::max(lo, bucket_lo);
            Cycle ov_hi = std::min(hi, bucket_lo + conf.intervalCycles);
            buckets[b][static_cast<std::size_t>(s)] +=
                static_cast<double>(ov_hi - ov_lo) * weight;
        }
    }

    void
    finalizeInterval()
    {
        const Cycle end = (static_cast<Cycle>(nextFinalize) + 1) *
                          conf.intervalCycles;
        const std::size_t count = records.size();
        // Test-only reference: fresh scratch per finalization.
        // avflint: allow(hot-path-alloc)
        std::vector<std::uint8_t> ace(count, 0);
        // avflint: allow(hot-path-alloc)
        std::vector<Cycle> last_read(count, 0);
        for (std::size_t i = count; i-- > 0;) {
            const Record &rec = records[i];
            if (!(rec.failurePoint || ace[i]))
                continue;
            ace[i] = 1;
            for (InstrSeq producer : rec.srcProducer) {
                if (producer == invalidSeq || producer < baseSeq)
                    continue;
                auto idx = static_cast<std::size_t>(producer - baseSeq);
                ace[idx] = 1;
                last_read[idx] = std::max(last_read[idx], rec.issueCycle);
            }
        }

        const int int_regs = pipeline.numIntPhysRegs();
        std::size_t drop = 0;
        for (; drop < count && records[drop].retireCycle < end; ++drop) {
            const Record &rec = records[drop];
            if (rec.inIq && (rec.failurePoint || ace[drop])) {
                double weight = 1.0;
                if (conf.fieldGranularIq)
                    weight = (1.0 + rec.numSrcs) /
                             Pipeline::iqFieldsPerEntry;
                addSpan(Structure::IQ, rec.dispatchCycle,
                        rec.issueCycle, weight);
            }
            if (rec.destPhys >= 0 && last_read[drop] > rec.completeCycle)
                addSpan(rec.destPhys < int_regs ? Structure::REG
                                                : Structure::FREG,
                        rec.completeCycle, last_read[drop]);
            if (ace[drop] && !rec.failurePoint) {
                if (rec.fu == FuClass::Fxu)
                    addSpan(Structure::FXU, rec.issueCycle,
                            rec.completeCycle);
                else if (rec.fu == FuClass::Fpu)
                    addSpan(Structure::FPU, rec.issueCycle,
                            rec.completeCycle);
            }
        }
        records.erase(records.begin(),
                      records.begin() +
                          static_cast<std::ptrdiff_t>(drop));
        baseSeq += drop;

        if (nextFinalize >= 1)
            emit(nextFinalize - 1);
        ++nextFinalize;
    }

    void
    emit(std::size_t idx)
    {
        if (idx >= buckets.size())
            buckets.resize(idx + 1);
        const auto &cpu = pipeline.config();
        const double len = static_cast<double>(conf.intervalCycles);
        const double sizes[numStructures] = {
            static_cast<double>(cpu.totalIqEntries()),
            static_cast<double>(pipeline.numIntPhysRegs()),
            static_cast<double>(cpu.numFxu),
            static_cast<double>(cpu.numFpu),
            static_cast<double>(cpu.fpPhysRegs)};
        std::array<double, numStructures> row{};
        for (int s = 0; s < numStructures; ++s)
            row[static_cast<std::size_t>(s)] =
                buckets[idx][static_cast<std::size_t>(s)] /
                (len * sizes[s]);
        // One row per interval. avflint: allow(hot-path-alloc)
        output.push_back(row);
    }

    const Pipeline &pipeline;
    SoftArchConfig conf;
    std::vector<Record> records;
    InstrSeq baseSeq = 0;
    std::size_t nextFinalize = 0;
    std::vector<std::array<double, numStructures>> buckets;
};

/** Random straight-line code over a few registers: long chains,
 *  dead values, and loads/stores/branches as failure points. */
std::vector<trace::TraceInstruction>
randomTrace(std::uint64_t seed, std::size_t length)
{
    Rng rng(seed);
    auto int_reg = [&] { return static_cast<RegIndex>(1 + rng.below(10)); };
    auto fp_reg = [&] { return static_cast<RegIndex>(32 + rng.below(8)); };
    std::vector<trace::TraceInstruction> out;
    out.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
        auto addr = static_cast<Addr>(0x10000 + 8 * rng.below(512));
        switch (rng.below(10)) {
          case 0: out.push_back(load(int_reg(), int_reg(), addr)); break;
          case 1: out.push_back(store(int_reg(), int_reg(), addr)); break;
          case 2: out.push_back(branch(int_reg())); break;
          case 3:
          case 4: out.push_back(fp(fp_reg(), fp_reg(), fp_reg())); break;
          case 5: out.push_back(nop()); break;
          default:
            out.push_back(alu(int_reg(), int_reg(), int_reg()));
            break;
        }
    }
    return withPcs(std::move(out));
}

/** Run both analyzers over one trace; expect bit-identical rows. */
void
expectMatchesBackwardPass(trace::TraceSource &src, SoftArchConfig conf,
                          Cycle cycles)
{
    Pipeline pipe(CpuConfig{}, src);
    AceAnalyzer analyzer(pipe, conf);
    BackwardPassReference reference(pipe, conf);
    pipe.addObserver(&analyzer);
    pipe.addObserver(&reference);
    pipe.run(cycles);
    const auto intervals =
        static_cast<std::size_t>(cycles / conf.intervalCycles);
    ASSERT_GT(intervals, 1u);
    analyzer.finalizeAll(intervals - 1);
    reference.finalizeAll(intervals - 1);

    ASSERT_EQ(analyzer.results().size(), reference.output.size());
    for (std::size_t k = 0; k < reference.output.size(); ++k)
        for (int s = 0; s < numStructures; ++s)
            EXPECT_EQ(analyzer.results()[k].avf[static_cast<std::size_t>(s)],
                      reference.output[k][static_cast<std::size_t>(s)])
                << "interval " << k << " structure " << s;
}

TEST(AceAnalyzer, RetireTimeMarkingMatchesBackwardPass)
{
    // Synthetic workloads with fresh seeds, both IQ granularities,
    // and lookaheads below, at and above the interval length.
    Rng seeds(20080621);
    for (const char *app : {"bzip2", "mesa", "swim", "lucas"}) {
        for (bool field_iq : {false, true}) {
            for (Cycle lookahead : {Cycle{700}, Cycle{3000}, Cycle{9000}}) {
                trace::WorkloadProfile profile = trace::specProfile(app);
                profile.seed = seeds.next();
                trace::SyntheticTraceGenerator gen(profile);
                SoftArchConfig conf;
                conf.intervalCycles = 3000;
                conf.lookahead = lookahead;
                conf.fieldGranularIq = field_iq;
                SCOPED_TRACE(std::string(app) + " lookahead " +
                             std::to_string(lookahead) +
                             (field_iq ? " field-IQ" : ""));
                expectMatchesBackwardPass(gen, conf, 3000 * 6 + 500);
            }
        }
    }
}

TEST(AceAnalyzer, RetireTimeMarkingMatchesBackwardPassRandomCode)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        trace::VectorTraceSource src(randomTrace(seed, 20000));
        SoftArchConfig conf;
        conf.intervalCycles = 500;
        conf.lookahead = seed % 2 ? 200 : 1200;
        conf.fieldGranularIq = seed % 3 == 0;
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectMatchesBackwardPass(src, conf, 500 * 8);
    }
}

} // namespace
