#include "softarch/ace_analyzer.hh"

#include <algorithm>

#include "trace/instruction.hh"
#include "util/logging.hh"

namespace avf::softarch
{

using core::Structure;

AceAnalyzer::AceAnalyzer(const cpu::Pipeline &pipe,
                         SoftArchConfig config)
    : pipeline(pipe), conf(config)
{
    avf_assert(conf.intervalCycles > 0, "interval must be positive");
    avf_assert(conf.lookahead > 0, "lookahead must be positive");
}

void
AceAnalyzer::onRetire(const cpu::DynInstr &instr, const cpu::RetireInfo &)
{
    // Retirement is in program order in a trace-driven model, so the
    // sequence number indexes the log directly.
    avf_assert(instr.seq == baseSeq + records.size(),
               "retirement out of sequence order");

    Record rec;
    rec.dispatchCycle = instr.dispatchCycle;
    rec.issueCycle = instr.issueCycle;
    rec.completeCycle = instr.completeCycle;
    rec.retireCycle = instr.retireCycle;
    rec.srcProducer = instr.srcProducer;
    rec.destPhys = instr.destPhys;
    rec.op = static_cast<std::uint8_t>(instr.in.op);
    rec.numSrcs = static_cast<std::uint8_t>(instr.in.numSrcs());
    rec.inIq = instr.iqGlobalEntry >= 0;
    rec.failurePoint = instr.isFailurePoint();
    rec.fuClass = static_cast<std::uint8_t>(instr.fu);
    // Post-hoc ACE analysis buffers the retire window by design; the
    // front-erase in finalizeInterval() keeps capacity, so growth
    // stops after warm-up. avflint: allow(hot-path-alloc)
    records.push_back(rec);
    // The ACE marks ride alongside, erased with the same prefix.
    // avflint: allow(hot-path-alloc)
    aceFlag.push_back(0);
    // avflint: allow(hot-path-alloc)
    lastAceRead.push_back(0);
    if (rec.failurePoint)
        markAce(records.size() - 1);
}

void
AceAnalyzer::markAce(std::size_t idx)
{
    // A record is ACE iff it is a failure point or an ACE record
    // reads its value. Marks only ever get added, and each record
    // propagates once, when it turns ACE: the worklist reaches the
    // least fixpoint a backward pass over the buffer would, at O(1)
    // work per record.
    aceFlag[idx] = 1;
    // The worklist grows to the deepest marking chain once and keeps
    // its capacity. avflint: allow(hot-path-alloc)
    worklist.push_back(idx);
    while (!worklist.empty()) {
        const std::size_t i = worklist.back();
        worklist.pop_back();
        const Record &rec = records[i];
        for (InstrSeq producer : rec.srcProducer) {
            if (producer == invalidSeq || producer < baseSeq)
                continue;
            auto p = static_cast<std::size_t>(producer - baseSeq);
            avf_assert(p < i, "producer does not precede consumer");
            lastAceRead[p] = std::max(lastAceRead[p], rec.issueCycle);
            if (!aceFlag[p]) {
                aceFlag[p] = 1;
                // avflint: allow(hot-path-alloc)
                worklist.push_back(p);
            }
        }
    }
}

void
AceAnalyzer::onCycle(Cycle now)
{
    while (now >= wakeAt())
        finalizeInterval();
}

void
AceAnalyzer::addSpan(Structure s, Cycle lo, Cycle hi, double weight)
{
    if (hi <= lo || weight <= 0.0)
        return;
    std::size_t first = static_cast<std::size_t>(
        lo / conf.intervalCycles);
    std::size_t last = static_cast<std::size_t>(
        (hi - 1) / conf.intervalCycles);
    if (last >= buckets.size())
        buckets.resize(last + 1);
    for (std::size_t b = first; b <= last; ++b) {
        Cycle bucket_lo = static_cast<Cycle>(b) * conf.intervalCycles;
        Cycle bucket_hi = bucket_lo + conf.intervalCycles;
        Cycle ov_lo = std::max(lo, bucket_lo);
        Cycle ov_hi = std::min(hi, bucket_hi);
        buckets[b].aceCycles[static_cast<std::size_t>(s)] +=
            static_cast<double>(ov_hi - ov_lo) * weight;
    }
}

void
AceAnalyzer::finalizeInterval()
{
    const Cycle end = (static_cast<Cycle>(nextFinalize) + 1) *
                      conf.intervalCycles;

    // ---- attribute and drop the prefix that retired before `end` ----
    // The marks are current: onRetire() keeps them at the fixpoint.
    const std::size_t count = records.size();
    const int int_regs = pipeline.numIntPhysRegs();
    std::size_t drop = 0;
    while (drop < count && records[drop].retireCycle < end) {
        const Record &rec = records[drop];

        if (rec.inIq) {
            // An issue-queue entry is ACE while it holds an
            // instruction whose corruption would reach a failure
            // point: every load/store/branch (they retire as failure
            // points themselves) and any op with an ACE value. In
            // field-granular mode only the populated fields of the
            // entry are vulnerable.
            bool iq_ace = rec.failurePoint || aceFlag[drop];
            if (iq_ace) {
                double weight = 1.0;
                if (conf.fieldGranularIq) {
                    weight = (1.0 + static_cast<double>(rec.numSrcs)) /
                             static_cast<double>(
                                 cpu::Pipeline::iqFieldsPerEntry);
                }
                addSpan(Structure::IQ, rec.dispatchCycle,
                        rec.issueCycle, weight);
            }
        }

        if (rec.destPhys >= 0 &&
            lastAceRead[drop] > rec.completeCycle) {
            // The register holds an ACE value from writeback until
            // its last ACE read; integer and FP planes are separate
            // structures.
            addSpan(rec.destPhys < int_regs ? Structure::REG
                                            : Structure::FREG,
                    rec.completeCycle, lastAceRead[drop]);
        }

        if (aceFlag[drop] && !rec.failurePoint) {
            // Compute ops occupy their unit from issue to writeback;
            // unit-cycles holding ACE work are vulnerable.
            auto cls = static_cast<cpu::FuClass>(rec.fuClass);
            if (cls == cpu::FuClass::Fxu)
                addSpan(Structure::FXU, rec.issueCycle,
                        rec.completeCycle);
            else if (cls == cpu::FuClass::Fpu)
                addSpan(Structure::FPU, rec.issueCycle,
                        rec.completeCycle);
        }

        ++drop;
    }

    const auto cut = static_cast<std::ptrdiff_t>(drop);
    records.erase(records.begin(), records.begin() + cut);
    aceFlag.erase(aceFlag.begin(), aceFlag.begin() + cut);
    lastAceRead.erase(lastAceRead.begin(), lastAceRead.begin() + cut);
    baseSeq += drop;

    // Bucket (nextFinalize - 1) can no longer receive spans: emit it.
    if (nextFinalize >= 1)
        emitBucket(nextFinalize - 1);
    ++nextFinalize;
}

void
AceAnalyzer::emitBucket(std::size_t idx)
{
    avf_assert(idx == output.size(),
               "buckets must be emitted in order (%zu vs %zu)",
               idx, output.size());
    if (idx >= buckets.size())
        buckets.resize(idx + 1);
    const Bucket &bucket = buckets[idx];

    auto interval = static_cast<double>(conf.intervalCycles);
    const auto &conf_cpu = pipeline.config();

    SoftArchAvf avf;
    avf[Structure::IQ] =
        bucket.aceCycles[static_cast<int>(Structure::IQ)] /
        (interval * static_cast<double>(conf_cpu.totalIqEntries()));
    avf[Structure::REG] =
        bucket.aceCycles[static_cast<int>(Structure::REG)] /
        (interval * static_cast<double>(pipeline.numIntPhysRegs()));
    avf[Structure::FXU] =
        bucket.aceCycles[static_cast<int>(Structure::FXU)] /
        (interval * static_cast<double>(conf_cpu.numFxu));
    avf[Structure::FPU] =
        bucket.aceCycles[static_cast<int>(Structure::FPU)] /
        (interval * static_cast<double>(conf_cpu.numFpu));
    avf[Structure::FREG] =
        bucket.aceCycles[static_cast<int>(Structure::FREG)] /
        (interval * static_cast<double>(conf_cpu.fpPhysRegs));
    // One row per finalized analysis interval.
    // avflint: allow(hot-path-alloc)
    output.push_back(avf);
}

void
AceAnalyzer::finalizeAll(std::size_t throughInterval)
{
    while (nextFinalize <= throughInterval + 1)
        finalizeInterval();
}

} // namespace avf::softarch
