#include "core/replay.h"

#include <optional>
#include <type_traits>
#include <utility>

#include "analysis/verify.h"
#include "common/contracts.h"
#include "cpu/branch_predictor.h"
#include "cpu/timing_kernel.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace voltcache {

namespace {

constexpr std::uint32_t kUnmappedWord = 0xFFFFFFFFU;

/// Recording-layout -> trial-layout address mapping of one BBR lane. A null
/// table is the identity (non-BBR lanes run the recorded layout itself).
struct AddressTranslator {
    const std::uint32_t* table = nullptr;
    std::uint32_t tableWords = 0;
    std::uint32_t base = 0;

    [[nodiscard]] std::uint32_t translate(std::uint32_t recAddr) const {
        if (table == nullptr) return recAddr;
        const std::uint32_t word = (recAddr - base) / 4;
        VC_EXPECTS(word < tableWords);
        const std::uint32_t trialAddr = table[word];
        VC_CHECK(trialAddr != kUnmappedWord);
        return trialAddr;
    }
    /// Data addresses are translated only when they land inside the
    /// recording image (literal reads through computed pointers); heap,
    /// stack, and globals live outside the code image in both layouts.
    [[nodiscard]] std::uint32_t translateData(std::uint32_t recAddr) const {
        if (table == nullptr) return recAddr;
        const std::uint32_t word = (recAddr - base) / 4;
        if (word >= tableWords) return recAddr;
        const std::uint32_t trialAddr = table[word];
        VC_CHECK(trialAddr != kUnmappedWord);
        return trialAddr;
    }
};

// ---------------------------------------------------------------------------
// Multi-map replay: decode the trace once per chunk into a flat pre-lowered
// tape, then advance every lane through the chunk before decoding the next
// one. The varint/zigzag cursor work and the recording-image position walk
// are paid once per batch instead of once per lane, and each lane runs the
// shared timing kernel (cpu/timing_kernel.h) over flat tape loads.
// ---------------------------------------------------------------------------

/// One pre-lowered instruction of the recorded stream. `aux` is the one
/// recorded fact the opcode needs: the data address (Lw/Sw), the literal
/// address (Ldl), or the recording-layout control-flow target
/// (Jal/Jalr/conditional branch) — all in recording-layout coordinates, so
/// each lane applies its own translation (identity for plain lanes).
struct TapeOp {
    Instruction inst;
    std::uint32_t recPc = 0;
    std::uint32_t aux = 0;
    std::uint8_t taken = 0;   ///< recorded branch direction (1 for jumps)
    std::uint8_t correct = 0; ///< recorded predictor verdict
};

/// Tape chunk size in instructions. 256 ops (~5KB of tape) stay hot in the
/// host's L1 while a batch's lanes take turns replaying them; larger chunks
/// amortize the per-lane state reload slightly better but start evicting
/// the lanes' tag arrays.
constexpr std::uint32_t kTapeChunkOps = 256;

/// Decodes the recorded stream chunk by chunk: the recording image's
/// position walk and the trace cursor's pops, once per batch.
class TapeBuilder {
public:
    TapeBuilder(const Image& recording, const ArchTrace& trace)
        : code_(recording.decodedInstructions()),
          cursor_(trace),
          base_(recording.baseAddr()),
          recPc_(recording.entryAddr()),
          remaining_(trace.instructions()) {
        ip_ = code_ + (recPc_ - base_) / 4;
    }

    [[nodiscard]] bool done() const noexcept { return remaining_ == 0; }
    [[nodiscard]] bool fullyConsumed() const noexcept { return cursor_.fullyConsumed(); }

    /// Decode up to `cap` instructions into `out`; returns the count.
    std::uint32_t fill(TapeOp* out, std::uint32_t cap) {
        std::uint32_t n = 0;
        while (n < cap && remaining_ != 0) {
            const Instruction inst = *ip_;
            TapeOp& op = out[n++];
            op.inst = inst;
            op.recPc = recPc_;
            op.aux = 0;
            op.taken = 0;
            op.correct = 0;
            --remaining_;
            switch (inst.op) {
                case Opcode::Lw:
                case Opcode::Sw:
                    op.aux = cursor_.nextDataAddr();
                    step();
                    break;
                case Opcode::Ldl:
                    op.aux = recPc_ + static_cast<std::uint32_t>(inst.imm) * 4;
                    step();
                    break;
                case Opcode::Jal: {
                    const CfRecord cf = cursor_.nextCf();
                    op.aux = recPc_ + static_cast<std::uint32_t>(inst.imm) * 4;
                    op.taken = 1;
                    op.correct = cf.correct ? 1 : 0;
                    jumpTo(op.aux);
                    break;
                }
                case Opcode::Jalr: {
                    const CfRecord cf = cursor_.nextCf();
                    op.aux = cursor_.nextJalrTarget();
                    op.taken = 1;
                    op.correct = cf.correct ? 1 : 0;
                    jumpTo(op.aux);
                    break;
                }
                case Opcode::Halt:
                    break; // always the last recorded instruction; no step
                default:
                    if (isConditionalBranch(inst.op)) {
                        const CfRecord cf = cursor_.nextCf();
                        op.aux = recPc_ + static_cast<std::uint32_t>(inst.imm) * 4;
                        op.taken = cf.taken ? 1 : 0;
                        op.correct = cf.correct ? 1 : 0;
                        if (cf.taken) {
                            jumpTo(op.aux);
                        } else {
                            step();
                        }
                    } else {
                        step();
                    }
                    break;
            }
        }
        return n;
    }

private:
    void step() {
        recPc_ += 4;
        ++ip_;
    }
    void jumpTo(std::uint32_t target) {
        recPc_ = target;
        ip_ = code_ + (recPc_ - base_) / 4;
    }

    const Instruction* code_;
    const Instruction* ip_;
    ArchTrace::Cursor cursor_;
    std::uint32_t base_;
    std::uint32_t recPc_;
    std::uint64_t remaining_;
};

/// Tape-walking Driver for timing::runPipelineChunk. Every recorded fact is
/// a flat load from the pre-lowered tape; plain lanes (`kBbr == false`,
/// identity layout, replayed predictor verdicts) compile the translation
/// and the predictor away entirely, while BBR lanes carry their per-trial
/// translated pc and run a live predictor over it.
template <bool kBbr>
class TapeDriver {
public:
    TapeDriver(const AddressTranslator& xlate, BranchPredictor* predictor,
               std::uint32_t entryTrialPc)
        : xlate_(xlate), predictor_(predictor), trialPc_(entryTrialPc) {}

    void beginChunk(const TapeOp* ops, std::uint32_t count) {
        ops_ = ops;
        n_ = count;
        idx_ = 0;
    }

    [[nodiscard]] bool atEnd() const { return idx_ == n_; }
    [[nodiscard]] const Instruction& inst() const { return ops_[idx_].inst; }
    [[nodiscard]] std::uint32_t pc() const {
        if constexpr (kBbr) {
            return trialPc_;
        } else {
            return ops_[idx_].recPc;
        }
    }

    [[nodiscard]] std::uint32_t loadAddr() const { return translateData(ops_[idx_].aux); }
    [[nodiscard]] std::uint32_t literalAddr() const { return translate(ops_[idx_].aux); }
    [[nodiscard]] std::uint32_t storeAddr() const { return translateData(ops_[idx_].aux); }

    [[nodiscard]] bool condTaken() const { return ops_[idx_].taken != 0; }
    [[nodiscard]] std::uint32_t directTarget() const { return translate(ops_[idx_].aux); }
    [[nodiscard]] std::uint32_t jalrTarget() const { return translate(ops_[idx_].aux); }

    [[nodiscard]] bool resolveJump(std::uint32_t pc, std::uint32_t target) {
        if constexpr (kBbr) {
            const auto prediction = predictor_->predictJump(pc);
            return predictor_->resolve(prediction, pc, true, target,
                                       /*chargeMispredict=*/false);
        } else {
            (void)pc;
            (void)target;
            return ops_[idx_].correct != 0;
        }
    }
    [[nodiscard]] bool resolveReturn(std::uint32_t pc, std::uint32_t target) {
        if constexpr (kBbr) {
            const auto prediction = predictor_->predictReturn(pc);
            return predictor_->resolve(prediction, pc, true, target,
                                       /*chargeMispredict=*/true);
        } else {
            (void)pc;
            (void)target;
            return ops_[idx_].correct != 0;
        }
    }
    [[nodiscard]] bool resolveBranch(std::uint32_t pc, bool taken, std::uint32_t target) {
        if constexpr (kBbr) {
            const auto prediction = predictor_->predictBranch(pc);
            return predictor_->resolve(prediction, pc, taken, target,
                                       /*chargeMispredict=*/true);
        } else {
            (void)pc;
            (void)taken;
            (void)target;
            return ops_[idx_].correct != 0;
        }
    }
    void pushReturnAddress(std::uint32_t addr) {
        if constexpr (kBbr) predictor_->pushReturnAddress(addr);
    }

    // Architectural side effects: replay has no values to carry.
    void writeLui() {}
    void writeAlu() {}
    void writeLink() {}
    void writeLoad(std::uint32_t /*addr*/) {}
    void doStore(std::uint32_t /*addr*/) {}
    void notifyControlFlow(bool /*taken*/, std::uint32_t /*nextPc*/, bool /*correct*/) {}
    void notifyIssue() {}

    void stepFallthrough() {
        ++idx_;
        if constexpr (kBbr) trialPc_ += 4;
    }
    void stepBranch(bool taken, std::uint32_t target) {
        ++idx_;
        if constexpr (kBbr) trialPc_ = taken ? target : trialPc_ + 4;
    }
    void stepJump(std::uint32_t target) {
        ++idx_;
        if constexpr (kBbr) trialPc_ = target;
    }
    void stepJalr(std::uint32_t target) {
        ++idx_;
        if constexpr (kBbr) trialPc_ = target;
    }

private:
    [[nodiscard]] std::uint32_t translate(std::uint32_t recAddr) const {
        if constexpr (kBbr) {
            return xlate_.translate(recAddr);
        } else {
            return recAddr;
        }
    }
    [[nodiscard]] std::uint32_t translateData(std::uint32_t recAddr) const {
        if constexpr (kBbr) {
            return xlate_.translateData(recAddr);
        } else {
            return recAddr;
        }
    }

    const TapeOp* ops_ = nullptr;
    std::uint32_t n_ = 0;
    std::uint32_t idx_ = 0;
    AddressTranslator xlate_;
    BranchPredictor* predictor_;
    std::uint32_t trialPc_;
};

/// Per-lane mutable state of one batch. Elements are constructed in a
/// pre-sized vector and never move, so the schemes' reference to *l2 and
/// the driver's predictor pointer stay valid for the batch's lifetime.
struct LaneRuntime {
    BatchLane* lane = nullptr;
    std::optional<detail::LegFaultMaps> localMaps;
    const detail::LegFaultMaps* maps = nullptr;
    std::unique_ptr<L2Cache> l2;
    SchemePair pair;
    std::optional<LinkOutput> trialLink;
    std::vector<std::uint32_t> table;
    std::optional<BranchPredictor> predictor;
    AddressTranslator xlate;
    PipelineConfig pipeline;
    timing::PipelineState st;
};

/// Thread-local pool of L2Cache objects reused across batches. Constructing
/// an L2 allocates and zeroes a ~400KB tag store — at tiny workload scales
/// that costs as much as replaying thousands of instructions, and it
/// recurs for every lane of every leg. reinitialize() restores the
/// as-constructed state (epoch-bumped tags, clean dirty bits, zero stats),
/// so a pooled cache is observationally identical to a fresh one: LRU
/// compares only relative ages within the current epoch.
class L2Pool {
public:
    [[nodiscard]] static std::unique_ptr<L2Cache> acquire(const L2Cache::Config& config) {
        auto& free = freeList();
        while (!free.empty()) {
            std::unique_ptr<L2Cache> l2 = std::move(free.back());
            free.pop_back();
            const CacheOrganization& org = l2->config().org;
            if (org.sizeBytes == config.org.sizeBytes &&
                org.blockBytes == config.org.blockBytes &&
                org.associativity == config.org.associativity) {
                l2->reinitialize(config);
                return l2;
            }
            // Organization changed between sweeps: drop the stale object.
        }
        return std::make_unique<L2Cache>(config);
    }

    static void release(std::unique_ptr<L2Cache> l2) {
        if (l2) freeList().push_back(std::move(l2));
    }

private:
    static std::vector<std::unique_ptr<L2Cache>>& freeList() {
        static thread_local std::vector<std::unique_ptr<L2Cache>> pool;
        return pool;
    }
};

/// Stream the whole tape through every live lane, one chunk at a time, each
/// lane running timing::runPipelineChunk over its own TapeDriver with its
/// concrete (devirtualized) scheme pair. `kBbr` is the batch's layout kind.
template <bool kBbr>
void streamTape(TapeBuilder& builder, const std::vector<LaneRuntime*>& live,
                std::uint32_t recordingEntry) {
    std::vector<TapeDriver<kBbr>> drivers;
    drivers.reserve(live.size());
    for (LaneRuntime* rt : live) {
        drivers.emplace_back(rt->xlate, rt->predictor.has_value() ? &*rt->predictor : nullptr,
                             rt->xlate.translate(recordingEntry));
    }
    std::vector<TapeOp> tape(kTapeChunkOps);
    while (!builder.done()) {
        const std::uint32_t count = builder.fill(tape.data(), kTapeChunkOps);
        for (std::size_t i = 0; i < live.size(); ++i) {
            LaneRuntime& rt = *live[i];
            TapeDriver<kBbr>& driver = drivers[i];
            withConcreteSchemes(rt.lane->config.scheme, rt.pair, [&](auto& icache, auto& dcache) {
                // Only BBR lanes pair with the BBR I-cache; skip the other
                // instantiations so each layout compiles just its own kernels.
                if constexpr (kBbr == std::is_same_v<std::decay_t<decltype(icache)>, BbrICache>) {
                    driver.beginChunk(tape.data(), count);
                    timing::runPipelineChunk(rt.st, driver, icache, dcache, rt.pipeline);
                }
            });
        }
    }
}

} // namespace

std::unique_ptr<const ReplaySource> recordReplaySource(const Module& module,
                                                       const SystemConfig& recordConfig,
                                                       std::uint64_t byteCap,
                                                       SystemResult& outResult) {
    const obs::Span span("record");
    VC_EXPECTS(!schemeNeedsBbrLinking(recordConfig.scheme));
    TraceRecorder recorder(byteCap);
    SystemConfig config = recordConfig;
    config.observers.push_back(&recorder);
    outResult = simulateSystem(module, nullptr, config);
    VC_CHECK(!outResult.linkFailed);
    if (recorder.overflowed()) {
        obs::MetricsRegistry::global().add("trace.overflows", {});
        return nullptr;
    }

    // Re-link for the cache: link() is deterministic, so this image has the
    // exact layout the recording run executed.
    LinkOutput linked = link(module);
    linked.image.warmDecodeCache();
    ArchTrace trace =
        recorder.finish(outResult.run.halted, outResult.checksum, recordConfig.maxInstructions,
                        linked.image.entryAddr(), linked.image.sizeWords());
    VC_CHECK(trace.instructions() == outResult.run.instructions);
    return std::make_unique<const ReplaySource>(
        ReplaySource{std::move(trace), std::move(linked)});
}

std::vector<std::uint32_t> buildAddressTranslation(const Image& recording,
                                                   const Image& trial) {
    std::vector<std::uint32_t> table(recording.sizeWords(), kUnmappedWord);
    const auto mapSection = [&](std::uint32_t recByte, std::uint32_t trialByte,
                                std::uint32_t words) {
        const std::uint32_t recWord = (recByte - recording.baseAddr()) / 4;
        VC_EXPECTS(recWord + words <= table.size());
        for (std::uint32_t w = 0; w < words; ++w) table[recWord + w] = trialByte + w * 4;
    };

    const auto& recBlocks = recording.placements();
    const auto& trialBlocks = trial.placements();
    VC_EXPECTS(recBlocks.size() == trialBlocks.size());
    for (std::size_t i = 0; i < recBlocks.size(); ++i) {
        const PlacedBlock& rec = recBlocks[i];
        const PlacedBlock& tri = trialBlocks[i];
        VC_EXPECTS(rec.functionIndex == tri.functionIndex &&
                   rec.blockIndex == tri.blockIndex && rec.codeWords == tri.codeWords &&
                   rec.literalWords == tri.literalWords);
        mapSection(rec.byteAddr, tri.byteAddr, rec.sizeWords());
    }
    const auto& recPools = recording.poolPlacements();
    const auto& trialPools = trial.poolPlacements();
    VC_EXPECTS(recPools.size() == trialPools.size());
    for (std::size_t i = 0; i < recPools.size(); ++i) {
        const PlacedPool& rec = recPools[i];
        const PlacedPool& tri = trialPools[i];
        VC_EXPECTS(rec.functionIndex == tri.functionIndex &&
                   rec.sizeWords == tri.sizeWords);
        mapSection(rec.byteAddr, tri.byteAddr, rec.sizeWords);
    }
    return table;
}

void replayBatch(const Module* bbrModule, const TraceCache& cache,
                 std::span<BatchLane> lanes) {
    if (lanes.empty()) return;
    const obs::Span span("replay");
    const bool needsBbr = schemeNeedsBbrLinking(lanes.front().config.scheme);
    const ReplaySource* source = needsBbr ? cache.bbr.get() : cache.plain.get();
    VC_EXPECTS(source != nullptr);
    VC_EXPECTS(source->trace.finalized() && !source->trace.overflowed());
    VC_EXPECTS(source->trace.entryAddr() == source->link.image.entryAddr());
    VC_EXPECTS(source->trace.imageWords() == source->link.image.sizeWords());

    // --- Per-lane setup: maps, L2, schemes, (BBR) link + translation. ---
    // A lane whose BBR link fails is finished here with the execution-driven
    // path's yield-loss accounting and sits out the replay.
    std::vector<LaneRuntime> rts(lanes.size());
    std::vector<LaneRuntime*> live;
    live.reserve(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        BatchLane& lane = lanes[i];
        const SystemConfig& config = lane.config;
        LaneRuntime& rt = rts[i];
        rt.lane = &lane;
        VC_EXPECTS(schemeNeedsBbrLinking(config.scheme) == needsBbr);
        VC_EXPECTS(source->trace.maxInstructions() == config.maxInstructions);
        VC_EXPECTS(config.observers.empty());

        lane.result = SystemResult{};
        if (lane.chipMaps == nullptr || detail::schemeIsDefectFree(config.scheme)) {
            rt.localMaps.emplace(detail::generateLegFaultMaps(config));
        }
        rt.maps = rt.localMaps.has_value() ? &*rt.localMaps : lane.chipMaps;

        L2Cache::Config l2Config;
        l2Config.dramLatencyCycles =
            dramLatencyCycles(config.dramLatencyNs, config.op.frequency);
        rt.l2 = L2Pool::acquire(l2Config);
        rt.pair =
            makeSchemes(config.scheme, config.l1Org, rt.maps->dcache, rt.maps->icache,
                        *rt.l2);
        VC_CHECK(rt.pair.needsBbrLinking == needsBbr);

        if (needsBbr) {
            VC_EXPECTS(bbrModule != nullptr);
            LinkOptions options;
            options.bbrPlacement = true;
            options.icacheFaultMap = &rt.maps->icache;
            try {
                rt.trialLink = analysis::linkVerified(*bbrModule, options);
            } catch (const LinkError& e) {
                lane.result.linkFailed = true;
                lane.result.forensics.failCause = e.cause();
                detail::publishLegMetrics(config, lane.result);
                continue;
            }
            lane.result.linkStats = rt.trialLink->stats;
            rt.table = buildAddressTranslation(source->link.image, rt.trialLink->image);
            rt.predictor.emplace(config.pipeline.predictor);
            rt.xlate.table = rt.table.data();
            rt.xlate.tableWords = static_cast<std::uint32_t>(rt.table.size());
            rt.xlate.base = source->link.image.baseAddr();
        } else {
            lane.result.linkStats = source->link.stats;
        }

        rt.pipeline = config.pipeline;
        rt.pipeline.maxInstructions = config.maxInstructions;
        live.push_back(&rt);
    }

    // --- Chunked replay: decode once, advance every lane through it. ---
    TapeBuilder builder(source->link.image, source->trace);
    if (needsBbr) {
        streamTape<true>(builder, live, source->link.image.entryAddr());
    } else {
        streamTape<false>(builder, live, source->link.image.entryAddr());
    }
    VC_CHECK(builder.fullyConsumed());

    // --- Per-lane finish: the replayed run must retrace the recording. ---
    for (LaneRuntime* rt : live) {
        SystemResult& result = rt->lane->result;
        result.run = timing::finalizePipeline(rt->st);
        VC_CHECK(result.run.instructions == source->trace.instructions());
        VC_CHECK(result.run.halted == source->trace.halted());
        result.checksum = source->trace.checksum();
        detail::finalizeLegResult(rt->lane->config, rt->pair, *rt->maps, result);
    }

    // Return the lanes' L2s for the next batch. The schemes in rt.pair hold
    // references into these objects, but rts is destroyed on return and the
    // pooled caches outlive it.
    for (LaneRuntime& rt : rts) L2Pool::release(std::move(rt.l2));
}

} // namespace voltcache
