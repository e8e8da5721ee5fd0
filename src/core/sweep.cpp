#include "core/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include <cstdio>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/replay.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace voltcache {

namespace {

int mv(Voltage v) { return static_cast<int>(std::lround(v.millivolts())); }

std::uint64_t steadyNowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Leg-granular progress ticks are throttled to at most one per this period
/// (~5 Hz), so a single-benchmark sweep still reports while it runs without
/// turning the progress lock into a hot-path bottleneck.
constexpr std::uint64_t kLegTickPeriodNs = 200'000'000;

/// Chip seed: identical for every scheme and benchmark so comparisons are
/// paired; distinct per (voltage, trial).
std::uint64_t chipSeed(std::uint64_t base, int voltageMv, std::uint32_t trial) {
    SplitMix64 mixer(base ^ (static_cast<std::uint64_t>(voltageMv) << 32) ^ trial);
    return mixer.next();
}

void accumulate(SweepCell& cell, const LegResult& metrics) {
    if (metrics.linkFailed) {
        ++cell.linkFailures;
        return;
    }
    ++cell.runs;
    cell.normRuntime.add(metrics.normRuntime);
    cell.l2PerKilo.add(metrics.l2PerKilo);
    cell.normEpi.add(metrics.normEpi);
    cell.busyFrac.add(metrics.busyFrac);
    cell.ifetchFrac.add(metrics.ifetchFrac);
    cell.dmemFrac.add(metrics.dmemFrac);
    cell.branchFrac.add(metrics.branchFrac);
}

/// Shared immutable per-benchmark artifacts, built once before any leg runs
/// (the old executor re-ran the reference and defect-free simulations inside
/// every benchmark closure).
struct BenchmarkContext {
    std::string name;
    Module module;
    Module bbrModule;
    Digest256 digest{};                   ///< moduleDigest, when a store probes
    SystemResult ref760;                  ///< conventional cache at Vccmin
    std::vector<SystemResult> defectFree; ///< one per operating point
    /// Recorded architectural traces (plain + BBR layout) every trial leg
    /// replays from; empty slots mean execution-driven fallback.
    TraceCache traces;
};

/// One unit of work: indices into (contexts, points, schemes) plus a trial.
struct Leg {
    std::uint32_t benchmark = 0;
    std::uint32_t point = 0;
    std::uint32_t scheme = 0;
    std::uint32_t trial = 0;
};

/// Lazily-generated fault maps for one operating point — every trial's chip
/// at once, drawn by the batched generator (generateChipFaultMapsBatch).
/// The chip seeds are scheme- and benchmark-independent, so every
/// defect-tolerant leg of a (point, trial) shares one draw instead of
/// regenerating ~8K-word maps per leg, and batching the point's trials
/// amortizes the failure-model evaluation and map allocation across them.
struct PointMapSlot {
    std::once_flag once;
    std::vector<detail::LegFaultMaps> maps; ///< indexed by trial
};

/// Run `job(0..jobCount)` on `threads` workers pulling indices off an atomic
/// queue (work-stealing by over-decomposition: every index is a steal).
void runIndexed(std::size_t jobCount, unsigned threads,
                const std::function<void(std::size_t)>& job) {
    if (jobCount == 0) return;
    if (threads <= 1) {
        for (std::size_t i = 0; i < jobCount; ++i) job(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            while (true) {
                const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
                if (index >= jobCount) return;
                job(index);
            }
        });
    }
    for (auto& worker : workers) worker.join();
}

/// Where a leg's result comes from: the replay engine, execution-driven
/// simulation (the oracle, for legs without a recorded trace), or the
/// injected result store.
enum class LegSource : std::uint8_t { Replayed, Executed, Cached };
constexpr std::size_t kLegSources = 3;

/// Replayable legs of one (benchmark, point, layout) group are split into
/// batches of at most this many lanes. Larger batches amortize the tape
/// decode further but hold more lane state (~200KB per lane: two tag
/// arrays, scheme state, L2, pipeline scoreboard) and leave fewer units to
/// schedule across workers.
constexpr std::size_t kBatchLanes = 32;

/// Evaluate `lanes` of one benchmark: one replayBatch over the recorded
/// trace, or — without one — execution-driven legs one by one.
void evaluateLanes(const BenchmarkContext& ctx, std::span<BatchLane> lanes, bool replay) {
    if (replay) {
        replayBatch(&ctx.bbrModule, ctx.traces, lanes);
        return;
    }
    for (BatchLane& lane : lanes) {
        lane.result = simulateSystem(ctx.module, &ctx.bbrModule, lane.config, lane.chipMaps);
    }
}

/// Per-worker-thread (scheme, voltage) leg counters through the handle API:
/// the handles resolve to the calling thread's shard, so the hot loop never
/// touches the registry lock or another thread's cells.
class LegCounters {
public:
    LegCounters()
        : legs_(obs::MetricsRegistry::global().counter("sweep.legs")),
          bySource_{obs::MetricsRegistry::global().counter("sweep.legs_replayed"),
                    obs::MetricsRegistry::global().counter("sweep.legs_executed"),
                    obs::MetricsRegistry::global().counter("sweep.legs_cached")},
          batches_(obs::MetricsRegistry::global().counter("sweep.batches")),
          batchLanes_(obs::MetricsRegistry::global().counter("sweep.batch_lanes")) {}

    void legDone(LegSource source) {
        legs_.add();
        bySource_[static_cast<std::size_t>(source)].add();
    }

    void batchDone(std::uint64_t lanes) {
        batches_.add();
        batchLanes_.add(lanes);
    }

    void record(SchemeKind scheme, int voltageMv, bool linkFailed) {
        const auto key = std::make_pair(scheme, voltageMv);
        auto it = handles_.find(key);
        if (it == handles_.end()) {
            obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
            const obs::LabelList labels = {{"scheme", std::string(schemeName(scheme))},
                                           {"mv", std::to_string(voltageMv)}};
            it = handles_
                     .emplace(key, Handles{reg.counter("sweep.runs", labels),
                                           reg.counter("sweep.link_failures", labels)})
                     .first;
        }
        if (linkFailed) {
            it->second.linkFailures.add();
        } else {
            it->second.runs.add();
        }
    }

private:
    struct Handles {
        obs::Counter runs;
        obs::Counter linkFailures;
    };
    obs::Counter legs_;
    std::array<obs::Counter, kLegSources> bySource_;
    obs::Counter batches_;
    obs::Counter batchLanes_;
    std::map<std::pair<SchemeKind, int>, Handles> handles_;
};

} // namespace

const SweepCell& SweepResult::cell(SchemeKind kind, Voltage v) const {
    const auto it = cells.find({kind, mv(v)});
    if (it == cells.end()) {
        throw std::out_of_range("SweepResult::cell: no data for this (scheme, voltage)");
    }
    return it->second;
}

std::vector<SchemeKind> paperSchemes() {
    return {SchemeKind::Robust8T,  SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus,
            SchemeKind::FbaPlus,   SchemeKind::IdcPlus,           SchemeKind::FfwBbr};
}

Digest256 moduleDigest(const Module& module) {
    HashWriter h;
    h.str("voltcache.module.v1");
    h.u64(module.functions.size());
    for (const Function& fn : module.functions) {
        h.str(fn.name);
        h.u64(fn.blocks.size());
        for (const BasicBlock& block : fn.blocks) {
            h.str(block.label);
            h.u64(block.insts.size());
            for (const Instruction& inst : block.insts) {
                h.u32(static_cast<std::uint32_t>(inst.op));
                h.u8(inst.rd);
                h.u8(inst.rs1);
                h.u8(inst.rs2);
                h.i32(inst.imm);
            }
            h.u64(block.relocs.size());
            for (const Relocation& reloc : block.relocs) {
                h.u32(reloc.instIndex);
                h.u32(static_cast<std::uint32_t>(reloc.kind));
                h.u32(reloc.targetBlock);
                h.str(reloc.targetFunction);
                h.u32(reloc.literalIndex);
            }
            h.u64(block.literalPool.size());
            for (const std::int32_t word : block.literalPool) h.i32(word);
        }
        h.u64(fn.sharedLiteralPool.size());
        for (const std::int32_t word : fn.sharedLiteralPool) h.i32(word);
    }
    h.u64(module.data.size());
    for (const DataSegment& segment : module.data) {
        h.u32(segment.baseAddr);
        h.u64(segment.words.size());
        for (const std::int32_t word : segment.words) h.i32(word);
    }
    h.str(module.entryFunction);
    return h.finish();
}

Digest256 legDigest(const Digest256& moduleDigest, SchemeKind scheme,
                    const OperatingPoint& point, std::uint64_t chipSeed,
                    const SystemConfig& t) {
    HashWriter h;
    h.str("voltcache.leg.v1");
    h.digest(moduleDigest);
    h.u32(static_cast<std::uint32_t>(scheme));
    h.str(schemeName(scheme)); // belt and braces if kinds are ever renumbered
    h.f64(point.voltage.millivolts());
    h.f64(point.frequency.megahertz());
    h.f64(point.pFailBit);
    h.u64(chipSeed);
    // L1 organization (shared by both caches).
    h.u32(t.l1Org.sizeBytes);
    h.u32(t.l1Org.blockBytes);
    h.u32(t.l1Org.associativity);
    h.u32(t.l1Org.wordBytes);
    h.u32(t.l1Org.addressBits);
    h.u32(static_cast<std::uint32_t>(t.l1Org.dataCell));
    h.u32(static_cast<std::uint32_t>(t.l1Org.tagCell));
    h.u64(t.maxInstructions);
    h.f64(t.dramLatencyNs);
    h.u32(t.maxBlockWords);
    h.f64(t.faultRateScale);
    // Energy parameters (every reference value shifts EPI).
    h.f64(t.energy.coreDynamicPerInstr);
    h.f64(t.energy.l1AccessEnergy);
    h.f64(t.energy.l2AccessEnergy);
    h.f64(t.energy.l2WriteEnergy);
    h.f64(t.energy.dramAccessEnergy);
    h.f64(t.energy.auxAccessEnergy);
    h.f64(t.energy.coreL1StaticPower);
    h.f64(t.energy.l2StaticPower);
    h.f64(t.energy.referenceVoltage.millivolts());
    // Pipeline + predictor configuration.
    h.u32(t.pipeline.issueWidth);
    h.u32(t.pipeline.mispredictPenalty);
    h.u32(t.pipeline.mulLatency);
    h.u32(t.pipeline.divLatency);
    h.u64(t.pipeline.maxInstructions);
    h.boolean(t.pipeline.takenBranchFetchBubble);
    h.boolean(t.pipeline.dcachePortOccupancy);
    h.boolean(t.pipeline.extraDcacheCycleStalls);
    h.u32(t.pipeline.predictor.bhtEntries);
    h.u32(t.pipeline.predictor.btbEntries);
    h.u32(t.pipeline.predictor.btbWays);
    h.u32(t.pipeline.predictor.rasEntries);
    return h.finish();
}

SweepResult runSweep(const SweepConfig& config) {
    const obs::Span sweepSpan("sweep");
    std::vector<std::string> benchmarks = config.benchmarks;
    if (benchmarks.empty()) {
        for (const auto& info : benchmarkList()) benchmarks.emplace_back(info.name);
    }
    std::vector<SchemeKind> schemes = config.schemes;
    if (schemes.empty()) schemes = paperSchemes();
    std::vector<OperatingPoint> points = config.points;
    if (points.empty()) {
        const auto low = DvfsTable::lowVoltagePoints();
        points.assign(low.begin(), low.end());
    }

    unsigned requested = config.threads != 0 ? config.threads
                                             : std::thread::hardware_concurrency();
    if (requested == 0) requested = 4;

    // --- Phase 1a: modules + content digests (cheap, always built). ---
    SystemConfig baseTemplate = config.systemTemplate;
    baseTemplate.maxInstructions = config.maxInstructions;

    // Replay needs the legs to run exactly what was recorded: external
    // observers must watch real execution, so their presence disables the
    // fast path wholesale — and the result store with it (a cached leg skips
    // execution entirely, so observers would see nothing).
    const bool replayEnabled = config.useReplay && config.systemTemplate.observers.empty();
    const bool cacheEnabled =
        config.resultSource != nullptr && config.systemTemplate.observers.empty();
    const bool anyBbrScheme =
        std::any_of(schemes.begin(), schemes.end(),
                    [](SchemeKind kind) { return schemeNeedsBbrLinking(kind); });

    std::vector<BenchmarkContext> contexts(benchmarks.size());
    std::vector<std::exception_ptr> contextErrors(benchmarks.size());
    const auto buildModules = [&](std::size_t b) {
        try {
            BenchmarkContext& ctx = contexts[b];
            ctx.name = benchmarks[b];
            ctx.module = buildBenchmark(ctx.name, config.scale);
            ctx.bbrModule = ctx.module; // deep copy
            applyBbrTransforms(ctx.bbrModule, config.systemTemplate.maxBlockWords);
            if (cacheEnabled) ctx.digest = moduleDigest(ctx.module);
        } catch (...) {
            contextErrors[b] = std::current_exception();
        }
    };
    runIndexed(benchmarks.size(), std::min<unsigned>(requested, benchmarks.size()),
               buildModules);
    for (const std::exception_ptr& error : contextErrors) {
        if (error) std::rethrow_exception(error);
    }

    // --- Phase 2: flatten the grid into legs, in canonical order. ---
    std::vector<Leg> legs;
    legs.reserve(benchmarks.size() * points.size() * schemes.size() * config.trials);
    for (std::uint32_t b = 0; b < benchmarks.size(); ++b) {
        for (std::uint32_t p = 0; p < points.size(); ++p) {
            for (std::uint32_t s = 0; s < schemes.size(); ++s) {
                // Defect-free kinds are deterministic: one trial suffices.
                const std::uint32_t trials =
                    schemes[s] == SchemeKind::Robust8T ? std::min(1u, config.trials)
                                                       : config.trials;
                for (std::uint32_t t = 0; t < trials; ++t) {
                    legs.push_back(Leg{b, p, s, t});
                }
            }
        }
    }

    // --- Phase 2a: probe the result store before committing to any heavy
    // work. A hit is held until its leg completes; a benchmark whose legs
    // all hit never records a trace or runs its reference simulations.
    std::vector<std::optional<LegResult>> storeHits(legs.size());
    std::vector<Digest256> legKeys;
    if (cacheEnabled) {
        const obs::Span probeSpan("store_probe");
        legKeys.resize(legs.size());
        for (std::size_t i = 0; i < legs.size(); ++i) {
            const Leg& leg = legs[i];
            const int voltageMv = mv(points[leg.point].voltage);
            legKeys[i] = legDigest(contexts[leg.benchmark].digest, schemes[leg.scheme],
                                   points[leg.point],
                                   chipSeed(config.baseSeed, voltageMv, leg.trial),
                                   baseTemplate);
            LegResult hit;
            if (config.resultSource->lookup(legKeys[i], hit)) storeHits[i] = std::move(hit);
        }
    }
    std::vector<char> needSimulation(benchmarks.size(), cacheEnabled ? 0 : 1);
    if (cacheEnabled) {
        for (std::size_t i = 0; i < legs.size(); ++i) {
            if (!storeHits[i].has_value()) needSimulation[legs[i].benchmark] = 1;
        }
    }

    // --- Phase 1b: heavy per-benchmark artifacts (trace recording, the
    // 760mV reference, per-point defect-free runs), only where a leg will
    // actually simulate. ---
    const auto buildContext = [&](std::size_t b) {
        const obs::Span span("context");
        try {
            if (needSimulation[b] == 0) return;
            BenchmarkContext& ctx = contexts[b];

            // Conventional cache pinned at Vccmin = 760mV: the Fig. 12
            // normalization baseline (and the functional reference checksum).
            // With replay enabled this run doubles as the plain-layout trace
            // recording — the reference results are the recording run's.
            SystemConfig ref = baseTemplate;
            ref.scheme = SchemeKind::Conventional760;
            ref.op = DvfsTable::vccminBaseline();
            if (replayEnabled) {
                ctx.traces.plain =
                    recordReplaySource(ctx.module, ref, config.traceByteCap, ctx.ref760);
                if (ctx.traces.plain == nullptr) {
                    std::fprintf(stderr,
                                 "sweep: trace for '%s' exceeded the %llu-byte cap; "
                                 "falling back to execution-driven legs\n",
                                 ctx.name.c_str(),
                                 static_cast<unsigned long long>(config.traceByteCap));
                }
            } else {
                ctx.ref760 = simulateSystem(ctx.module, nullptr, ref);
            }
            VC_ENSURES(!ctx.ref760.linkFailed);

            // The BBR twin runs a different layout, so BBR legs replay their
            // own recording (one extra execution-driven run, amortized over
            // every FFW+BBR trial).
            if (replayEnabled && anyBbrScheme && ctx.traces.plain != nullptr) {
                SystemResult bbrRef;
                ctx.traces.bbr =
                    recordReplaySource(ctx.bbrModule, ref, config.traceByteCap, bbrRef);
                if (ctx.traces.bbr != nullptr && bbrRef.run.halted &&
                    ctx.ref760.run.halted) {
                    // The transform must not change the program's answer.
                    VC_CHECK(bbrRef.checksum == ctx.ref760.checksum);
                }
            }

            // One lane per operating point: the defect-free runs share the
            // plain trace, so its tape decodes once for all of them.
            std::vector<BatchLane> lanes(points.size());
            for (std::size_t p = 0; p < points.size(); ++p) {
                lanes[p].config = ref;
                lanes[p].config.scheme = SchemeKind::DefectFree;
                lanes[p].config.op = points[p];
            }
            evaluateLanes(ctx, lanes, ctx.traces.plain != nullptr);
            ctx.defectFree.reserve(points.size());
            for (BatchLane& lane : lanes) ctx.defectFree.push_back(std::move(lane.result));
        } catch (...) {
            contextErrors[b] = std::current_exception();
        }
    };
    runIndexed(benchmarks.size(), std::min<unsigned>(requested, benchmarks.size()),
               buildContext);
    for (const std::exception_ptr& error : contextErrors) {
        if (error) std::rethrow_exception(error);
    }

    {
        // Resident trace footprint, visible while the sweep holds the caches.
        std::uint64_t residentBytes = 0;
        for (const BenchmarkContext& ctx : contexts) {
            residentBytes += ctx.traces.residentBytes();
        }
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.set("trace.resident_bytes", {}, static_cast<double>(residentBytes));
        reg.gauge("trace.resident_bytes_peak").setMax(static_cast<double>(residentBytes));
    }

    // --- Phase 2b: group legs into work units. ---
    // Every leg gets one source: a store hit, replay (its layout was
    // recorded), or execution. A unit is the store hits of one (benchmark,
    // point) window, up to kBatchLanes replayable legs of one (benchmark,
    // point, layout) group streaming one decoded tape, or a single
    // execution-driven leg. Unit composition only affects scheduling —
    // every leg still writes its own canonical slot, so the reduction (and
    // the JSON) does not depend on it.
    std::vector<LegSource> sources(legs.size());
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const Leg& leg = legs[i];
        sources[i] = storeHits[i].has_value() ? LegSource::Cached
                     : contexts[leg.benchmark].traces.canReplay(schemes[leg.scheme])
                         ? LegSource::Replayed
                         : LegSource::Executed;
    }
    struct WorkUnit {
        LegSource source = LegSource::Executed;
        std::vector<std::size_t> legIdx;
    };
    std::vector<WorkUnit> units;
    {
        const auto pushChunked = [&](LegSource source, const std::vector<std::size_t>& group) {
            for (std::size_t start = 0; start < group.size(); start += kBatchLanes) {
                const std::size_t end = std::min(group.size(), start + kBatchLanes);
                units.push_back(
                    WorkUnit{source, {group.begin() + static_cast<std::ptrdiff_t>(start),
                                      group.begin() + static_cast<std::ptrdiff_t>(end)}});
            }
        };
        std::size_t i = 0;
        while (i < legs.size()) {
            std::vector<std::size_t> cachedGroup;
            std::vector<std::size_t> plainGroup;
            std::vector<std::size_t> bbrGroup;
            std::size_t j = i;
            for (; j < legs.size() && legs[j].benchmark == legs[i].benchmark &&
                   legs[j].point == legs[i].point;
                 ++j) {
                switch (sources[j]) {
                    case LegSource::Cached: cachedGroup.push_back(j); break;
                    case LegSource::Replayed:
                        (schemeNeedsBbrLinking(schemes[legs[j].scheme]) ? bbrGroup : plainGroup)
                            .push_back(j);
                        break;
                    case LegSource::Executed: units.push_back(WorkUnit{sources[j], {j}}); break;
                }
            }
            if (!cachedGroup.empty()) units.push_back(WorkUnit{LegSource::Cached, cachedGroup});
            pushChunked(LegSource::Replayed, plainGroup);
            pushChunked(LegSource::Replayed, bbrGroup);
            i = j;
        }
    }

    const unsigned workers =
        std::min<unsigned>(requested, std::max<std::size_t>(units.size(), 1));

    // Job tracing: observational only. Every leg event carries the owning
    // job's (traceHi, traceLo) and a child span id derived deterministically
    // from the canonical leg index, and finished legs feed the JobTraceStore
    // when that job is collecting. None of it touches slots, scheduling
    // decisions, or the reduction — the sweep JSON stays byte-identical.
    const bool traced = config.trace.valid();
    const bool hooked = static_cast<bool>(config.onLegEvent);
    const auto emitLegEvent = [&](SweepLegEvent::Phase phase, std::size_t index,
                                  unsigned workerId, const LegResult* outcome,
                                  std::uint64_t durationNs) {
        const Leg& leg = legs[index];
        SweepLegEvent event;
        event.phase = phase;
        event.leg = index;
        event.worker = workerId;
        event.benchmark = contexts[leg.benchmark].name;
        event.scheme = schemes[leg.scheme];
        event.voltageMv = mv(points[leg.point].voltage);
        event.trial = leg.trial;
        event.replayed = sources[index] == LegSource::Replayed;
        event.cached = sources[index] == LegSource::Cached;
        if (outcome != nullptr) {
            event.durationNs = durationNs;
            event.linkFailed = outcome->linkFailed;
            event.failCause = outcome->forensics.failCause;
        }
        if (traced) {
            event.traceHi = config.trace.traceHi;
            event.traceLo = config.trace.traceLo;
            event.spanId = obs::childSpanId(config.trace, index);
        }
        config.onLegEvent(event);
    };

    // Leg lifecycle: every leg is announced once, in canonical order, from
    // the coordinating thread before any worker starts.
    if (hooked) {
        for (std::size_t i = 0; i < legs.size(); ++i) {
            emitLegEvent(SweepLegEvent::Phase::Enqueued, i, 0, nullptr, 0);
        }
    }

    // --- Phase 3: workers pull units and fill pre-sized slots. ---
    std::vector<LegResult> slots(legs.size());
    std::vector<std::exception_ptr> legErrors(legs.size());
    std::vector<std::atomic<std::size_t>> pendingPerBenchmark(benchmarks.size());
    for (const Leg& leg : legs) {
        pendingPerBenchmark[leg.benchmark].fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<std::size_t> legsCompleted{0};
    std::array<std::atomic<std::size_t>, kLegSources> legsBySource{};
    std::size_t benchmarksCompleted = 0;
    std::mutex progressMutex;

    // One chip = one (point, trial): all defect-tolerant scheme legs across
    // every benchmark run against the same pre-drawn map pair. The whole
    // point's trials are drawn in one batched pass on first touch.
    std::vector<PointMapSlot> chipMapCache(points.size());
    const auto chipMapsFor = [&](std::uint32_t pointIdx, std::uint32_t trial,
                                 const SystemConfig& sys) -> const detail::LegFaultMaps* {
        PointMapSlot& slot = chipMapCache[pointIdx];
        std::call_once(slot.once, [&] {
            std::vector<std::uint64_t> seeds(config.trials);
            for (std::uint32_t t = 0; t < config.trials; ++t) {
                seeds[t] = chipSeed(config.baseSeed, mv(points[pointIdx].voltage), t);
            }
            slot.maps = detail::generateChipFaultMapsBatch(sys, seeds);
        });
        return &slot.maps[trial];
    };

    // The simulation inputs of one leg: its SystemConfig and, for
    // defect-tolerant schemes, the chip's shared fault maps.
    const auto fillLane = [&](std::size_t index, BatchLane& lane) {
        // ci.sh negative control: trip a contract at the requested
        // canonical leg (1-based) to exercise the flight recorder's
        // contract-hook dump path end to end.
        VC_CHECK(config.failAtLeg == 0 ||
                 index + 1 != static_cast<std::size_t>(config.failAtLeg));
        const Leg& leg = legs[index];
        const OperatingPoint& point = points[leg.point];
        lane.config = baseTemplate;
        lane.config.scheme = schemes[leg.scheme];
        lane.config.op = point;
        lane.config.faultMapSeed = chipSeed(config.baseSeed, mv(point.voltage), leg.trial);
        if (!detail::schemeIsDefectFree(lane.config.scheme)) {
            lane.chipMaps = chipMapsFor(leg.point, leg.trial, lane.config);
        }
    };

    // Deterministic per-leg metric harvest from a simulated leg.
    const auto harvestLeg = [&](const Leg& leg, const SystemResult& res) {
        const BenchmarkContext& ctx = contexts[leg.benchmark];
        LegResult metrics;
        metrics.linkFailed = res.linkFailed;
        metrics.forensics = res.forensics;
        if (!res.linkFailed) {
            // Functional correctness: every scheme must compute the same
            // answer as the 760mV reference.
            if (res.run.halted && ctx.ref760.run.halted &&
                res.checksum != ctx.ref760.checksum) {
                throw std::logic_error("checksum mismatch in '" + ctx.name +
                                       "': scheme corrupted execution");
            }
            const SystemResult& df = ctx.defectFree[leg.point];
            metrics.normRuntime = res.runtimeSeconds / df.runtimeSeconds;
            metrics.l2PerKilo = res.run.l2AccessesPerKilo();
            metrics.normEpi = res.epi / ctx.ref760.epi;
            const auto cycles = static_cast<double>(res.run.cycles);
            metrics.busyFrac = static_cast<double>(res.run.busyCycles()) / cycles;
            metrics.ifetchFrac = static_cast<double>(res.run.ifetchStallCycles) / cycles;
            metrics.dmemFrac = static_cast<double>(res.run.dmemStallCycles) / cycles;
            metrics.branchFrac = static_cast<double>(res.run.branchStallCycles) / cycles;
        }
        return metrics;
    };

    const auto progressTick = [&](bool boundary, unsigned workerCount) {
        SweepProgress tick;
        tick.boundary = boundary;
        tick.completed = benchmarksCompleted;
        tick.total = benchmarks.size();
        tick.legsCompleted = legsCompleted.load(std::memory_order_relaxed);
        tick.legsTotal = legs.size();
        const auto bySource = [&](LegSource source) {
            return legsBySource[static_cast<std::size_t>(source)].load(
                std::memory_order_relaxed);
        };
        tick.legsReplayed = bySource(LegSource::Replayed);
        tick.legsExecuted = bySource(LegSource::Executed);
        tick.legsCached = bySource(LegSource::Cached);
        tick.workers = workerCount;
        return tick;
    };

    const auto finishBenchmark = [&](std::uint32_t b) {
        const std::scoped_lock lock(progressMutex);
        ++benchmarksCompleted;
        if (config.onProgress) {
            SweepProgress tick = progressTick(/*boundary=*/true, workers);
            tick.benchmark = contexts[b].name;
            config.onProgress(tick);
        }
    };

    // Leg-granular progress: completion-driven ticks, throttled so at most
    // one fires per kLegTickPeriodNs across all workers (CAS claims the
    // window). Pure observation — the sweep JSON stays byte-identical.
    std::atomic<std::uint64_t> lastLegTickNs{steadyNowNs()};
    const auto legTick = [&] {
        if (!config.onProgress) return;
        const std::uint64_t now = steadyNowNs();
        std::uint64_t last = lastLegTickNs.load(std::memory_order_relaxed);
        if (now - last < kLegTickPeriodNs ||
            !lastLegTickNs.compare_exchange_strong(last, now,
                                                   std::memory_order_relaxed)) {
            return;
        }
        const std::scoped_lock lock(progressMutex);
        config.onProgress(progressTick(/*boundary=*/false, workers));
    };

    // Finish one leg: the only place a slot is written, a result stored, a
    // leg counted, and its Finished event, job span and progress tick
    // emitted. `outcome` is empty when the leg failed (its error is already
    // in legErrors); the leg still completes, so every Started event gets
    // its Finished one.
    const auto completeLeg = [&](std::size_t index, unsigned workerId, LegCounters& counters,
                                 std::optional<LegResult> outcome, std::uint64_t startNs,
                                 std::uint64_t durationNs) {
        const Leg& leg = legs[index];
        const LegSource source = sources[index];
        if (outcome.has_value()) {
            slots[index] = std::move(*outcome);
            counters.record(schemes[leg.scheme], mv(points[leg.point].voltage),
                            slots[index].linkFailed);
            if (cacheEnabled && source != LegSource::Cached) {
                config.resultSource->store(legKeys[index], slots[index]);
            }
        }
        const LegResult& result = slots[index];
        counters.legDone(source);
        legsCompleted.fetch_add(1, std::memory_order_relaxed);
        legsBySource[static_cast<std::size_t>(source)].fetch_add(1, std::memory_order_relaxed);
        if (hooked) {
            emitLegEvent(SweepLegEvent::Phase::Finished, index, workerId, &result, durationNs);
        }
        // Store hits render as zero-cost spans; their bookkeeping wall time
        // survives as the span's wallNs arg.
        if (traced && obs::JobTraceStore::collecting()) {
            obs::JobSpan span;
            span.name = "leg";
            span.spanId = obs::childSpanId(config.trace, index);
            span.parentSpanId = config.trace.spanId;
            span.startNs = startNs;
            span.durationNs = durationNs;
            span.worker = workerId;
            span.leg = true;
            span.benchmark = contexts[leg.benchmark].name;
            span.scheme = std::string(schemeName(schemes[leg.scheme]));
            span.voltageMv = mv(points[leg.point].voltage);
            span.trial = leg.trial;
            span.replayed = source == LegSource::Replayed;
            span.cached = source == LegSource::Cached;
            span.linkFailed = result.linkFailed;
            obs::JobTraceStore::global().record(config.trace, std::move(span));
        }
        if (pendingPerBenchmark[leg.benchmark].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            finishBenchmark(leg.benchmark);
        } else {
            legTick();
        }
    };

    std::atomic<std::uint64_t> activeWorkers{0};

    // One work unit: announce its legs, produce their results — the store
    // hits, one replayBatch, or execution-driven legs — then complete each
    // leg in canonical order. A failure while producing results is charged
    // to the unit's first leg (first-error-wins reduction surfaces it
    // deterministically); a failed harvest to its own leg.
    const auto runUnit = [&](std::size_t unitIndex, unsigned workerId,
                             LegCounters& counters) {
        activeWorkers.fetch_add(1, std::memory_order_relaxed);
        const WorkUnit& unit = units[unitIndex];
        const std::size_t count = unit.legIdx.size();
        const std::uint64_t startedNs = steadyNowNs();
        if (hooked) {
            for (const std::size_t index : unit.legIdx) {
                emitLegEvent(SweepLegEvent::Phase::Started, index, workerId, nullptr, 0);
            }
        }
        std::vector<BatchLane> lanes;
        bool ran = unit.source == LegSource::Cached;
        if (!ran) {
            lanes.resize(count);
            try {
                for (std::size_t i = 0; i < count; ++i) fillLane(unit.legIdx[i], lanes[i]);
                evaluateLanes(contexts[legs[unit.legIdx.front()].benchmark], lanes,
                              unit.source == LegSource::Replayed);
                ran = true;
            } catch (...) {
                legErrors[unit.legIdx.front()] = std::current_exception();
            }
            if (unit.source == LegSource::Replayed) counters.batchDone(count);
        }
        std::vector<std::optional<LegResult>> outcomes(count);
        for (std::size_t i = 0; i < count && ran; ++i) {
            const std::size_t index = unit.legIdx[i];
            if (unit.source == LegSource::Cached) {
                outcomes[i] = std::move(storeHits[index]);
                continue;
            }
            try {
                outcomes[i] = harvestLeg(legs[index], lanes[i].result);
            } catch (...) {
                legErrors[index] = std::current_exception();
            }
        }
        // Wall time attributed evenly: a batch's lanes ran interleaved
        // through the shared tape, so they tile the unit's window.
        const std::uint64_t legNs = (steadyNowNs() - startedNs) / count;
        for (std::size_t i = 0; i < count; ++i) {
            completeLeg(unit.legIdx[i], workerId, counters, std::move(outcomes[i]),
                        startedNs + i * legNs, legNs);
        }
        activeWorkers.fetch_sub(1, std::memory_order_relaxed);
    };

    // Worker-utilization / queue-depth sampler, attached only when someone is
    // watching (profiling enabled or a trace sink installed): its background
    // thread reads the executor's atomics and never touches leg state, so it
    // cannot perturb the deterministic result.
    std::optional<obs::UtilizationSampler> sampler;
    if (obs::Profiler::enabled() || obs::traceSink() != nullptr) {
        const std::uint64_t totalLegs = legs.size();
        sampler.emplace([&activeWorkers, &legsCompleted, workers, totalLegs] {
            const std::uint64_t active = activeWorkers.load(std::memory_order_relaxed);
            const std::uint64_t done = legsCompleted.load(std::memory_order_relaxed);
            const std::uint64_t inFlight = done + active;
            return obs::UtilizationSampler::Sample{
                active, workers, totalLegs > inFlight ? totalLegs - inFlight : 0};
        });
    }

    const auto started = std::chrono::steady_clock::now();
    if (workers <= 1) {
        LegCounters counters;
        for (std::size_t i = 0; i < units.size(); ++i) runUnit(i, 0, counters);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> team;
        team.reserve(workers);
        for (unsigned t = 0; t < workers; ++t) {
            team.emplace_back([&, t] {
                LegCounters counters;
                while (true) {
                    const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
                    if (index >= units.size()) return;
                    runUnit(index, t, counters);
                }
            });
        }
        for (auto& worker : team) worker.join();
    }
    sampler.reset(); // joins the sampler thread and emits the final sample
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    if (!legs.empty() && elapsed > 0.0) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.set("sweep.legs_per_sec", {}, static_cast<double>(legs.size()) / elapsed);
        reg.set("sweep.workers", {}, static_cast<double>(workers));
    }

    // A benchmark that contributed no legs (e.g. trials == 0) still gets its
    // completion tick, in benchmark order, for parity with the old executor.
    for (std::uint32_t b = 0; b < benchmarks.size(); ++b) {
        if (pendingPerBenchmark[b].load(std::memory_order_relaxed) == 0 &&
            std::none_of(legs.begin(), legs.end(),
                         [b](const Leg& leg) { return leg.benchmark == b; })) {
            finishBenchmark(b);
        }
    }

    // First leg error wins, by canonical leg order — deterministic for any
    // thread count (the old executor surfaced whichever thread threw first).
    for (const std::exception_ptr& error : legErrors) {
        if (error) std::rethrow_exception(error);
    }

    // --- Phase 4: deterministic reduction in canonical leg order. ---
    // Every RunningStats sees its samples in exactly this sequence, so the
    // aggregated floating-point state — and the exported JSON — is
    // bit-identical regardless of how the legs were scheduled.
    const obs::Span reduceSpan("reduce");
    SweepResult result;
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const Leg& leg = legs[i];
        const SchemeKind scheme = schemes[leg.scheme];
        const int voltageMv = mv(points[leg.point].voltage);
        accumulate(result.cells[{scheme, voltageMv}], slots[i]);
        accumulate(result.perBenchmark[{contexts[leg.benchmark].name, scheme, voltageMv}],
                   slots[i]);
        const LegForensics& forensics = slots[i].forensics;
        if (forensics.hasFfw || forensics.hasBbr ||
            forensics.failCause != LinkFailCause::None) {
            accumulate(result.forensics[{scheme, voltageMv}], forensics);
        }
    }
    return result;
}

} // namespace voltcache
