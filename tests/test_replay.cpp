// Record-once / replay-many engine (core/replay.h, cpu/arch_trace.h):
//   * trace encoding round-trips (zigzag, varints, chunk boundaries, the
//     trailing partial control-flow byte, byte-cap overflow),
//   * the headline equivalence property — for every scheme x voltage x seed,
//     a one-lane replayBatch() equals simulateSystem() field-for-field, and
//     so does every lane of a multi-lane batch mixing schemes and chips,
//   * sweep-level integration: the exported JSON is byte-identical with
//     replay on vs off (any thread count), the byte cap falls back to
//     execution-driven legs without changing results, the progress ticks
//     account every leg as replayed or executed, and every leg — replayed,
//     executed or served from a store — gets exactly one lifecycle event
//     per phase.
#include <array>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/passes.h"
#include "core/replay.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/system.h"
#include "cpu/arch_trace.h"
#include "power/dvfs.h"
#include "serve/store.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using literals::operator""_mV;

// ---------------------------------------------------------------- encoding

TEST(ReplayTrace, ZigzagRoundTrip) {
    const std::int32_t values[] = {0,  1,          -1,         63,         -64,
                                   64, 2147483647, -2147483647, -2147483648};
    for (const std::int32_t v : values) {
        EXPECT_EQ(detail::unzigzag(detail::zigzag(v)), v) << v;
    }
    // Small magnitudes map to small codes (the property varints rely on).
    EXPECT_EQ(detail::zigzag(0), 0U);
    EXPECT_EQ(detail::zigzag(-1), 1U);
    EXPECT_EQ(detail::zigzag(1), 2U);
}

TEST(ReplayTrace, StreamsRoundTripAcrossChunkBoundaries) {
    ArchTrace trace;
    // Enough multi-byte varints to cross several 64KB chunks, plus a
    // control-flow record count that is NOT a multiple of four so the
    // trailing partial byte path is exercised.
    constexpr std::uint32_t kRecords = 150'003;
    std::vector<std::uint32_t> dataAddrs;
    std::vector<std::uint32_t> jalrTargets;
    std::uint32_t addr = 0x00100000;
    std::uint32_t target = 0x400;
    for (std::uint32_t i = 0; i < kRecords; ++i) {
        trace.putCf((i % 3) == 0, (i % 5) != 0);
        addr += (i % 7) * 4 + ((i % 11) == 0 ? 1u << 20 : 0); // large deltas too
        dataAddrs.push_back(addr);
        trace.putDataAddr(addr);
        if (i % 4 == 0) {
            target = (target + i * 4) & ~3U;
            jalrTargets.push_back(target);
            trace.putJalrTarget(target);
        }
    }
    ASSERT_GT(trace.payloadBytes(), 3 * ChunkedBytes::kChunkBytes);
    trace.finalize(true, 42, 0, 0x400, 1024);

    ArchTrace::Cursor cursor(trace);
    std::size_t jalrIdx = 0;
    for (std::uint32_t i = 0; i < kRecords; ++i) {
        const CfRecord cf = cursor.nextCf();
        EXPECT_EQ(cf.taken, (i % 3) == 0) << i;
        EXPECT_EQ(cf.correct, (i % 5) != 0) << i;
        EXPECT_EQ(cursor.nextDataAddr(), dataAddrs[i]) << i;
        if (i % 4 == 0) {
            EXPECT_EQ(cursor.nextJalrTarget(), jalrTargets[jalrIdx++]);
        }
    }
    EXPECT_TRUE(cursor.fullyConsumed());
    EXPECT_FALSE(trace.overflowed());
    EXPECT_TRUE(trace.finalized());
    EXPECT_EQ(trace.checksum(), 42);
    EXPECT_TRUE(trace.halted());
}

TEST(ReplayTrace, ByteCapMarksOverflow) {
    ArchTrace trace(/*byteCap=*/8);
    for (std::uint32_t i = 0; i < 64; ++i) trace.putDataAddr(i * 4096);
    EXPECT_TRUE(trace.overflowed());

    ArchTrace uncapped(/*byteCap=*/0);
    for (std::uint32_t i = 0; i < 64; ++i) uncapped.putDataAddr(i * 4096);
    EXPECT_FALSE(uncapped.overflowed());
}

// ------------------------------------------------------------- equivalence

#define EXPECT_FIELD_EQ(field) EXPECT_EQ(exec.field, replayed.field) << where

void expectSameResult(const SystemResult& exec, const SystemResult& replayed,
                      const std::string& where) {
    EXPECT_FIELD_EQ(linkFailed);
    EXPECT_FIELD_EQ(checksum);

    EXPECT_FIELD_EQ(run.instructions);
    EXPECT_FIELD_EQ(run.cycles);
    EXPECT_FIELD_EQ(run.halted);
    EXPECT_FIELD_EQ(run.loads);
    EXPECT_FIELD_EQ(run.stores);
    EXPECT_FIELD_EQ(run.condBranches);
    EXPECT_FIELD_EQ(run.takenBranches);
    EXPECT_FIELD_EQ(run.mispredicts);
    EXPECT_FIELD_EQ(run.ifetchStallCycles);
    EXPECT_FIELD_EQ(run.dmemStallCycles);
    EXPECT_FIELD_EQ(run.branchStallCycles);
    EXPECT_FIELD_EQ(run.execStallCycles);
    EXPECT_FIELD_EQ(run.activity.instructions);
    EXPECT_FIELD_EQ(run.activity.cycles);
    EXPECT_FIELD_EQ(run.activity.l1iAccesses);
    EXPECT_FIELD_EQ(run.activity.l1dAccesses);
    EXPECT_FIELD_EQ(run.activity.l2Accesses);
    EXPECT_FIELD_EQ(run.activity.l2WriteThroughs);
    EXPECT_FIELD_EQ(run.activity.dramAccesses);
    EXPECT_FIELD_EQ(run.activity.auxAccesses);

    EXPECT_FIELD_EQ(linkStats.blocksPlaced);
    EXPECT_FIELD_EQ(linkStats.gapWords);
    EXPECT_FIELD_EQ(linkStats.imageWords);
    EXPECT_FIELD_EQ(linkStats.codeWords);
    EXPECT_FIELD_EQ(linkStats.largestBlockWords);
    EXPECT_FIELD_EQ(linkStats.scanRestarts);
    EXPECT_FIELD_EQ(linkStats.wrapArounds);

    EXPECT_FIELD_EQ(icacheStats.accesses);
    EXPECT_FIELD_EQ(icacheStats.hits);
    EXPECT_FIELD_EQ(icacheStats.lineMisses);
    EXPECT_FIELD_EQ(icacheStats.wordMisses);
    EXPECT_FIELD_EQ(icacheStats.l2Reads);
    EXPECT_FIELD_EQ(dcacheStats.accesses);
    EXPECT_FIELD_EQ(dcacheStats.hits);
    EXPECT_FIELD_EQ(dcacheStats.lineMisses);
    EXPECT_FIELD_EQ(dcacheStats.wordMisses);
    EXPECT_FIELD_EQ(dcacheStats.l2Reads);

    // Doubles must match bit-for-bit: both paths run the same accounting
    // code over identical counts, so exact == is the contract, not a tol.
    EXPECT_FIELD_EQ(epi);
    EXPECT_FIELD_EQ(runtimeSeconds);
    EXPECT_FIELD_EQ(energyBreakdown.coreDynamic);
    EXPECT_FIELD_EQ(energyBreakdown.l1Dynamic);
    EXPECT_FIELD_EQ(energyBreakdown.l2Dynamic);
    EXPECT_FIELD_EQ(energyBreakdown.dramDynamic);
    EXPECT_FIELD_EQ(energyBreakdown.auxDynamic);
    EXPECT_FIELD_EQ(energyBreakdown.coreL1Static);
    EXPECT_FIELD_EQ(energyBreakdown.l2Static);
}

#undef EXPECT_FIELD_EQ

struct Fixture {
    Module module;
    Module bbrModule;
    TraceCache traces;
};

Fixture makeFixture(const std::string& benchmark) {
    Fixture fx;
    fx.module = buildBenchmark(benchmark, WorkloadScale::Tiny);
    fx.bbrModule = fx.module;
    applyBbrTransforms(fx.bbrModule);

    SystemConfig record;
    record.scheme = SchemeKind::Conventional760;
    record.op = DvfsTable::vccminBaseline();
    SystemResult ignored;
    fx.traces.plain = recordReplaySource(fx.module, record, 0, ignored);
    fx.traces.bbr = recordReplaySource(fx.bbrModule, record, 0, ignored);
    return fx;
}

const std::vector<SchemeKind>& allSchemes() {
    static const std::vector<SchemeKind> kinds = {
        SchemeKind::DefectFree,        SchemeKind::Conventional760,
        SchemeKind::Robust8T,          SchemeKind::SimpleWordDisable,
        SchemeKind::WilkersonPlus,     SchemeKind::FbaPlus,
        SchemeKind::IdcPlus,           SchemeKind::FfwBbr,
    };
    return kinds;
}

/// One leg through the replay engine: a one-lane batch.
SystemResult replayOne(const Fixture& fx, const SystemConfig& config) {
    BatchLane lane;
    lane.config = config;
    replayBatch(&fx.bbrModule, fx.traces, std::span<BatchLane>(&lane, 1));
    return lane.result;
}

// The headline property: replay is bit-identical to execution for every
// scheme at a high / mid / floor operating point over many chips. (Table II
// has no 600mV row; 560mV is the nearest mid-grid point.)
TEST(ReplayEquivalence, AllSchemesVoltagesSeeds) {
    const Fixture fx = makeFixture("basicmath");
    for (const SchemeKind scheme : allSchemes()) {
        for (const int mv : {760, 560, 400}) {
            for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                SystemConfig config;
                config.scheme = scheme;
                config.op = DvfsTable::at(Voltage::fromMillivolts(mv));
                config.faultMapSeed = seed;
                const SystemResult exec =
                    simulateSystem(fx.module, &fx.bbrModule, config);
                const SystemResult replayed = replayOne(fx, config);
                const std::string where = std::string(schemeName(scheme)) + " @" +
                                          std::to_string(mv) + "mV seed " +
                                          std::to_string(seed);
                expectSameResult(exec, replayed, where);
            }
        }
    }
}

// Spot-check a second benchmark so the property is not basicmath-shaped.
TEST(ReplayEquivalence, SecondBenchmarkSpotCheck) {
    const Fixture fx = makeFixture("crc32");
    for (const SchemeKind scheme :
         {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SystemConfig config;
            config.scheme = scheme;
            config.op = DvfsTable::at(400_mV);
            config.faultMapSeed = seed;
            const SystemResult exec = simulateSystem(fx.module, &fx.bbrModule, config);
            const SystemResult replayed = replayOne(fx, config);
            const std::string where = std::string(schemeName(scheme)) + " crc32 seed " +
                                      std::to_string(seed);
            expectSameResult(exec, replayed, where);
        }
    }
}

// Lanes of one batch share the decoded tape but nothing else: every lane of
// a batch must equal its own execution-driven leg, for batches below, at and
// above the tape's chunking of the trace, with different plain schemes side
// by side in one batch, and with lanes on shared pre-drawn chip maps (the
// sweep's path) next to lanes that draw their own.
TEST(ReplayEquivalence, BatchedLanesMatchExecution) {
    const Fixture fx = makeFixture("basicmath");
    const std::vector<SchemeKind> plainSchemes = {
        SchemeKind::DefectFree,    SchemeKind::Conventional760, SchemeKind::Robust8T,
        SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus, SchemeKind::FbaPlus,
        SchemeKind::IdcPlus};
    for (const std::size_t laneCount : {1U, 7U, 33U}) {
        for (const bool bbr : {false, true}) {
            std::vector<SystemConfig> configs(laneCount);
            std::vector<detail::LegFaultMaps> chips;
            chips.reserve(laneCount);
            std::vector<BatchLane> lanes(laneCount);
            for (std::size_t i = 0; i < laneCount; ++i) {
                SystemConfig& config = configs[i];
                config.scheme = bbr ? SchemeKind::FfwBbr : plainSchemes[i % plainSchemes.size()];
                config.op = DvfsTable::at(i % 2 == 0 ? 400_mV : 480_mV);
                config.faultMapSeed = 100 + i;
                lanes[i].config = config;
                if (i % 3 == 0) {
                    chips.push_back(detail::generateChipFaultMaps(config));
                    lanes[i].chipMaps = &chips.back();
                }
            }
            replayBatch(&fx.bbrModule, fx.traces, lanes);
            for (std::size_t i = 0; i < laneCount; ++i) {
                const SystemResult exec =
                    simulateSystem(fx.module, &fx.bbrModule, configs[i], lanes[i].chipMaps);
                expectSameResult(exec, lanes[i].result,
                                 std::string(schemeName(configs[i].scheme)) + " lane " +
                                     std::to_string(i) + " of " + std::to_string(laneCount));
            }
        }
    }
}

// ---------------------------------------------------------------- sweeps

SweepConfig sweepConfig() {
    SweepConfig config;
    config.benchmarks = {"crc32", "basicmath"};
    config.schemes = {SchemeKind::Robust8T, SchemeKind::SimpleWordDisable,
                      SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 3;
    config.scale = WorkloadScale::Tiny;
    config.threads = 1;
    return config;
}

std::string exportJson(const SweepResult& result, const SweepConfig& config) {
    SweepExportMeta meta;
    meta.version = "replay-test"; // fixed: exclude git describe from the diff
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "tiny";
    meta.benchmarks = config.benchmarks;
    return sweepResultToJson(result, meta);
}

TEST(ReplaySweep, JsonByteIdenticalReplayVsExecution) {
    SweepConfig exec = sweepConfig();
    exec.useReplay = false;
    const std::string execJson = exportJson(runSweep(exec), exec);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SweepConfig replay = sweepConfig();
        replay.useReplay = true;
        replay.threads = threads;
        const std::string replayJson = exportJson(runSweep(replay), replay);
        EXPECT_EQ(execJson, replayJson) << "replay sweep diverges at --threads "
                                        << threads;
    }
}

// The degenerate batch shape: with one trial of one scheme per layout, every
// replay unit of the sweep is a one-lane replayBatch. That shape must stay
// anchored to execution-driven simulation too, at every thread count.
TEST(ReplaySweep, NoBatchJsonByteIdenticalToExecution) {
    const auto oneLaneConfig = [] {
        SweepConfig config = sweepConfig();
        config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
        config.trials = 1;
        return config;
    };
    SweepConfig exec = oneLaneConfig();
    exec.useReplay = false;
    const std::string execJson = exportJson(runSweep(exec), exec);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SweepConfig replay = oneLaneConfig();
        replay.threads = threads;
        SweepProgress last;
        replay.onProgress = [&last](const SweepProgress& p) { last = p; };
        const std::string replayJson = exportJson(runSweep(replay), replay);
        EXPECT_EQ(execJson, replayJson)
            << "one-lane replay diverges from execution at --threads " << threads;
        EXPECT_EQ(last.legsReplayed, last.legsTotal) << "--threads " << threads;
    }
}

TEST(ReplaySweep, ProgressAccountsEveryLeg) {
    SweepConfig config = sweepConfig();
    SweepProgress last;
    config.onProgress = [&last](const SweepProgress& p) { last = p; };

    (void)runSweep(config);
    EXPECT_EQ(last.completed, last.total);
    EXPECT_GT(last.legsTotal, 0U);
    EXPECT_EQ(last.legsCompleted, last.legsTotal);
    EXPECT_EQ(last.legsReplayed + last.legsExecuted, last.legsTotal);
    EXPECT_EQ(last.legsReplayed, last.legsTotal); // every scheme leg replayable

    config.useReplay = false;
    (void)runSweep(config);
    EXPECT_EQ(last.legsReplayed, 0U);
    EXPECT_EQ(last.legsExecuted, last.legsTotal);
}

// A byte cap too small for any real trace: recording overflows, the sweep
// logs once and runs execution-driven — and the JSON must not change.
TEST(ReplaySweep, ByteCapOverflowFallsBackToExecution) {
    SweepConfig exec = sweepConfig();
    exec.useReplay = false;
    const std::string execJson = exportJson(runSweep(exec), exec);

    SweepConfig capped = sweepConfig();
    capped.traceByteCap = 16; // bytes — overflows immediately
    SweepProgress last;
    capped.onProgress = [&last](const SweepProgress& p) { last = p; };
    const std::string cappedJson = exportJson(runSweep(capped), capped);

    EXPECT_EQ(execJson, cappedJson);
    EXPECT_EQ(last.legsReplayed, 0U);
    EXPECT_EQ(last.legsExecuted, last.legsTotal);
}

// Every leg gets exactly one Enqueued, one Started and one Finished event,
// all three flagged with where its result came from: replay, execution
// (--no-replay), or — on a half-warm store — the store for the trials it
// already holds and replay for the rest.
TEST(ReplaySweep, EveryLegHasOneEventPerPhase) {
    struct Seen {
        std::array<int, 3> phases{};
        std::array<bool, 3> replayed{};
        std::array<bool, 3> cached{};
    };
    const auto collect = [](SweepConfig config) {
        std::mutex mutex;
        std::map<std::size_t, Seen> seen;
        config.threads = 2;
        config.onLegEvent = [&](const SweepLegEvent& event) {
            const auto phase = static_cast<std::size_t>(event.phase);
            const std::scoped_lock lock(mutex);
            Seen& leg = seen[event.leg];
            ++leg.phases[phase];
            leg.replayed[phase] = event.replayed;
            leg.cached[phase] = event.cached;
        };
        (void)runSweep(config);
        return seen;
    };
    const auto expectLegs = [](const std::map<std::size_t, Seen>& seen, std::size_t legs,
                               const auto& expectCached, bool replay, const char* mode) {
        ASSERT_EQ(seen.size(), legs) << mode;
        std::size_t index = 0;
        for (const auto& [leg, events] : seen) {
            EXPECT_EQ(leg, index++) << mode;
            const bool cached = expectCached(leg);
            for (std::size_t phase = 0; phase < 3; ++phase) {
                EXPECT_EQ(events.phases[phase], 1) << mode << " leg " << leg << " phase " << phase;
                EXPECT_EQ(events.cached[phase], cached) << mode << " leg " << leg;
                EXPECT_EQ(events.replayed[phase], replay && !cached) << mode << " leg " << leg;
            }
        }
    };
    const auto never = [](std::size_t) { return false; };

    // sweepConfig(): 2 benchmarks x 2 points x (8T: 1 trial + 2 schemes x 3).
    const std::size_t legs = 2 * 2 * (1 + 2 * 3);
    expectLegs(collect(sweepConfig()), legs, never, true, "replay");

    SweepConfig exec = sweepConfig();
    exec.useReplay = false;
    expectLegs(collect(exec), legs, never, false, "execution");

    // Warm the store with two of the three trials. Within a (benchmark,
    // point) window the legs run 8T trial 0, then trials 0..2 per scheme.
    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig warmup = sweepConfig();
    warmup.trials = 2;
    warmup.resultSource = &store;
    (void)runSweep(warmup);
    SweepConfig halfWarm = sweepConfig();
    halfWarm.resultSource = &store;
    const auto warmTrial = [](std::size_t leg) {
        const std::size_t slot = leg % 7; // position in its window
        return slot == 0 || (slot - 1) % 3 < 2;
    };
    expectLegs(collect(halfWarm), legs, warmTrial, true, "half-warm store");
}

} // namespace
} // namespace voltcache
