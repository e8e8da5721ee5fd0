// Determinism guarantees of the parallel sweep executor and the geometric
// fault-map sampler:
//   * the exported sweep JSON is byte-identical for any worker count
//     (per-leg slots + reduction in canonical leg order), and
//   * geometric gap-skipping generation produces exactly the map the coupled
//     per-word Bernoulli reference does, over a (seed, voltage) grid.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/sweep.h"
#include "faults/fault_map.h"
#include "power/dvfs.h"

namespace voltcache {
namespace {

using literals::operator""_mV;

SweepConfig smallConfig(unsigned threads) {
    SweepConfig config;
    config.benchmarks = {"crc32", "basicmath"};
    config.schemes = {SchemeKind::Robust8T, SchemeKind::SimpleWordDisable,
                      SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 2;
    config.scale = WorkloadScale::Tiny;
    config.threads = threads;
    return config;
}

std::string exportJson(const SweepResult& result, const SweepConfig& config) {
    SweepExportMeta meta;
    meta.version = "determinism-test"; // fixed: exclude git describe from the diff
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "tiny";
    meta.benchmarks = config.benchmarks;
    return sweepResultToJson(result, meta);
}

TEST(SweepDeterminism, JsonBitIdenticalAcrossThreadCounts) {
    const SweepConfig c1 = smallConfig(1);
    const std::string json1 = exportJson(runSweep(c1), c1);
    for (const unsigned threads : {2u, 8u}) {
        const SweepConfig cn = smallConfig(threads);
        const std::string jsonN = exportJson(runSweep(cn), cn);
        EXPECT_EQ(json1, jsonN) << "sweep JSON differs at --threads " << threads;
    }
}

// The batched replay engine must be a pure scheduling change: streaming one
// trace through many fault maps at once has to export the very bytes the
// one-leg-at-a-time execution-driven path exports, at every thread count.
// Nine trials put ten plain legs (one 8T, nine SWD) and nine FFW+BBR legs in
// each (benchmark, point) window, so every batch holds several lanes and
// mixes schemes.
TEST(SweepDeterminism, BatchedJsonBitIdenticalToUnbatched) {
    const auto batchConfig = [](unsigned threads, bool useReplay) {
        SweepConfig config;
        config.benchmarks = {"crc32"};
        config.schemes = {SchemeKind::Robust8T, SchemeKind::SimpleWordDisable,
                          SchemeKind::FfwBbr};
        config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
        config.trials = 9;
        config.scale = WorkloadScale::Tiny;
        config.threads = threads;
        config.useReplay = useReplay;
        return config;
    };
    const SweepConfig ref = batchConfig(1, false);
    const std::string refJson = exportJson(runSweep(ref), ref);
    for (const unsigned threads : {1u, 2u, 8u}) {
        const SweepConfig config = batchConfig(threads, true);
        EXPECT_EQ(refJson, exportJson(runSweep(config), config))
            << "batched sweep JSON diverges from unbatched at --threads " << threads;
    }
}

// generateBatch() is generate() run lane by lane off the same uniform
// streams: each lane's map must match a sequential draw from an identically
// seeded RNG, and the lane RNGs must land in the same state afterwards —
// the chip builder draws the I-cache map from the continuation of the
// D-cache map's stream, so a state divergence would silently decouple the
// batched sweep from the sequential one on the *next* structure.
TEST(SweepDeterminism, GenerateBatchMatchesSequentialGenerate) {
    const FaultMapGenerator generator;
    constexpr std::uint32_t kLanes = 8;
    for (const std::uint64_t seed : {1ull, 42ull, 0xC0FFEEull}) {
        for (const int mv : {760, 560, 480, 400}) {
            const Voltage v = Voltage::fromMillivolts(mv);
            std::vector<Rng> batched;
            std::vector<Rng> sequential;
            for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
                batched.emplace_back(seed + lane);
                sequential.emplace_back(seed + lane);
            }
            const std::vector<FaultMap> maps =
                generator.generateBatch(std::span<Rng>(batched), v, 1024, 8);
            ASSERT_EQ(maps.size(), kLanes);
            for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
                const FaultMap expected = generator.generate(sequential[lane], v, 1024, 8);
                EXPECT_EQ(maps[lane], expected)
                    << "lane " << lane << " diverges at seed " << seed << ", " << mv
                    << "mV";
                // Continuation draw: the next structure off the same stream.
                const FaultMap nextBatched = generator.generate(batched[lane], v, 512, 8);
                const FaultMap nextSequential =
                    generator.generate(sequential[lane], v, 512, 8);
                EXPECT_EQ(nextBatched, nextSequential)
                    << "lane " << lane << " RNG state diverges after batch at seed "
                    << seed << ", " << mv << "mV";
            }
        }
    }
}

// Worker count is clamped by legs, not benchmarks: a one-benchmark sweep on
// many threads must still produce the single-thread result (and not deadlock
// or lose legs).
TEST(SweepDeterminism, ManyThreadsFewLegs) {
    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(400_mV)};
    config.trials = 1;
    config.scale = WorkloadScale::Tiny;

    config.threads = 1;
    const std::string json1 = exportJson(runSweep(config), config);
    config.threads = 16;
    const std::string json16 = exportJson(runSweep(config), config);
    EXPECT_EQ(json1, json16);
}

TEST(SweepDeterminism, GeometricSamplingMatchesBernoulliReference) {
    const FaultMapGenerator generator;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 42ull, 0xC0FFEEull}) {
        for (const int mv : {760, 700, 640, 600, 560, 520, 480, 440, 400}) {
            const Voltage v = Voltage::fromMillivolts(mv);
            Rng fast(seed);
            Rng slow(seed);
            const FaultMap geometric = generator.generate(fast, v, 1024, 8);
            const FaultMap reference =
                generator.generateBernoulliReference(slow, v, 1024, 8);
            EXPECT_EQ(geometric, reference)
                << "maps diverge at seed " << seed << ", " << mv << "mV ("
                << geometric.totalFaultyWords() << " vs "
                << reference.totalFaultyWords() << " faulty words)";
        }
    }
}

// Sanity on the grid's extremes: high voltage must stay clean, the deepest
// point must actually produce faults (the equality test above would pass
// trivially on all-clean maps).
TEST(SweepDeterminism, GeometricSamplingGridIsNonTrivial) {
    const FaultMapGenerator generator;
    Rng high(7);
    EXPECT_TRUE(generator.generate(high, 760_mV, 1024, 8).clean());
    Rng low(7);
    EXPECT_GT(generator.generate(low, 400_mV, 1024, 8).totalFaultyWords(), 0u);
}

} // namespace
} // namespace voltcache
