// Shared types of the benchmark harness: the command-line options every
// workload receives and the raw record it fills. The record holds samples,
// not statistics: perfbench/run.py turns it into the reported metrics, so
// the percentile and self-time rules live in one tested place.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/system.h"
#include "schemes/scheme.h"

namespace vcbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 1;   ///< compute threads: min(hardware threads, 4)
    std::string scratchDir; ///< where serve_overlap may create its temp dirs
};

/// One timed operation. `group` ties ops into the unit a rate is taken
/// over (one sweep, or one epoch of serve jobs).
struct Op {
    double ms = 0.0;
    std::uint64_t legs = 0;
    std::uint64_t instructions = 0; ///< simulated instructions in this op
    std::uint32_t group = 0;
    bool traced = false;            ///< ran with the span recorder on
    bool ok = true;
};

struct Record {
    std::vector<double> setupSeconds; ///< one per set-up repetition
    std::vector<Op> ops;
    std::uint64_t checksFailed = 0;   ///< failed output checks outside ops
    std::uint64_t checksAttempted = 0;
    std::vector<std::string> errors;  ///< first few failure descriptions
    std::string simDigest;            ///< hex SHA-256 over simulated statistics
    /// Deterministic simulated results and per-layer counts, by metric name.
    std::map<std::string, double> values;

    void fail(const std::string& what);
};

/// Derive a workload-specific 64-bit seed from the benchmark seed.
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// Sum of a counter family in the global metrics registry (all labels).
[[nodiscard]] std::uint64_t registryCount(const char* name);

/// Metric-name form of a scheme: schemeName() with '+' spelled out, so the
/// name stays within [A-Za-z0-9_.-].
[[nodiscard]] std::string schemeSlug(voltcache::SchemeKind kind);

/// |100 * (1 - normEpi) - 64|: the distance, in percentage points, between
/// a simulated FFW+BBR EPI saving at 400mV and the paper's 64%.
[[nodiscard]] double paperEpiGapPp(double ffwBbrNormEpi400) noexcept;

/// All eight scheme kinds, in enum order.
[[nodiscard]] std::vector<voltcache::SchemeKind> allSchemes();

[[nodiscard]] inline double msSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

/// Simulated-cycle accounting of one scheme over many legs, for the
/// sim.<scheme>.* values. add() also checks that the leg booked each lost
/// cycle to exactly one cause (the stall components never exceed the
/// cycle count) and fails the record otherwise.
struct SimTally {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t ifetchStall = 0;
    std::uint64_t dmemStall = 0;
    std::uint64_t l2Accesses = 0;

    void add(const voltcache::SystemResult& leg, Record& record);
    void publish(voltcache::SchemeKind kind, Record& record) const;
};

/// Traced probe of the BBR linker and the static verifier on one trial
/// image: link() with BBR placement against `icache`, then verifyImage()
/// on the placed image, each under its own span. Counts links and
/// placement failures (an unplaceable or vetoed image is yield loss, not
/// an error) into record.values.
void probeLinkAndVerify(const voltcache::Module& bbrModule, const voltcache::FaultMap& icache,
                        Record& record);

/// The workloads. Each fills `record` (set-up samples, timed ops, checks,
/// digest) and, when options.trace is set, the per-layer values.
void runFig10(const Options& options, Record& record);
void runServeOverlap(const Options& options, Record& record);

} // namespace vcbench
