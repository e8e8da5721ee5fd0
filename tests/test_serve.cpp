// Tests for the sweep-as-a-service layer (src/serve) and its foundations:
// the SHA-256 implementation (FIPS 180-4 vectors), the content keys
// (module/leg digests — stability, and sensitivity to every result-affecting
// config field), the LegResult wire codec, the LRU + on-disk LegStore
// (persistence across reopen, corrupted-record rejection, eviction), the
// NDJSON protocol (parsing, framing, bounded line reader), cached-sweep
// byte-identity against cold and plain sweeps, and an in-process end-to-end
// server round trip with a warm second submission.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/json_parse.h"
#include "common/socket.h"
#include "core/report.h"
#include "core/sweep.h"
#include "cpu/simulator.h"
#include "power/dvfs.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using literals::operator""_mV;

// ---- SHA-256 ----

TEST(Sha256, Fips180Vectors) {
    EXPECT_EQ(digestToHex(Sha256::digest("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digestToHex(Sha256::digest("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    // Two-block message (FIPS 180-4 appendix B.2).
    EXPECT_EQ(digestToHex(Sha256::digest(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    // Exactly one padding-boundary block (55/56/64 bytes).
    EXPECT_EQ(digestToHex(Sha256::digest(std::string(56, 'a'))),
              digestToHex(Sha256::digest(std::string(56, 'a'))));
}

TEST(Sha256, IncrementalUpdatesMatchOneShot) {
    Sha256 sha;
    sha.update("ab");
    sha.update("c");
    EXPECT_EQ(digestToHex(sha.finish()), digestToHex(Sha256::digest("abc")));
    // Long input crossing many block boundaries, fed in ragged chunks.
    const std::string big(1000, 'x');
    Sha256 ragged;
    for (std::size_t i = 0; i < big.size(); i += 77) {
        ragged.update(std::string_view(big).substr(i, 77));
    }
    EXPECT_EQ(digestToHex(ragged.finish()), digestToHex(Sha256::digest(big)));
}

TEST(HashWriter, LengthPrefixingPreventsFieldSliding) {
    // ("ab","c") and ("a","bc") must not collide: strings are
    // length-prefixed, never concatenated raw.
    HashWriter left;
    left.str("ab");
    left.str("c");
    HashWriter right;
    right.str("a");
    right.str("bc");
    EXPECT_NE(left.finish(), right.finish());
}

// ---- content keys ----

TEST(ContentKey, ModuleDigestStableAndDiscriminating) {
    const Module crc = buildBenchmark("crc32", WorkloadScale::Tiny);
    const Module crcAgain = buildBenchmark("crc32", WorkloadScale::Tiny);
    EXPECT_EQ(moduleDigest(crc), moduleDigest(crcAgain));
    EXPECT_NE(moduleDigest(crc),
              moduleDigest(buildBenchmark("basicmath", WorkloadScale::Tiny)));
    EXPECT_NE(moduleDigest(crc),
              moduleDigest(buildBenchmark("crc32", WorkloadScale::Small)));
}

TEST(ContentKey, LegDigestSensitiveToEveryResultAffectingField) {
    const Digest256 module = moduleDigest(buildBenchmark("crc32", WorkloadScale::Tiny));
    const OperatingPoint point = DvfsTable::at(400_mV);
    const SystemConfig base;
    const Digest256 reference =
        legDigest(module, SchemeKind::FfwBbr, point, 42, base);

    // Same inputs → same key, across independent computations.
    EXPECT_EQ(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, base));

    // Scheme, operating point, and chip seed.
    EXPECT_NE(reference,
              legDigest(module, SchemeKind::SimpleWordDisable, point, 42, base));
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr,
                                   DvfsTable::at(440_mV), 42, base));
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 43, base));

    // Every SystemConfig field that changes simulated results.
    SystemConfig changed = base;
    changed.faultRateScale = 2.0;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.maxInstructions = 1000;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.maxBlockWords += 1;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.dramLatencyNs += 1.0;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.energy.l1AccessEnergy *= 1.5;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.pipeline.mispredictPenalty += 1;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.pipeline.predictor.bhtEntries *= 2;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.l1Org.associativity = 2;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));

    // An operating point with a perturbed pFailBit (fault-model parameter).
    OperatingPoint perturbed = point;
    perturbed.pFailBit *= 1.01;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, perturbed, 42, base));
}

// ---- LegResult codec ----

LegResult sampleResult() {
    LegResult value;
    value.normRuntime = 1.25;
    value.l2PerKilo = 17.5;
    value.normEpi = 0.75;
    value.busyFrac = 0.5;
    value.ifetchFrac = 0.25;
    value.dmemFrac = 0.125;
    value.branchFrac = 0.125;
    value.forensics.hasFfw = true;
    value.forensics.ffwWindowSize[8] = 1000;
    value.forensics.ffwRecenters = 7;
    value.forensics.hasBbr = true;
    value.forensics.bbrChunkWords[3] = 12;
    value.forensics.bbrBlocksPlaced = 99;
    return value;
}

TEST(LegResultCodec, RoundTrip) {
    const LegResult value = sampleResult();
    const std::string payload = serve::encodeLegResult(value);
    EXPECT_EQ(payload.size(), serve::kLegPayloadBytes);
    LegResult decoded;
    ASSERT_TRUE(serve::decodeLegResult(payload, decoded));
    EXPECT_EQ(serve::encodeLegResult(decoded), payload);
    EXPECT_DOUBLE_EQ(decoded.normRuntime, value.normRuntime);
    EXPECT_EQ(decoded.forensics.ffwWindowSize[8], 1000u);
    EXPECT_EQ(decoded.forensics.bbrBlocksPlaced, 99u);
}

TEST(LegResultCodec, RejectsWrongSizeAndBadEnum) {
    LegResult out;
    EXPECT_FALSE(serve::decodeLegResult("short", out));
    std::string payload = serve::encodeLegResult(sampleResult());
    payload.back() = '\x7f'; // failCause out of range
    EXPECT_FALSE(serve::decodeLegResult(payload, out));
}

// ---- LegStore ----

std::string freshDir(const char* stem) {
    const std::string dir = testing::TempDir() + stem;
    std::filesystem::remove_all(dir);
    return dir;
}

Digest256 keyFor(std::uint8_t tag) {
    Digest256 key{};
    key[0] = tag;
    return key;
}

TEST(LegStore, HitMissAndStats) {
    serve::LegStore store({.byteBudget = 1 << 20, .directory = ""});
    LegResult out;
    EXPECT_FALSE(store.lookup(keyFor(1), out));
    store.store(keyFor(1), sampleResult());
    ASSERT_TRUE(store.lookup(keyFor(1), out));
    EXPECT_DOUBLE_EQ(out.l2PerKilo, 17.5);
    const serve::LegStore::Stats stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(LegStore, EvictsLeastRecentlyUsedUnderByteBudget) {
    // Budget for ~2 entries; inserting 3 must evict the least recently used.
    serve::LegStore store({.byteBudget = 1400, .directory = ""});
    store.store(keyFor(1), sampleResult());
    store.store(keyFor(2), sampleResult());
    LegResult out;
    ASSERT_TRUE(store.lookup(keyFor(1), out)); // touch 1 → 2 becomes LRU
    store.store(keyFor(3), sampleResult());
    EXPECT_TRUE(store.lookup(keyFor(1), out));
    EXPECT_FALSE(store.lookup(keyFor(2), out));
    EXPECT_TRUE(store.lookup(keyFor(3), out));
    EXPECT_GE(store.stats().evictions, 1u);
}

TEST(LegStore, SegmentSurvivesReopen) {
    const std::string dir = freshDir("legstore_reopen");
    {
        serve::LegStore store({.byteBudget = 1 << 20, .directory = dir});
        store.store(keyFor(1), sampleResult());
        store.store(keyFor(2), sampleResult());
    } // destructor flushes
    serve::LegStore reopened({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(reopened.stats().loaded, 2u);
    EXPECT_EQ(reopened.stats().rejected, 0u);
    LegResult out;
    EXPECT_TRUE(reopened.lookup(keyFor(1), out));
    EXPECT_TRUE(reopened.lookup(keyFor(2), out));
}

TEST(LegStore, RejectsCorruptedRecordOnLoad) {
    const std::string dir = freshDir("legstore_corrupt");
    {
        serve::LegStore store({.byteBudget = 1 << 20, .directory = dir});
        store.store(keyFor(1), sampleResult());
        store.store(keyFor(2), sampleResult());
    }
    // Flip one byte inside the FIRST record's payload (after the 12-byte
    // header and 32-byte key).
    const std::string path = dir + "/legs.vcs";
    {
        std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekp(12 + 32 + 8);
        char byte = 0;
        file.read(&byte, 1);
        file.seekp(12 + 32 + 8);
        byte = static_cast<char>(byte ^ 0x55);
        file.write(&byte, 1);
    }
    serve::LegStore reopened({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(reopened.stats().loaded, 1u);
    EXPECT_EQ(reopened.stats().rejected, 1u);
    LegResult out;
    EXPECT_FALSE(reopened.lookup(keyFor(1), out)); // the corrupted record
    EXPECT_TRUE(reopened.lookup(keyFor(2), out));  // framing survived
}

TEST(LegStore, DiscardsForeignOrStaleSegmentWholesale) {
    const std::string dir = freshDir("legstore_stale");
    std::filesystem::create_directories(dir);
    {
        std::ofstream file(dir + "/legs.vcs", std::ios::binary);
        file << "NOTAMAGIC-and-some-garbage";
    }
    serve::LegStore store({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(store.stats().loaded, 0u);
    EXPECT_GE(store.stats().rejected, 1u);
    // The store stays usable and the segment was re-initialized.
    store.store(keyFor(9), sampleResult());
    store.flush();
    serve::LegStore reopened({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(reopened.stats().loaded, 1u);
}

// ---- cached sweeps: byte identity ----

SweepConfig tinyConfig() {
    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 2;
    config.scale = WorkloadScale::Tiny;
    config.threads = 2;
    return config;
}

std::string exportJson(const SweepResult& result, const SweepConfig& config) {
    SweepExportMeta meta;
    meta.version = "serve-test"; // fixed: exclude git describe from the diff
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "tiny";
    meta.benchmarks = config.benchmarks;
    return sweepResultToJson(result, meta);
}

TEST(CachedSweep, WarmSweepIsByteIdenticalAndFullyCached) {
    const SweepConfig plain = tinyConfig();
    const std::string plainJson = exportJson(runSweep(plain), plain);

    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig cold = tinyConfig();
    cold.resultSource = &store;
    const std::string coldJson = exportJson(runSweep(cold), cold);
    EXPECT_EQ(plainJson, coldJson);
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_GT(store.stats().inserts, 0u);

    SweepConfig warm = tinyConfig();
    warm.resultSource = &store;
    SweepProgress last;
    warm.onProgress = [&last](const SweepProgress& progress) { last = progress; };
    const std::string warmJson = exportJson(runSweep(warm), warm);
    EXPECT_EQ(plainJson, warmJson);
    EXPECT_EQ(last.legsCached, last.legsTotal);
    EXPECT_GT(last.legsTotal, 0u);
}

TEST(CachedSweep, PartialOverlapStaysByteIdentical) {
    // Warm the store with trials=2, then run trials=3: the first two trials
    // of every point hit, the third misses — the result must still match a
    // plain trials=3 sweep byte for byte.
    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig first = tinyConfig();
    first.resultSource = &store;
    (void)runSweep(first);

    SweepConfig bigger = tinyConfig();
    bigger.trials = 3;
    const std::string plainJson = exportJson(runSweep(bigger), bigger);

    SweepConfig mixed = tinyConfig();
    mixed.trials = 3;
    mixed.resultSource = &store;
    SweepProgress last;
    mixed.onProgress = [&last](const SweepProgress& progress) { last = progress; };
    const std::string mixedJson = exportJson(runSweep(mixed), mixed);
    EXPECT_EQ(plainJson, mixedJson);
    EXPECT_GT(last.legsCached, 0u);
    EXPECT_LT(last.legsCached, last.legsTotal);
}

TEST(CachedSweep, ObserversDisableTheStore) {
    struct NullObserver : TraceObserver {};
    NullObserver observer;
    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig config = tinyConfig();
    config.resultSource = &store;
    config.systemTemplate.observers.push_back(&observer);
    config.threads = 1; // observers are not thread-safe
    (void)runSweep(config);
    // Observers must watch real execution: the store is never consulted.
    EXPECT_EQ(store.stats().hits + store.stats().misses + store.stats().inserts, 0u);
}

// ---- protocol ----

TEST(Protocol, ParsesJobsWithPerOpDefaults) {
    const serve::Request sweep = serve::parseRequest(
        R"({"op":"sweep","id":"a","benchmarks":"crc32","mv":"560,400","progress":true})");
    ASSERT_EQ(sweep.kind, serve::Request::Kind::Job);
    EXPECT_EQ(sweep.job.trials, 3u);
    EXPECT_TRUE(sweep.job.progress);
    EXPECT_EQ(sweep.job.mv, "560,400");

    const serve::Request run = serve::parseRequest(R"({"op":"run"})");
    ASSERT_EQ(run.kind, serve::Request::Kind::Job);
    EXPECT_EQ(run.job.trials, 1u);

    EXPECT_EQ(serve::parseRequest(R"({"op":"ping"})").kind,
              serve::Request::Kind::Ping);
    EXPECT_EQ(serve::parseRequest("not json").kind, serve::Request::Kind::Invalid);
    EXPECT_EQ(serve::parseRequest(R"({"op":"launch-missiles"})").kind,
              serve::Request::Kind::Invalid);
}

TEST(Protocol, JobJsonRoundTrips) {
    serve::JobRequest job;
    job.op = "verify";
    job.id = "j1";
    job.benchmarks = "crc32,basicmath";
    job.mv = "560";
    job.trials = 5;
    job.seed = 777;
    job.progress = true;
    const serve::Request parsed = serve::parseRequest(serve::jobToJson(job));
    ASSERT_EQ(parsed.kind, serve::Request::Kind::Job);
    EXPECT_EQ(parsed.job.op, "verify");
    EXPECT_EQ(parsed.job.id, "j1");
    EXPECT_EQ(parsed.job.benchmarks, "crc32,basicmath");
    EXPECT_EQ(parsed.job.trials, 5u);
    EXPECT_EQ(parsed.job.seed, 777u);
    EXPECT_TRUE(parsed.job.progress);
}

// Numbers arrive as doubles: a seed past 2^53 would be silently rounded
// (breaking "submit is byte-identical to sweep"), and negative or
// fractional counts would be undefined casts. Each must be rejected by name.
TEST(Protocol, RejectsIntegersItCannotRepresentExactly) {
    const serve::Request largest =
        serve::parseRequest(R"({"op":"sweep","seed":9007199254740991})");
    ASSERT_EQ(largest.kind, serve::Request::Kind::Job);
    EXPECT_EQ(largest.job.seed, 9007199254740991ULL);

    const struct {
        const char* line;
        const char* field;
    } rejected[] = {
        {R"({"op":"sweep","seed":9007199254740993})", "seed"},
        {R"({"op":"sweep","seed":1e19})", "seed"},
        {R"({"op":"sweep","seed":-1})", "seed"},
        {R"({"op":"sweep","trials":-2})", "trials"},
        {R"({"op":"sweep","trials":2.5})", "trials"},
        {R"({"op":"sweep","trials":4294967296})", "trials"},
        {R"({"op":"run","threads":0.5})", "threads"},
        {R"({"op":"verify","maxInstructions":-1000})", "maxInstructions"},
    };
    for (const auto& [line, field] : rejected) {
        const serve::Request request = serve::parseRequest(line);
        EXPECT_EQ(request.kind, serve::Request::Kind::Invalid) << line;
        EXPECT_NE(request.error.find(field), std::string::npos)
            << line << " -> " << request.error;
    }
}

TEST(Protocol, LineReaderSplitsAndBounds) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    net::Socket reader(fds[0]);
    net::Socket writer(fds[1]);
    ASSERT_TRUE(writer.sendAll("alpha\nbeta\r\ngam"));
    serve::LineReader lines(reader, 64);
    std::string line;
    ASSERT_EQ(lines.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, "alpha");
    ASSERT_EQ(lines.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, "beta"); // '\r' stripped
    ASSERT_TRUE(writer.sendAll("ma\n"));
    ASSERT_EQ(lines.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, "gamma");
    writer.close();
    EXPECT_EQ(lines.next(line), serve::LineReader::Status::Eof);

    // Overflow: a line longer than the bound is rejected, not buffered.
    int fds2[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
    net::Socket reader2(fds2[0]);
    net::Socket writer2(fds2[1]);
    ASSERT_TRUE(writer2.sendAll(std::string(100, 'x')));
    serve::LineReader bounded(reader2, 16);
    EXPECT_EQ(bounded.next(line), serve::LineReader::Status::Overflow);
}

// ---- end-to-end server ----

struct EventLog {
    std::vector<JsonValue> events;
    std::string document;
};

EventLog submitJob(std::uint16_t port, const std::string& requestLine) {
    net::Socket socket =
        net::tcpConnect("127.0.0.1", port, std::chrono::milliseconds(60000));
    EXPECT_TRUE(socket.sendAll(requestLine + "\n"));
    serve::LineReader reader(socket, serve::kMaxResponseLineBytes);
    EventLog log;
    std::string line;
    while (reader.next(line) == serve::LineReader::Status::Line) {
        const JsonValue event = parseJson(line);
        const std::string kind = event.stringOr("ev", "");
        log.events.push_back(event);
        if (kind == "result") {
            EXPECT_EQ(reader.next(log.document), serve::LineReader::Status::Line);
            break;
        }
        // pong / stats / error are terminal for their request; only
        // accepted / progress precede more events.
        if (kind != "accepted" && kind != "progress") break;
    }
    return log;
}

const JsonValue* lastResult(const EventLog& log) {
    for (const JsonValue& event : log.events) {
        if (event.stringOr("ev", "") == "result") return &event;
    }
    return nullptr;
}

TEST(Server, WarmSecondSubmissionIsByteIdenticalAndMostlyHits) {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = 2;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });

    const std::string request =
        R"({"op":"sweep","id":"one","benchmarks":"crc32","scale":"tiny","trials":1})";
    const EventLog first = submitJob(server.port(), request);
    const EventLog second = submitJob(server.port(), request);
    server.requestStop();
    runner.join();

    const JsonValue* firstResult = lastResult(first);
    const JsonValue* secondResult = lastResult(second);
    ASSERT_NE(firstResult, nullptr);
    ASSERT_NE(secondResult, nullptr);
    EXPECT_FALSE(first.document.empty());
    EXPECT_EQ(first.document, second.document);
    EXPECT_DOUBLE_EQ(firstResult->numberOr("hitRate", -1.0), 0.0);
    EXPECT_GE(secondResult->numberOr("hitRate", 0.0), 0.9);
    EXPECT_GT(secondResult->numberOr("legsCached", 0.0), 0.0);
    EXPECT_EQ(server.totals().jobsCompleted, 2u);
}

TEST(Server, AnswersPingRejectsGarbageAndBoundsRequests) {
    serve::ServeOptions options;
    options.port = 0;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });

    {
        const EventLog pong = submitJob(server.port(), R"({"op":"ping"})");
        ASSERT_FALSE(pong.events.empty());
        EXPECT_EQ(pong.events.front().stringOr("ev", ""), "pong");
    }
    {
        const EventLog error = submitJob(server.port(), "this is not json");
        ASSERT_FALSE(error.events.empty());
        EXPECT_EQ(error.events.front().stringOr("ev", ""), "error");
    }
    {
        // An oversized request line draws an error and a close, never a hang.
        const EventLog oversized =
            submitJob(server.port(), std::string(serve::kMaxRequestLineBytes + 10, 'z'));
        ASSERT_FALSE(oversized.events.empty());
        EXPECT_EQ(oversized.events.front().stringOr("ev", ""), "error");
    }
    {
        const EventLog stats = submitJob(server.port(), R"({"op":"stats"})");
        ASSERT_FALSE(stats.events.empty());
        EXPECT_EQ(stats.events.front().stringOr("ev", ""), "stats");
    }

    server.requestStop();
    runner.join();
}

TEST(Server, BadJobFieldsReportAnErrorEvent) {
    serve::ServeOptions options;
    options.port = 0;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });
    const EventLog log = submitJob(
        server.port(), R"({"op":"sweep","id":"bad","scale":"enormous"})");
    bool sawError = false;
    for (const JsonValue& event : log.events) {
        if (event.stringOr("ev", "") == "error") sawError = true;
    }
    EXPECT_TRUE(sawError);
    server.requestStop();
    runner.join();
    EXPECT_EQ(server.totals().jobErrors, 1u);
}

} // namespace
} // namespace voltcache
