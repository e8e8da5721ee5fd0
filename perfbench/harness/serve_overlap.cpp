// serve_overlap: an in-process serve::Server set up like a deployed daemon
// (on-disk store segment in a fresh directory, NDJSON leg journal,
// telemetry port, job tracing) and one loopback client submitting a fixed,
// seed-made job stream, closed loop.
//
// The stream walks the (benchmark, voltage) units of the Fig. 10 benchmarks
// at 560, 480 and 400mV in a snake order: benchmarks in a seed-shuffled
// order at one voltage, then back the other way at the next. Job k asks for
// units k and k+1 of its epoch, so every
// job after an epoch's first re-requests the legs of one unit the previous
// job simulated (store hits) and adds one fresh unit (context rebuild, new
// legs, LRU insert and segment append). After the last unit a new epoch
// starts on new chips. The store budget is far above the stream's size, so
// nothing is evicted and the hit fraction depends on the stream alone.
//
// Each job's document must equal a direct runSweep of the same job. The
// untraced run checks against runSweep without a store; the traced run
// replays the stream through runSweep with a timing LegResultSource around
// a LegStore with the daemon's options, which both checks the documents
// and times the store from outside.
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json_parse.h"
#include "common/socket.h"
#include "common/stats.h"
#include "common/version.h"
#include "core/report.h"
#include "core/sweep.h"
#include "harness.h"
#include "obs/export/telemetry.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_context.h"
#include "power/dvfs.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tracer.h"
#include "workload/workload.h"

namespace vcbench {

using namespace voltcache;

namespace {

constexpr std::uint32_t kTrials = 2;
constexpr std::uint64_t kStoreBudgetBytes = 256ull << 20; // `voltcache serve` default
/// Daemon starts per run; set-up time is their median.
constexpr int kSetupReps = 15;
/// Epochs every run submits, whatever its length: the paper-gap value is
/// taken over them, and the traced run needs an untraced and a traced one.
constexpr std::size_t kMinEpochs = 2;
/// Leading jobs the digest covers.
constexpr std::size_t kDigestJobs = 8;
constexpr auto kClientTimeout = std::chrono::milliseconds(120000);

/// Keeps timed loops' results observable so they are not optimised away.
volatile std::uint64_t g_sink = 0;

struct Unit {
    std::string benchmark;
    int mv = 0;
};

struct Job {
    serve::JobRequest request;
    SweepConfig config; ///< what the server builds from `request`
};

/// The job stream of one run. Job index k is deterministic in (seed, k).
class Stream {
public:
    explicit Stream(std::uint64_t seed) : seed_(seed) {
        std::vector<std::string> names;
        for (const auto& info : benchmarkList()) names.emplace_back(info.name);
        for (std::size_t i = names.size(); i > 1; --i) {
            std::swap(names[i - 1], names[deriveSeed(seed, 1000 + i) % i]);
        }
        const std::vector<int> mvs = {560, 480, 400};
        for (std::size_t j = 0; j < mvs.size(); ++j) {
            for (std::size_t i = 0; i < names.size(); ++i) {
                const std::string& name = j % 2 == 0 ? names[i] : names[names.size() - 1 - i];
                units_.push_back({name, mvs[j]});
            }
        }
    }

    /// Jobs per epoch: one per adjacent pair of units.
    [[nodiscard]] std::size_t perEpoch() const { return units_.size() - 1; }

    [[nodiscard]] Job job(std::size_t k) const {
        const std::size_t perEpoch = this->perEpoch();
        const std::size_t epoch = k / perEpoch;
        const Unit& a = units_[k % perEpoch];
        const Unit& b = units_[k % perEpoch + 1];
        Job job;
        serve::JobRequest& r = job.request;
        r.op = "sweep";
        r.id = "job" + std::to_string(k);
        r.trials = kTrials;
        // The NDJSON protocol carries numbers as doubles: keep seeds exact.
        r.seed = deriveSeed(seed_, 2000 + epoch) >> 11;
        r.trace = obs::traceIdHex(obs::makeRootContext(r.id));
        SweepConfig& c = job.config;
        c.trials = kTrials;
        c.scale = WorkloadScale::Small;
        c.baseSeed = r.seed;
        if (a.benchmark == b.benchmark) {
            r.benchmarks = a.benchmark;
            r.mv = std::to_string(a.mv) + "," + std::to_string(b.mv);
            c.benchmarks = {a.benchmark};
            c.points = {DvfsTable::at(Voltage::fromMillivolts(a.mv)),
                        DvfsTable::at(Voltage::fromMillivolts(b.mv))};
        } else {
            r.benchmarks = a.benchmark + "," + b.benchmark;
            r.mv = std::to_string(a.mv);
            c.benchmarks = {a.benchmark, b.benchmark};
            c.points = {DvfsTable::at(Voltage::fromMillivolts(a.mv))};
        }
        return job;
    }

private:
    std::uint64_t seed_;
    std::vector<Unit> units_;
};

/// The set-up job: the same for every seed, so set-up time does not depend
/// on the stream.
serve::JobRequest warmUpJob() {
    serve::JobRequest request;
    request.op = "sweep";
    request.id = "warm-up";
    request.benchmarks = std::string(benchmarkList().front().name);
    request.mv = "560";
    request.trials = kTrials;
    request.seed = 1;
    return request;
}

/// The document a server job frames, rendered from a direct runSweep. The
/// job's FFW+BBR 400mV EPI samples, if any, are merged into `ffwBbr400`.
std::string directDocument(const SweepConfig& config, RunningStats& ffwBbr400) {
    const SweepResult result = runSweep(config);
    const auto cell = result.cells.find({SchemeKind::FfwBbr, 400});
    if (cell != result.cells.end()) ffwBbr400.merge(cell->second.normEpi);
    SweepExportMeta meta;
    meta.version = std::string(buildVersion());
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "small";
    meta.benchmarks = config.benchmarks;
    return sweepResultToJson(result, meta);
}

/// Legs a sweep document accounts for: every cell's runs plus link
/// failures, counted as the fig10 workload counts a SweepResult's.
std::uint64_t documentLegs(const std::string& document) {
    const JsonValue root = parseJson(document);
    const JsonValue* cells = root.find("cells");
    if (cells == nullptr) throw std::runtime_error("sweep document without cells");
    double legs = 0.0;
    for (const JsonValue& cell : cells->items) {
        const JsonValue* stats = cell.find("stats");
        if (stats == nullptr) throw std::runtime_error("sweep cell without stats");
        legs += stats->numberOr("runs", 0.0) + stats->numberOr("linkFailures", 0.0);
    }
    return static_cast<std::uint64_t>(legs);
}

std::string makeTempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/serve-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) throw std::runtime_error("mkdtemp failed in " + parent);
    return pattern;
}

/// One daemon: store segment and journal in a fresh directory, telemetry
/// exporter, server loop on its own thread. The destructor stops and joins.
class Daemon {
public:
    Daemon(const std::string& scratch, unsigned threads) : dir_(makeTempDir(scratch)) {
        obs::Profiler::reset();
        obs::Profiler::setEnabled(true);
        telemetry_.emplace(0, board_);
        serve::ServeOptions options;
        options.storeDirectory = dir_;
        options.storeBudgetBytes = kStoreBudgetBytes;
        options.threads = threads;
        options.journalPath = journalPath();
        options.board = &board_;
        server_.emplace(options);
        runner_ = std::thread([this] { server_->run(); });
        try {
            socket_ = net::tcpConnect("127.0.0.1", server_->port(), kClientTimeout);
        } catch (...) {
            stop();
            throw;
        }
        reader_.emplace(socket_, serve::kMaxResponseLineBytes);
    }
    ~Daemon() {
        stop();
        std::error_code ignored;
        std::filesystem::remove_all(dir_, ignored);
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Submit one job and wait for its framed document. Returns false (and
    /// says why in `error`) on any protocol failure.
    bool submit(const serve::JobRequest& request, std::string& document, std::string& error) {
        if (!socket_.sendAll(serve::jobToJson(request) + "\n")) {
            error = "send failed";
            return false;
        }
        std::string line;
        while (true) {
            if (reader_->next(line) != serve::LineReader::Status::Line) {
                error = "connection closed before the result";
                return false;
            }
            const JsonValue event = parseJson(line);
            const std::string kind = event.stringOr("ev", "");
            if (kind == "error") {
                error = event.stringOr("message", "?");
                return false;
            }
            if (kind != "result") continue;
            if (reader_->next(document) != serve::LineReader::Status::Line) {
                error = "document line missing";
                return false;
            }
            if (document.size() != static_cast<std::size_t>(event.numberOr("bytes", -1.0))) {
                error = "document framing mismatch";
                return false;
            }
            return true;
        }
    }

    void stop() {
        if (!runner_.joinable()) return;
        socket_.close();
        server_->requestStop();
        runner_.join();
        telemetry_.reset();
        obs::Profiler::setEnabled(false);
    }

    [[nodiscard]] std::string journalPath() const { return dir_ + "/journal.ndjson"; }
    [[nodiscard]] serve::LegStore& store() { return server_->store(); }

private:
    std::string dir_;
    obs::ProgressBoard board_;
    std::optional<obs::TelemetryServer> telemetry_;
    std::optional<serve::Server> server_;
    std::thread runner_;
    net::Socket socket_;
    std::optional<serve::LineReader> reader_;
};

/// A LegResultSource that times every call into the wrapped store.
class TimingSource final : public LegResultSource {
public:
    explicit TimingSource(LegResultSource& inner) : inner_(inner) {}

    bool lookup(const Digest256& key, LegResult& out) override {
        const std::uint64_t start = nowNs();
        const bool hit = inner_.lookup(key, out);
        lookupNs += nowNs() - start;
        ++lookups;
        if (hit) ++hits;
        return hit;
    }
    void store(const Digest256& key, const LegResult& value) override {
        const std::uint64_t start = nowNs();
        inner_.store(key, value);
        storeNs += nowNs() - start;
        ++stores;
    }

    /// Totals over every call so far (workers call concurrently).
    std::atomic<std::uint64_t> lookupNs{0}, lookups{0}, hits{0}, storeNs{0}, stores{0};

private:
    LegResultSource& inner_;
};

/// Cost of one empty nowNs() pair, subtracted from per-call store timings.
double timerOverheadNs() {
    constexpr int kReps = 200000;
    const std::uint64_t start = nowNs();
    std::uint64_t sink = 0;
    for (int i = 0; i < kReps; ++i) sink += nowNs() - nowNs();
    const std::uint64_t total = nowNs() - start;
    g_sink = sink;
    return static_cast<double>(total) / kReps;
}

std::size_t countLines(const std::string& path) {
    std::ifstream file(path);
    std::size_t lines = 0;
    std::string line;
    while (std::getline(file, line)) ++lines;
    return lines;
}

/// Per-layer values of serve, hash and obs (traced run only).
void serveLayerProbes(const Options& options, const Stream& stream, std::size_t jobs,
                      const std::vector<double>& roundTripMs,
                      const std::vector<std::string>& documents, RunningStats& ffwBbr400,
                      Record& record) {
    // Direct replay of the stream through a store with the daemon's options.
    const std::string dir = makeTempDir(options.scratchDir);
    double overheadMs = 0.0;
    double lookupNs = 0.0;
    double lookups = 0.0;
    double hits = 0.0;
    double storeUs = 0.0;
    {
        serve::LegStore::Options storeOptions;
        storeOptions.byteBudget = kStoreBudgetBytes;
        storeOptions.directory = dir;
        serve::LegStore store(storeOptions);
        TimingSource timing(store);
        RunningStats unused;
        for (std::size_t k = 0; k < jobs; ++k) {
            SweepConfig config = stream.job(k).config;
            config.threads = options.threads;
            config.resultSource = &timing;
            const auto start = std::chrono::steady_clock::now();
            RunningStats& epi = k < kMinEpochs * stream.perEpoch() ? ffwBbr400 : unused;
            const std::string document = directDocument(config, epi);
            const double directMs = msSince(start);
            ++record.checksAttempted;
            if (document != documents[k]) {
                ++record.checksFailed;
                record.fail("job " + std::to_string(k) + ": store-backed runSweep differs");
            }
            overheadMs += roundTripMs[k] - directMs;
        }
        const double timer = timerOverheadNs();
        lookups = static_cast<double>(timing.lookups.load());
        hits = static_cast<double>(timing.hits.load());
        lookupNs = lookups > 0 ? static_cast<double>(timing.lookupNs.load()) / lookups - timer : 0;
        const double stores = static_cast<double>(timing.stores.load());
        storeUs = stores > 0 ? (static_cast<double>(timing.storeNs.load()) / stores - timer) / 1e3
                             : 0.0;
    }
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    record.values["serve.overhead_ms"] = overheadMs / static_cast<double>(jobs);
    record.values["serve.store.lookup_ns"] = std::max(0.0, lookupNs);
    record.values["serve.store.store_us"] = std::max(0.0, storeUs);
    record.values["serve.store.hit_frac"] = lookups > 0 ? hits / lookups : 0.0;

    // legDigest of one module's legs across many chip seeds.
    {
        const Module module = buildBenchmark(stream.job(0).config.benchmarks.front(),
                                             WorkloadScale::Small);
        const Digest256 moduleKey = moduleDigest(module);
        const SystemConfig systemTemplate;
        const auto point = DvfsTable::lowVoltagePoints().front();
        constexpr std::uint64_t kDigests = 50000;
        std::uint8_t sink = 0;
        const std::uint64_t start = nowNs();
        for (std::uint64_t i = 0; i < kDigests; ++i) {
            sink ^= legDigest(moduleKey, SchemeKind::FfwBbr, point, i, systemTemplate)[0];
        }
        record.values["hash.leg_digest_ns"] = static_cast<double>(nowNs() - start) / kDigests;
        g_sink = sink;
    }

    // Protocol: request encode + parse and result-event encode + parse.
    {
        constexpr int kReps = 20;
        const std::uint64_t start = nowNs();
        std::size_t sink = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            for (std::size_t k = 0; k < jobs; ++k) {
                const serve::JobRequest& request = stream.job(k).request;
                sink += serve::parseRequest(serve::jobToJson(request)).job.benchmarks.size();
                serve::ResultSummary summary;
                summary.documentBytes = documents[k].size();
                summary.trace = request.trace;
                sink += parseJson(serve::resultEvent(request.id, summary)).members.size();
            }
        }
        record.values["serve.protocol_us"] =
            static_cast<double>(nowNs() - start) / 1e3 / (kReps * static_cast<double>(jobs));
        g_sink = sink;
    }
}

/// Every served document against runSweep of the same job with no store
/// (the untraced run's check); job k is timed op k.
void verifyDirect(const Options& options, const Stream& stream,
                  const std::vector<std::string>& documents, RunningStats& ffwBbr400,
                  Record& record) {
    RunningStats unused;
    for (std::size_t k = 0; k < documents.size(); ++k) {
        if (!record.ops[k].ok) continue;
        SweepConfig config = stream.job(k).config;
        config.threads = options.threads;
        RunningStats& epi = k < kMinEpochs * stream.perEpoch() ? ffwBbr400 : unused;
        if (directDocument(config, epi) != documents[k]) {
            record.ops[k].ok = false;
            record.fail("job " + std::to_string(k) + " differs from a direct runSweep");
        }
    }
}

} // namespace

void runServeOverlap(const Options& options, Record& record) {
    const Stream stream(options.seed);
    std::vector<std::string> documents;
    std::vector<double> roundTripMs;
    RunningStats ffwBbr400; // the first epochs' FFW+BBR 400mV EPI, for the paper gap
    const std::uint64_t droppedBefore = registryCount("journal.dropped");

    // Set-up: daemon start (segment open, journal, telemetry) plus one fixed
    // warm-up job, kSetupReps times over for a median; the last daemon
    // serves the timed jobs.
    std::unique_ptr<Daemon> daemon;
    std::string warmDocument;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        daemon.reset();
        const auto start = std::chrono::steady_clock::now();
        daemon = std::make_unique<Daemon>(options.scratchDir, options.threads);
        std::string document;
        std::string error;
        const bool ok = daemon->submit(warmUpJob(), document, error);
        record.setupSeconds.push_back(msSince(start) / 1000.0);
        if (!ok) throw std::runtime_error("set-up job failed: " + error);
        if (rep == 0) {
            warmDocument = document;
            continue;
        }
        ++record.checksAttempted;
        if (document != warmDocument) {
            ++record.checksFailed;
            record.fail("set-up job " + std::to_string(rep) + " differs from the first");
        }
    }

    const auto windowStart = std::chrono::steady_clock::now();
    // Whole epochs only, so every run's jobs have the same mix of units. The
    // traced run alternates untraced and traced epochs, so the tracing
    // overhead compares like with like.
    const std::size_t perEpoch = stream.perEpoch();
    for (std::size_t k = 0; k % perEpoch != 0 || k < kMinEpochs * perEpoch ||
                            msSince(windowStart) < options.seconds * 1000.0;
         ++k) {
        const Job job = stream.job(k);
        const bool traced = options.trace && (k / perEpoch) % 2 == 1;
        Tracer::setEnabled(traced);
        const std::uint64_t instrBefore = registryCount("sim.instructions");
        std::string document;
        std::string error;
        const auto start = std::chrono::steady_clock::now();
        bool ok = false;
        {
            const ScopedSpan span("serve.job");
            ok = daemon->submit(job.request, document, error);
        }
        Op op;
        op.ms = msSince(start);
        Tracer::setEnabled(false);
        op.instructions = registryCount("sim.instructions") - instrBefore;
        op.legs = ok ? documentLegs(document) : 0;
        op.group = static_cast<std::uint32_t>(k / perEpoch);
        op.traced = traced;
        op.ok = ok;
        if (!ok) record.fail(job.request.id + ": " + error);
        record.ops.push_back(op);
        documents.push_back(document);
        roundTripMs.push_back(op.ms);
    }
    const std::size_t jobs = documents.size();

    if (options.trace) {
        double spans = 0.0;
        double traced = 0.0;
        const JsonValue index = parseJson(obs::JobTraceStore::global().indexJson());
        const JsonValue* retained = index.find("jobs");
        if (retained == nullptr) throw std::runtime_error("trace index without jobs");
        for (const JsonValue& entry : retained->items) {
            spans += entry.numberOr("spans", 0.0);
            traced += 1.0;
        }
        record.values["obs.trace_spans"] = traced > 0 ? spans / traced : 0.0;
    }
    const std::string journal = daemon->journalPath();
    daemon->stop();
    const double lines = static_cast<double>(countLines(journal));
    const double dropped = static_cast<double>(registryCount("journal.dropped") - droppedBefore);
    daemon.reset();

    HashWriter digest;
    for (std::size_t k = 0; k < kDigestJobs; ++k) digest.str(documents[k]);
    record.simDigest = digestToHex(digest.finish());

    if (options.trace) {
        record.values["obs.journal_lines"] = lines / static_cast<double>(jobs);
        record.values["obs.journal_dropped_frac"] = lines + dropped > 0 ? dropped / (lines + dropped)
                                                                        : 0.0;
        serveLayerProbes(options, stream, jobs, roundTripMs, documents, ffwBbr400, record);
    } else {
        verifyDirect(options, stream, documents, ffwBbr400, record);
    }
    record.values["paper_epi_gap_pp"] = paperEpiGapPp(ffwBbr400.mean());
}

} // namespace vcbench
