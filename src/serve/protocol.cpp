#include "serve/protocol.h"

#include <cmath>
#include <limits>
#include <string>

#include "common/json.h"
#include "common/json_parse.h"

namespace voltcache::serve {

namespace {

/// Largest accepted request integer. Doubles hold every integer up to 2^53,
/// but 2^53 + 1 also parses as 2^53, so any number from 2^53 up may have
/// been rounded on the way in.
constexpr std::uint64_t kMaxExact = (std::uint64_t{1} << 53) - 1;

/// Integer member `key`, or `fallback` when absent. The parser reads every
/// number as a double, so only whole numbers from 0 to `max` (at most
/// kMaxExact) are accepted: anything else — negative, fractional, or
/// possibly rounded on the way in — throws JsonParseError naming the field
/// instead of being cast.
std::uint64_t exactUnsignedOr(const JsonValue& doc, std::string_view key,
                              std::uint64_t fallback, std::uint64_t max = kMaxExact) {
    const JsonValue* value = doc.find(key);
    if (value == nullptr) return fallback;
    const double number = value->asNumber();
    if (!(number >= 0.0 && number <= static_cast<double>(max)) ||
        number != std::floor(number)) {
        throw JsonParseError("field '" + std::string(key) +
                             "' must be a whole number from 0 to " + std::to_string(max));
    }
    return static_cast<std::uint64_t>(number);
}

} // namespace

Request parseRequest(std::string_view line) {
    Request request;
    JsonValue doc;
    try {
        doc = parseJson(line);
    } catch (const JsonParseError& e) {
        request.error = e.what();
        return request;
    }
    if (!doc.isObject()) {
        request.error = "request must be a JSON object";
        return request;
    }
    const std::string op = doc.stringOr("op", "");
    if (op == "ping") {
        request.kind = Request::Kind::Ping;
        return request;
    }
    if (op == "stats") {
        request.kind = Request::Kind::Stats;
        return request;
    }
    if (op != "sweep" && op != "run" && op != "verify") {
        request.error = "unknown op '" + op + "' (sweep|run|verify|ping|stats)";
        return request;
    }
    try {
        JobRequest job;
        job.op = op;
        if (op == "run") job.trials = 1;
        job.id = doc.stringOr("id", "");
        job.benchmarks = doc.stringOr("benchmarks", "");
        job.schemes = doc.stringOr("schemes", "");
        job.scale = doc.stringOr("scale", job.scale);
        job.mv = doc.stringOr("mv", "");
        constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
        job.trials =
            static_cast<std::uint32_t>(exactUnsignedOr(doc, "trials", job.trials, kU32Max));
        job.threads = static_cast<unsigned>(exactUnsignedOr(doc, "threads", 0, kU32Max));
        job.seed = exactUnsignedOr(doc, "seed", job.seed);
        job.maxInstructions = exactUnsignedOr(doc, "maxInstructions", 0);
        if (const JsonValue* progress = doc.find("progress")) {
            job.progress = progress->asBool();
        }
        job.trace = doc.stringOr("trace", "");
        request.kind = Request::Kind::Job;
        request.job = std::move(job);
    } catch (const JsonParseError& e) {
        request.kind = Request::Kind::Invalid;
        request.error = e.what();
    }
    return request;
}

std::string jobToJson(const JobRequest& job) {
    JsonWriter json;
    json.beginObject();
    json.member("op", job.op);
    if (!job.id.empty()) json.member("id", job.id);
    if (!job.benchmarks.empty()) json.member("benchmarks", job.benchmarks);
    if (!job.schemes.empty()) json.member("schemes", job.schemes);
    json.member("scale", job.scale);
    if (!job.mv.empty()) json.member("mv", job.mv);
    json.member("trials", job.trials);
    if (job.threads != 0) json.member("threads", static_cast<std::uint64_t>(job.threads));
    json.member("seed", job.seed);
    if (job.maxInstructions != 0) json.member("maxInstructions", job.maxInstructions);
    if (job.progress) json.member("progress", true);
    if (!job.trace.empty()) json.member("trace", job.trace);
    json.endObject();
    return json.str();
}

std::string pongEvent() {
    JsonWriter json;
    json.beginObject();
    json.member("ev", "pong");
    json.endObject();
    return json.str();
}

std::string acceptedEvent(const std::string& id, std::size_t queueDepth,
                          const std::string& trace) {
    JsonWriter json;
    json.beginObject();
    json.member("ev", "accepted");
    json.member("id", id);
    json.member("queue", static_cast<std::uint64_t>(queueDepth));
    if (!trace.empty()) json.member("trace", trace);
    json.endObject();
    return json.str();
}

std::string errorEvent(const std::string& id, std::string_view message) {
    JsonWriter json;
    json.beginObject();
    json.member("ev", "error");
    json.member("id", id);
    json.member("message", message);
    json.endObject();
    return json.str();
}

std::string progressEvent(const std::string& id, const SweepProgress& p) {
    JsonWriter json;
    json.beginObject();
    json.member("ev", "progress");
    json.member("id", id);
    json.member("benchmarksCompleted", static_cast<std::uint64_t>(p.completed));
    json.member("benchmarksTotal", static_cast<std::uint64_t>(p.total));
    json.member("legsCompleted", static_cast<std::uint64_t>(p.legsCompleted));
    json.member("legsTotal", static_cast<std::uint64_t>(p.legsTotal));
    json.member("legsReplayed", static_cast<std::uint64_t>(p.legsReplayed));
    json.member("legsExecuted", static_cast<std::uint64_t>(p.legsExecuted));
    json.member("legsCached", static_cast<std::uint64_t>(p.legsCached));
    json.member("workers", p.workers);
    json.endObject();
    return json.str();
}

std::string resultEvent(const std::string& id, const ResultSummary& s) {
    const std::uint64_t lookups = s.storeHits + s.storeMisses;
    JsonWriter json;
    json.beginObject();
    json.member("ev", "result");
    json.member("id", id);
    json.member("ok", s.ok);
    json.member("legs", s.legs);
    json.member("legsCached", s.legsCached);
    json.member("storeHits", s.storeHits);
    json.member("storeMisses", s.storeMisses);
    json.member("hitRate", lookups == 0
                               ? 0.0
                               : static_cast<double>(s.storeHits) /
                                     static_cast<double>(lookups));
    json.member("elapsedSeconds", s.elapsedSeconds);
    if (s.analytic) {
        json.member("analyticPassed", s.analyticPassed);
        json.member("maxZ", s.maxZ);
    }
    if (!s.trace.empty()) json.member("trace", s.trace);
    json.member("bytes", static_cast<std::uint64_t>(s.documentBytes));
    json.endObject();
    return json.str();
}

LineReader::Status LineReader::next(std::string& line) {
    while (true) {
        const std::size_t newline = buffer_.find('\n');
        if (newline != std::string::npos) {
            line.assign(buffer_, 0, newline);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            buffer_.erase(0, newline + 1);
            return Status::Line;
        }
        if (buffer_.size() > maxLine_) return Status::Overflow;
        switch (socket_.recvSome(buffer_)) {
            case net::Socket::RecvStatus::Data: break;
            case net::Socket::RecvStatus::Eof: return Status::Eof;
            case net::Socket::RecvStatus::Timeout: return Status::Timeout;
            case net::Socket::RecvStatus::Error: return Status::Error;
        }
    }
}

} // namespace voltcache::serve
