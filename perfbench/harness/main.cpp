// vcbench: the benchmark harness binary. perfbench/run.py builds it and
// runs it once per benchmark run:
//
//   vcbench --workload fig10_sweep|serve_overlap --seed N
//           --seconds S --trace 0|1 --scratch DIR --out FILE
//
// It uses min(hardware threads, 4) compute threads and records the count.
// It writes one JSON record (samples, checks, digest, layer values, spans,
// build identity) to FILE and exits 0, or prints a diagnostic and exits
// nonzero. It never prints the benchmark's result line itself.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/version.h"
#include "obs/metrics.h"
#include "harness.h"
#include "tracer.h"

namespace vcbench {

void Record::fail(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) noexcept {
    // SplitMix64 finalizer over (seed, stream).
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t registryCount(const char* name) {
    std::uint64_t total = 0;
    for (const auto& metric : voltcache::obs::MetricsRegistry::global().snapshot()) {
        if (metric.name == name) total += metric.count;
    }
    return total;
}

std::string schemeSlug(voltcache::SchemeKind kind) {
    std::string name(voltcache::schemeName(kind));
    std::string slug;
    for (std::size_t i = 0; i < name.size(); ++i) {
        if (name[i] != '+') {
            slug += name[i];
        } else {
            slug += i + 1 == name.size() ? "-plus" : "-";
        }
    }
    return slug;
}

double paperEpiGapPp(double ffwBbrNormEpi400) noexcept {
    constexpr double kPaperEpiSavingPct = 64.0; // FFW+BBR at 400mV, paper Section VI
    return std::abs(100.0 * (1.0 - ffwBbrNormEpi400) - kPaperEpiSavingPct);
}

std::vector<voltcache::SchemeKind> allSchemes() {
    using voltcache::SchemeKind;
    return {SchemeKind::DefectFree,        SchemeKind::Conventional760, SchemeKind::Robust8T,
            SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus,   SchemeKind::FbaPlus,
            SchemeKind::IdcPlus,           SchemeKind::FfwBbr};
}

namespace {

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string renderRecord(const Options& options, const Record& record) {
    voltcache::JsonWriter json;
    json.beginObject();
    json.member("workload", options.workload);
    json.member("seed", options.seed);
    json.member("seconds", options.seconds);
    json.member("trace", options.trace);
    json.member("threads", static_cast<std::uint64_t>(options.threads));
    json.key("build");
    json.beginObject();
    json.member("compiler", VCBENCH_COMPILER);
    json.member("flags", VCBENCH_FLAGS);
    json.member("build_type", VCBENCH_BUILD_TYPE);
    json.member("ipo", VCBENCH_IPO);
    json.member("git_describe", std::string(voltcache::buildVersion()));
    json.endObject();
    json.key("setup_s");
    json.beginArray();
    for (const double s : record.setupSeconds) json.value(s);
    json.endArray();
    json.key("ops");
    json.beginArray();
    for (const Op& op : record.ops) {
        json.beginArray();
        json.value(op.ms);
        json.value(op.legs);
        json.value(op.instructions);
        json.value(static_cast<std::uint64_t>(op.group));
        json.value(op.traced);
        json.value(op.ok);
        json.endArray();
    }
    json.endArray();
    json.member("checks_attempted", record.checksAttempted);
    json.member("checks_failed", record.checksFailed);
    json.key("errors");
    json.beginArray();
    for (const std::string& e : record.errors) json.value(e);
    json.endArray();
    json.member("sim_digest", record.simDigest);
    json.key("values");
    json.beginObject();
    for (const auto& [name, value] : record.values) json.member(name, value);
    json.endObject();
    json.member("peak_rss_mb", peakRssMb());
    json.key("spans");
    json.beginArray();
    for (const SpanRecord& span : Tracer::spans()) {
        json.beginArray();
        json.value(span.name);
        json.value(span.startNs);
        json.value(span.endNs);
        json.value(static_cast<std::int64_t>(span.parent));
        json.value(static_cast<std::uint64_t>(span.thread));
        json.endArray();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::string needValue(int argc, char** argv, int& i) {
    if (i + 1 >= argc) throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

} // namespace
} // namespace vcbench

int main(int argc, char** argv) {
    using namespace vcbench;
    try {
        Options options;
        std::string out;
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--workload") {
                options.workload = needValue(argc, argv, i);
            } else if (flag == "--seed") {
                options.seed = std::stoull(needValue(argc, argv, i));
            } else if (flag == "--seconds") {
                options.seconds = std::stod(needValue(argc, argv, i));
            } else if (flag == "--trace") {
                const std::string v = needValue(argc, argv, i);
                if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
                options.trace = v == "1";
            } else if (flag == "--scratch") {
                options.scratchDir = needValue(argc, argv, i);
            } else if (flag == "--out") {
                out = needValue(argc, argv, i);
            } else {
                throw std::invalid_argument("unknown flag " + flag);
            }
        }
        if (out.empty()) throw std::invalid_argument("--out is required");
        options.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
        if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");

        Record record;
        if (options.workload == "fig10_sweep") {
            runFig10(options, record);
        } else if (options.workload == "serve_overlap") {
            if (options.scratchDir.empty()) throw std::invalid_argument("--scratch is required");
            runServeOverlap(options, record);
        } else {
            throw std::invalid_argument("unknown workload '" + options.workload + "'");
        }
        Tracer::setEnabled(false);
        std::ofstream file(out, std::ios::binary | std::ios::trunc);
        file << renderRecord(options, record) << '\n';
        file.close();
        if (!file) throw std::runtime_error("cannot write " + out);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "vcbench: %s\n", e.what());
        return 2;
    }
}
