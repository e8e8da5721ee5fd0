#include "tracer.h"

#include <atomic>
#include <chrono>
#include <mutex>

namespace vcbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_nextThread{0};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans; // guarded by g_mutex

thread_local std::int64_t t_open = -1;
thread_local std::uint32_t t_thread = g_nextThread.fetch_add(1);

} // namespace

std::uint64_t nowNs() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void Tracer::setEnabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::spans() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    return g_spans;
}

ScopedSpan::ScopedSpan(const std::string& name) {
    if (!Tracer::enabled()) return;
    SpanRecord record;
    record.name = name;
    record.parent = t_open;
    record.thread = t_thread;
    record.startNs = nowNs();
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        index_ = static_cast<std::int64_t>(g_spans.size());
        g_spans.push_back(std::move(record));
    }
    savedParent_ = t_open;
    t_open = index_;
}

ScopedSpan::~ScopedSpan() {
    if (index_ < 0) return;
    const std::uint64_t end = nowNs();
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        g_spans[static_cast<std::size_t>(index_)].endNs = end;
    }
    t_open = savedParent_;
}

} // namespace vcbench
