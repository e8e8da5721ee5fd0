// In-memory span recorder for the benchmark's traced run. Spans are opened
// around calls into one voltcache layer from the harness's own code (never
// from inside the library), kept in memory, and written with the run record
// when the harness exits. Each span stores its name, start, end, the span
// that was open on the same thread when it started (its parent), and a
// dense thread id, so self time can be computed per thread afterwards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vcbench {

struct SpanRecord {
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;   ///< 0 while the span is open
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::uint32_t thread = 0;
};

/// Nanoseconds on the steady clock.
[[nodiscard]] std::uint64_t nowNs() noexcept;

/// Process-wide span store. Disabled by default; a disabled tracer makes
/// ScopedSpan a single relaxed load.
class Tracer {
public:
    static void setEnabled(bool on) noexcept;
    [[nodiscard]] static bool enabled() noexcept;
    /// Every span recorded so far, in opening order (parents precede their
    /// children). Spans still open have endNs == 0.
    [[nodiscard]] static std::vector<SpanRecord> spans();
};

/// RAII span around one layer call.
class ScopedSpan {
public:
    explicit ScopedSpan(const std::string& name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    std::int64_t index_ = -1;
    std::int64_t savedParent_ = -1;
};

} // namespace vcbench
