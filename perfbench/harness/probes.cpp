#include <optional>
#include <string>

#include "analysis/verify.h"
#include "harness.h"
#include "linker/linker.h"
#include "tracer.h"

namespace vcbench {

using namespace voltcache;

void SimTally::add(const SystemResult& leg, Record& record) {
    if (leg.linkFailed) return;
    const RunStats& run = leg.run;
    ++record.checksAttempted;
    const std::uint64_t stalls = run.ifetchStallCycles + run.dmemStallCycles +
                                 run.branchStallCycles + run.execStallCycles;
    if (stalls > run.cycles) {
        ++record.checksFailed;
        record.fail("stall cycles " + std::to_string(stalls) + " exceed cycles " +
                    std::to_string(run.cycles));
    }
    instructions += run.instructions;
    cycles += run.cycles;
    ifetchStall += run.ifetchStallCycles;
    dmemStall += run.dmemStallCycles;
    l2Accesses += run.activity.l2Accesses;
}

void SimTally::publish(SchemeKind kind, Record& record) const {
    if (instructions == 0) return;
    const std::string prefix = "sim." + schemeSlug(kind) + ".";
    const auto perInstr = [this](std::uint64_t n) {
        return static_cast<double>(n) / static_cast<double>(instructions);
    };
    record.values[prefix + "cpi"] = perInstr(cycles);
    record.values[prefix + "ifetch_stall_cpi"] = perInstr(ifetchStall);
    record.values[prefix + "dmem_stall_cpi"] = perInstr(dmemStall);
    record.values[prefix + "l2_per_kilo"] = 1000.0 * perInstr(l2Accesses);
}

void probeLinkAndVerify(const Module& bbrModule, const FaultMap& icache, Record& record) {
    LinkOptions options;
    options.bbrPlacement = true;
    options.icacheFaultMap = &icache;
    record.values["linker.links"] += 1;
    std::optional<LinkOutput> linked;
    try {
        const ScopedSpan span("linker.link");
        linked = link(bbrModule, options);
    } catch (const LinkError&) {
        record.values["linker.place_fails"] += 1;
        return;
    }
    bool ok = false;
    {
        const ScopedSpan span("analysis.verify");
        ok = analysis::verifyImage(bbrModule, linked->image, icache).ok();
    }
    if (!ok) record.values["linker.place_fails"] += 1;
}

} // namespace vcbench
