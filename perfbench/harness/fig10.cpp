// fig10_sweep: repeated in-process runSweep over the CLI-default grid (all
// ten benchmarks, the paper schemes, Table II 560-400mV, small scale, three
// trials, no observers, no result store) — the job that reproduces
// Figs. 10-12. The seed picks the sweep's chip set.
//
// The traced run adds a single-threaded mirror of the sweep made of the
// layer calls runSweep itself makes (module build, BBR twin, trace
// recording, batched fault-map draws on the sweep's own per-voltage chips,
// batched replay), a one-thread runSweep of the same grid to compare it
// with (its cells must equal the mirror's lane results, a counted check),
// one-scheme-per-call replay batches at 400mV, a linker + verifier probe
// on every BBR trial chip, and execution-driven legs at reference scale.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "compiler/passes.h"
#include "core/replay.h"
#include "core/report.h"
#include "core/sweep.h"
#include "harness.h"
#include "power/dvfs.h"
#include "tracer.h"
#include "workload/workload.h"

namespace vcbench {

using namespace voltcache;

namespace {

constexpr std::uint32_t kTrials = 3;        // `voltcache sweep` default

SweepConfig gridConfig(const Options& options) {
    SweepConfig config;
    config.trials = kTrials;
    config.scale = WorkloadScale::Small;
    config.threads = options.threads;
    config.baseSeed = deriveSeed(options.seed, 10);
    return config;
}

/// The sweep document as `voltcache sweep --json` writes it, with the
/// version stamp left out (it embeds git describe).
std::string renderDocument(const SweepResult& result, const SweepConfig& config) {
    SweepExportMeta meta;
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "small";
    for (const auto& info : benchmarkList()) meta.benchmarks.emplace_back(info.name);
    return sweepResultToJson(result, meta);
}

struct SweepRun {
    double ms = 0.0;
    std::uint64_t legs = 0;
    std::uint64_t instructions = 0;
    std::string document;
    double ffwBbrNormEpi400 = 0.0;
};

SweepRun timedSweep(const SweepConfig& config) {
    SweepRun run;
    const std::uint64_t before = registryCount("sim.instructions");
    const auto start = std::chrono::steady_clock::now();
    const SweepResult result = runSweep(config);
    run.ms = msSince(start);
    run.instructions = registryCount("sim.instructions") - before;
    for (const auto& [key, cell] : result.cells) run.legs += cell.runs + cell.linkFailures;
    run.document = renderDocument(result, config);
    run.ffwBbrNormEpi400 =
        result.cell(SchemeKind::FfwBbr, Voltage::fromMillivolts(400)).normEpi.mean();
    return run;
}

struct Context {
    Module module;
    Module bbrModule;
    TraceCache traces;
    SystemResult ref760;                  ///< conventional at Vccmin: the EPI baseline
    std::vector<SystemResult> defectFree; ///< one per operating point: the runtime baseline
};

using Cells = decltype(SweepResult::cells);

int millivolts(const OperatingPoint& point) {
    return static_cast<int>(std::lround(point.voltage.millivolts()));
}

/// The chip seed runSweep gives (voltage, trial): the same chip for every
/// scheme and benchmark, a different one per voltage.
std::uint64_t sweepChipSeed(std::uint64_t base, int mv, std::uint32_t trial) {
    SplitMix64 mixer(base ^ (static_cast<std::uint64_t>(mv) << 32) ^ trial);
    return mixer.next();
}

/// Adds one leg to its (scheme, voltage) cell as runSweep's reduction does.
void accumulateLeg(SweepCell& cell, const SystemResult& leg, const Context& ctx,
                   std::size_t point) {
    if (leg.linkFailed) {
        ++cell.linkFailures;
        return;
    }
    ++cell.runs;
    const auto cycles = static_cast<double>(leg.run.cycles);
    cell.normRuntime.add(leg.runtimeSeconds / ctx.defectFree[point].runtimeSeconds);
    cell.l2PerKilo.add(leg.run.l2AccessesPerKilo());
    cell.normEpi.add(leg.epi / ctx.ref760.epi);
    cell.busyFrac.add(static_cast<double>(leg.run.busyCycles()) / cycles);
    cell.ifetchFrac.add(static_cast<double>(leg.run.ifetchStallCycles) / cycles);
    cell.dmemFrac.add(static_cast<double>(leg.run.dmemStallCycles) / cycles);
    cell.branchFrac.add(static_cast<double>(leg.run.branchStallCycles) / cycles);
}

/// The sweep document of `cells` alone, for comparing two sets of cells.
std::string renderCells(const Cells& cells, const SweepConfig& config) {
    SweepResult result;
    result.cells = cells;
    return renderDocument(result, config);
}

void replayLanes(const Module* bbrModule, const TraceCache& traces,
                 std::vector<BatchLane>& lanes, const std::string& spanName, Record& record) {
    {
        const ScopedSpan span(spanName);
        replayBatch(bbrModule, traces, lanes);
    }
    record.values[spanName + ".lanes"] += static_cast<double>(lanes.size());
}

/// The traced run's layer probes (see the file comment).
void layerProbes(const SweepConfig& grid, Record& record) {
    const std::vector<SchemeKind> schemes = paperSchemes();
    const auto points = DvfsTable::lowVoltagePoints();
    SystemConfig base = grid.systemTemplate;
    base.maxInstructions = grid.maxInstructions;

    // seeds[p][t]: the chip of trial t at point p.
    std::vector<std::vector<std::uint64_t>> seeds(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        for (std::uint32_t t = 0; t < grid.trials; ++t) {
            seeds[p].push_back(sweepChipSeed(grid.baseSeed, millivolts(points[p]), t));
        }
    }

    std::vector<Context> contexts;
    std::vector<std::vector<detail::LegFaultMaps>> maps(points.size());
    Cells mirrorCells;
    {
        const ScopedSpan mirror("sweep.mirror");
        for (const auto& info : benchmarkList()) {
            Context ctx;
            {
                const ScopedSpan span("workload.build");
                ctx.module = buildBenchmark(info.name, grid.scale);
            }
            {
                const ScopedSpan span("compiler.bbr");
                ctx.bbrModule = ctx.module;
                applyBbrTransforms(ctx.bbrModule, base.maxBlockWords);
            }
            SystemConfig ref = base;
            ref.scheme = SchemeKind::Conventional760;
            ref.op = DvfsTable::vccminBaseline();
            SystemResult bbrResult;
            {
                const ScopedSpan span("cpu.record");
                ctx.traces.plain =
                    recordReplaySource(ctx.module, ref, grid.traceByteCap, ctx.ref760);
            }
            {
                const ScopedSpan span("cpu.record");
                ctx.traces.bbr =
                    recordReplaySource(ctx.bbrModule, ref, grid.traceByteCap, bbrResult);
            }
            if (ctx.traces.plain == nullptr || ctx.traces.bbr == nullptr) {
                throw std::runtime_error(std::string("trace over the byte cap: ") +
                                         std::string(info.name));
            }
            record.values["cpu.trace_bytes"] += static_cast<double>(ctx.traces.residentBytes());
            std::vector<BatchLane> lanes(points.size());
            for (std::size_t p = 0; p < points.size(); ++p) {
                lanes[p].config = ref;
                lanes[p].config.scheme = SchemeKind::DefectFree;
                lanes[p].config.op = points[p];
            }
            replayLanes(nullptr, ctx.traces, lanes, "replay.batch", record);
            for (BatchLane& lane : lanes) ctx.defectFree.push_back(std::move(lane.result));
            contexts.push_back(std::move(ctx));
        }
        for (std::size_t p = 0; p < points.size(); ++p) {
            SystemConfig sys = base;
            sys.op = points[p];
            const ScopedSpan span("faults.mapgen");
            maps[p] = detail::generateChipFaultMapsBatch(sys, seeds[p]);
        }
        record.values["faults.chips"] += static_cast<double>(points.size() * grid.trials);
        for (const Context& ctx : contexts) {
            for (std::size_t p = 0; p < points.size(); ++p) {
                std::vector<BatchLane> plain;
                std::vector<BatchLane> bbr;
                // Canonical leg order (scheme, then trial): where each leg's lane went.
                std::vector<std::pair<bool, std::size_t>> order;
                for (const SchemeKind kind : schemes) {
                    const std::uint32_t trials = kind == SchemeKind::Robust8T ? 1 : grid.trials;
                    for (std::uint32_t t = 0; t < trials; ++t) {
                        BatchLane lane;
                        lane.config = base;
                        lane.config.scheme = kind;
                        lane.config.op = points[p];
                        lane.config.faultMapSeed = seeds[p][t];
                        if (!detail::schemeIsDefectFree(kind)) lane.chipMaps = &maps[p][t];
                        std::vector<BatchLane>& group = schemeNeedsBbrLinking(kind) ? bbr : plain;
                        order.emplace_back(&group == &bbr, group.size());
                        group.push_back(std::move(lane));
                    }
                }
                replayLanes(nullptr, ctx.traces, plain, "replay.batch", record);
                replayLanes(&ctx.bbrModule, ctx.traces, bbr, "replay.batch", record);
                for (const auto& [isBbr, index] : order) {
                    const BatchLane& lane = (isBbr ? bbr : plain)[index];
                    accumulateLeg(mirrorCells[{lane.config.scheme, millivolts(points[p])}],
                                  lane.result, ctx, p);
                }
            }
        }
    }
    SweepConfig single = grid;
    single.threads = 1;
    SweepResult singleResult;
    {
        const ScopedSpan span("sweep.run_1t");
        singleResult = runSweep(single);
    }
    // The mirror must be the work runSweep does: same chips, same lanes.
    ++record.checksAttempted;
    if (renderCells(mirrorCells, grid) != renderCells(singleResult.cells, grid)) {
        ++record.checksFailed;
        record.fail("the traced mirror's lane results differ from runSweep's cells");
    }

    // One scheme per replayBatch call at 400mV, over every benchmark.
    const auto at400 = std::find_if(points.begin(), points.end(), [](const OperatingPoint& op) {
        return millivolts(op) == 400;
    });
    const std::size_t p400 = static_cast<std::size_t>(at400 - points.begin());
    for (const SchemeKind kind : allSchemes()) {
        SimTally tally;
        const bool defectFree = detail::schemeIsDefectFree(kind);
        for (const Context& ctx : contexts) {
            std::vector<BatchLane> lanes(defectFree ? 1 : grid.trials);
            for (std::size_t t = 0; t < lanes.size(); ++t) {
                lanes[t].config = base;
                lanes[t].config.scheme = kind;
                lanes[t].config.op = kind == SchemeKind::Conventional760
                                         ? DvfsTable::vccminBaseline()
                                         : points[p400];
                lanes[t].config.faultMapSeed = seeds[p400][t];
                if (!defectFree) lanes[t].chipMaps = &maps[p400][t];
            }
            replayLanes(schemeNeedsBbrLinking(kind) ? &ctx.bbrModule : nullptr, ctx.traces, lanes,
                        "schemes." + schemeSlug(kind), record);
            for (const BatchLane& lane : lanes) tally.add(lane.result, record);
        }
        tally.publish(kind, record);
    }

    for (const Context& ctx : contexts) {
        for (std::size_t p = 0; p < points.size(); ++p) {
            for (const detail::LegFaultMaps& chip : maps[p]) {
                probeLinkAndVerify(ctx.bbrModule, chip.icache, record);
            }
        }
    }
}

/// Execution-driven legs at reference scale, the path of `voltcache run` and
/// of the replay engine's oracle: per benchmark, the defect-free cache and
/// FFW+BBR on the sweep's first 400mV chip, each under a cpu.exec span. A
/// completed FFW+BBR leg must halt with the defect-free checksum (r1); a
/// chip BBR cannot place is yield loss, not an error.
void executionProbe(const SweepConfig& grid, Record& record) {
    SystemConfig config;
    config.op = DvfsTable::at(Voltage::fromMillivolts(400));
    config.faultMapSeed = sweepChipSeed(grid.baseSeed, 400, 0);
    for (const auto& info : benchmarkList()) {
        const Module module = buildBenchmark(info.name, WorkloadScale::Reference);
        Module bbrModule = module;
        applyBbrTransforms(bbrModule, config.maxBlockWords);
        SystemResult reference;
        SystemResult ffwBbr;
        config.scheme = SchemeKind::DefectFree;
        {
            const ScopedSpan span("cpu.exec");
            reference = simulateSystem(module, nullptr, config);
        }
        config.scheme = SchemeKind::FfwBbr;
        {
            const ScopedSpan span("cpu.exec");
            ffwBbr = simulateSystem(module, &bbrModule, config);
        }
        ++record.checksAttempted;
        const bool ok = reference.run.halted &&
                        (ffwBbr.linkFailed ||
                         (ffwBbr.run.halted && ffwBbr.checksum == reference.checksum));
        if (!ok) {
            ++record.checksFailed;
            record.fail(std::string(info.name) + " ffw+bbr @400mV: checksum mismatch");
        }
    }
}

} // namespace

void runFig10(const Options& options, Record& record) {
    const SweepConfig grid = gridConfig(options);

    // Set-up: everything before the first timed sweep is one warm-up sweep
    // (module builds, BBR twins, traces are made inside it). Repeated so the
    // reported set-up time is a median; every repetition must agree.
    SweepRun reference;
    for (int rep = 0; rep < 3; ++rep) {
        SweepRun warm = timedSweep(grid);
        record.setupSeconds.push_back(warm.ms / 1000.0);
        if (rep == 0) {
            reference = std::move(warm);
            continue;
        }
        ++record.checksAttempted;
        if (warm.document != reference.document || warm.instructions != reference.instructions) {
            ++record.checksFailed;
            record.fail("set-up sweep " + std::to_string(rep) + " differs from the first");
        }
    }
    HashWriter digest;
    digest.str(reference.document);
    digest.u64(reference.instructions);
    record.simDigest = digestToHex(digest.finish());
    record.values["paper_epi_gap_pp"] = paperEpiGapPp(reference.ffwBbrNormEpi400);

    const auto windowStart = std::chrono::steady_clock::now();
    // At least two sweeps: the traced run alternates untraced and traced
    // sweeps, so the tracing overhead is a within-run comparison.
    for (std::uint32_t i = 0; i < 2 || msSince(windowStart) < options.seconds * 1000.0; ++i) {
        const bool traced = options.trace && i % 2 == 1;
        Tracer::setEnabled(traced);
        SweepRun run;
        {
            const ScopedSpan span("sweep.op");
            run = timedSweep(grid);
        }
        Tracer::setEnabled(false);
        Op op;
        op.ms = run.ms;
        op.legs = run.legs;
        op.instructions = run.instructions;
        op.group = i;
        op.traced = traced;
        op.ok = run.document == reference.document && run.instructions == reference.instructions;
        if (!op.ok) record.fail("sweep " + std::to_string(i) + " differs from the set-up sweep");
        record.ops.push_back(op);
    }

    if (options.trace) {
        Tracer::setEnabled(true);
        layerProbes(grid, record);
        executionProbe(grid, record);
        Tracer::setEnabled(false);
    }
}

} // namespace vcbench
