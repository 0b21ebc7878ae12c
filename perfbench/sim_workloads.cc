/**
 * @file
 * The two simulator workloads.
 *
 * sim_solo: GateSim, RTLSim, DTW and Gamteb, each one solo NSF cell
 * at 256 one-register lines, run on one thread through
 * TraceSimulator::run, up to four such threads at once.  At 256
 * registers none of them reloads, so the time is trace decode plus
 * the access kernel's hit path.
 *
 * sweep_spill: the same four apps, eight lanes each (3 miss x 2
 * write policies at 64 registers in 2-register lines, then 48 and 32
 * one-register lines), run
 * through SweepRunner with up to four workers.  Small files drive
 * the access kernel through misses, CAM replacement, and spills,
 * while decode is shared by the eight lanes.
 *
 * A sample is one pass over every cell (for sim_solo, every cell
 * once per thread).  ops_per_s (per-workload name: steps_per_s) is
 * the median over passes of (simulated instructions, every lane and
 * copy counted) / (host seconds of the pass);
 * latency_p50_ms is the median pass time.  Every RunResult's digest
 * must equal the set-up pass's (the 1-thread pass, for
 * sweep_spill).
 *
 * The traced run drives beginRun/stepRun/finishRun with its own
 * TraceGenerator::fill chunks so decode and step time split, reads
 * each cell's counters from the public accessors, and replays the
 * decoded events through a minimal driver of its own against a
 * factory-built NSF and a standalone AssociativeDecoder to time the
 * register-file and CAM calls.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nsrf/cam/decoder.hh"
#include "nsrf/mem/memsys.hh"
#include "nsrf/regfile/factory.hh"
#include "nsrf/regfile/named_state.hh"
#include "nsrf/runtime/allocators.hh"
#include "nsrf/serve/spec.hh"
#include "nsrf/sim/simulator.hh"
#include "nsrf/sim/sweep.hh"

#include "support.hh"

namespace perfbench
{

using namespace nsrf;

namespace
{

const char *const kApps[] = {"GateSim", "RTLSim", "DTW", "Gamteb"};
constexpr std::size_t kLanes = 8;
constexpr std::size_t kChunk = 4096; //!< traced-run decode chunk
constexpr std::uint64_t kCanarySeed = 1;
constexpr std::uint64_t kCanaryEvents = 30'000;

/** sweep_spill lane @p lane: 3 miss x 2 write policies at 64
 * registers in 2-register lines (with 1-register lines the three
 * miss policies coincide), then 48 and 32 one-register lines. */
void
laneParams(std::size_t lane, serve::CellParams &params)
{
    using regfile::MissPolicy;
    using regfile::WritePolicy;
    static constexpr MissPolicy miss[] = {MissPolicy::ReloadSingle,
                                          MissPolicy::ReloadLive,
                                          MissPolicy::ReloadLine};
    static constexpr WritePolicy write[] = {
        WritePolicy::WriteAllocate, WritePolicy::FetchOnWrite};
    static constexpr unsigned regs[] = {64, 64, 64, 64, 64, 64, 48, 32};
    params.totalRegs = regs[lane];
    params.regsPerLine = lane < 6 ? 2 : 1;
    params.miss = lane < 6 ? miss[lane % 3] : miss[0];
    params.write = lane < 6 ? write[lane / 3] : write[0];
}

/**
 * One workload's cells, built by the serving layer's spec expansion:
 * one NSF cell per app at 256 one-register lines (solo), or eight
 * lanes per app sharing the app's stream key (sweep).  Each app's
 * trace seed is derived from the run seed.
 */
std::vector<sim::SweepCell>
makeCells(bool lanes, std::uint64_t seed, std::uint64_t events)
{
    std::vector<sim::SweepCell> cells;
    for (std::size_t app = 0; app < std::size(kApps); ++app) {
        for (std::size_t lane = 0; lane < (lanes ? kLanes : 1);
             ++lane) {
            serve::CellParams params;
            params.app = kApps[app];
            params.totalRegs = 256;
            params.events = events;
            params.seed = mixSeed(seed, app) | 1;
            if (lanes)
                laneParams(lane, params);
            std::vector<sim::SweepCell> one;
            std::string why;
            if (!serve::cellsFromParams(params, &one, &why))
                throw std::runtime_error(why);
            one[0].label += lanes ? "/lane" + std::to_string(lane) : "";
            cells.push_back(std::move(one[0]));
        }
    }
    return cells;
}

/** Solo cells through TraceSimulator::run, in cell order. */
std::vector<sim::RunResult>
runSolo(const std::vector<sim::SweepCell> &cells)
{
    std::vector<sim::RunResult> out;
    for (const sim::SweepCell &cell : cells) {
        auto gen = cell.makeGenerator();
        sim::TraceSimulator simulator(cell.config);
        out.push_back(simulator.run(*gen));
    }
    return out;
}

/**
 * @p threads copies of every solo cell, each through
 * TraceSimulator::run on one thread, @p threads of them at once (as
 * `nsrf_sim --jobs` runs several apps).  Cells are claimed in
 * @p order (longest first), so the threads finish close together.
 * @return results copy after copy, each copy in cell order.
 */
std::vector<sim::RunResult>
runSoloConcurrent(const std::vector<sim::SweepCell> &cells,
                  const std::vector<std::size_t> &order, unsigned threads)
{
    std::vector<sim::RunResult> out(cells.size() * threads);
    std::atomic<std::size_t> next{0};
    auto work = [&]() {
        for (std::size_t k; (k = next++) < out.size();) {
            std::size_t cell = order[k / threads];
            std::size_t copy = k % threads;
            auto gen = cells[cell].makeGenerator();
            sim::TraceSimulator simulator(cells[cell].config);
            out[copy * cells.size() + cell] = simulator.run(*gen);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(work);
    work();
    for (auto &t : pool)
        t.join();
    return out;
}

std::uint64_t
laneSteps(const std::vector<sim::RunResult> &results)
{
    std::uint64_t steps = 0;
    for (const sim::RunResult &r : results)
        steps += r.instructions;
    return steps;
}

/** Compare every result's digest with @p want; one op per cell. */
void
checkDigests(const std::vector<sim::SweepCell> &cells,
             const std::vector<sim::RunResult> &results,
             const std::vector<std::string> &want, const char *path,
             Report &report)
{
    // @p results holds one or more copies of the cells, copy after
    // copy.
    std::size_t n = std::max(cells.size(), results.size());
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t c = i % cells.size();
        std::string got = i < results.size() ? digest(results[i]) : "";
        report.op(got == want[c], std::string(path) + " " +
                                      cells[c].label + " digest " +
                                      got + " != " + want[c]);
    }
}

/** Counters summed over a traced pass's cells. */
struct LayerCounts
{
    std::uint64_t instructions = 0;
    std::uint64_t reads = 0, writes = 0;
    std::uint64_t readMisses = 0, writeMisses = 0;
    std::uint64_t spilled = 0, reloaded = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t camSearches = 0, camHits = 0, camPrograms = 0;
    std::uint64_t cacheAccesses = 0, cacheHits = 0, writebacks = 0;

    void
    add(sim::TraceSimulator &simulator)
    {
        const regfile::RegFileStats &rf =
            simulator.registerFile().stats();
        instructions += simulator.instructionsRun();
        reads += rf.reads.value();
        writes += rf.writes.value();
        readMisses += rf.readMisses.value();
        writeMisses += rf.writeMisses.value();
        spilled += rf.regsSpilled.value();
        reloaded += rf.regsReloaded.value();
        stallCycles += rf.stallCycles;
        if (auto *nsf = dynamic_cast<regfile::NamedStateRegisterFile *>(
                &simulator.registerFile())) {
            const cam::DecoderStats &d = nsf->decoder().stats();
            camSearches += d.searches.value();
            camHits += d.hits.value();
            camPrograms += d.programs.value();
        }
        if (const mem::DataCache *cache =
                simulator.memorySystem().cache()) {
            cacheAccesses += cache->stats().accesses.value();
            cacheHits += cache->stats().hits.value();
            writebacks += cache->stats().writebacks.value();
        }
    }
};

double
ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0)
{
    return den ? scale * double(num) / double(den) : 0.0;
}

/**
 * One traced pass: each app's stream is decoded in kChunk chunks
 * (span workload.fill) and fed to every lane of that app (span
 * sim.step), exactly as SweepRunner's lane loop does on one thread.
 * @return results in cell order.
 */
std::vector<sim::RunResult>
tracedPass(const std::vector<sim::SweepCell> &cells, Spans &spans,
           LayerCounts &counts, std::uint64_t &eventsDecoded)
{
    std::vector<sim::RunResult> results(cells.size());
    std::vector<sim::TraceEvent> chunk(kChunk);
    for (std::size_t first = 0; first < cells.size();) {
        std::size_t last = first + 1;
        while (last < cells.size() && !cells[first].streamKey.empty() &&
               cells[last].streamKey == cells[first].streamKey)
            ++last;
        Scope cellSpan(spans, "sim.cell");
        auto gen = cells[first].makeGenerator();
        std::vector<std::unique_ptr<sim::TraceSimulator>> sims;
        for (std::size_t i = first; i < last; ++i) {
            sims.push_back(
                std::make_unique<sim::TraceSimulator>(cells[i].config));
            sims.back()->beginRun();
        }
        bool live = true;
        while (live) {
            std::size_t n = 0;
            {
                Scope fill(spans, "workload.fill");
                n = gen->fill(chunk.data(), chunk.size());
            }
            if (n == 0)
                break;
            eventsDecoded += n;
            Scope step(spans, "sim.step");
            live = false;
            for (auto &s : sims) {
                bool more = s->stepRun(chunk.data(), n);
                live = live || more;
            }
        }
        for (std::size_t i = first; i < last; ++i) {
            results[i] = sims[i - first]->finishRun();
            counts.add(*sims[i - first]);
        }
        first = last;
    }
    return results;
}

/**
 * The minimal register-file driver: the workload's decoded events
 * applied through the public RegisterFile calls of a factory-built
 * register file, with the simulator's handle -> CID and frame
 * bookkeeping reduced to two allocators and a map.  Records the
 * (cid, register) stream for the CAM replay.
 */
struct MiniDriver
{
    static constexpr RegIndex kFreeMarker = invalidReg;

    explicit MiniDriver(const sim::SimConfig &config)
        : memsys(config.cache, config.memLatency),
          rf(regfile::makeRegisterFile(config.rf, memsys)),
          cids(config.cidCapacity),
          frames(0x80000000u, config.rf.regsPerContext * wordBytes)
    {
    }

    /** @return false when the trace needs CID virtualization, which
     * this driver does not model. */
    bool
    create(sim::CtxHandle handle)
    {
        ContextId cid = cids.alloc();
        if (cid == invalidContext)
            return false;
        Addr frame = frames.alloc();
        rf->allocContext(cid, frame);
        handles[handle] = {cid, frame};
        return true;
    }

    void
    destroy(sim::CtxHandle handle)
    {
        auto it = handles.find(handle);
        rf->freeContext(it->second.first);
        tags.emplace_back(it->second.first, kFreeMarker);
        cids.free(it->second.first);
        frames.free(it->second.second);
        handles.erase(it);
    }

    void
    switchTo(sim::CtxHandle handle)
    {
        current = handles[handle].first;
        currentHandle = handle;
        rf->switchTo(current);
        ++switches;
    }

    bool
    apply(const sim::TraceEvent *events, std::size_t n)
    {
        Word scratch = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const sim::TraceEvent &ev = events[i];
            switch (ev.kind) {
              case sim::EventKind::Instr:
                for (std::uint8_t s = 0; s < ev.srcCount; ++s) {
                    ++reads;
                    readMisses += !rf->read(current, ev.src[s], scratch)
                                       .hit;
                    tags.emplace_back(current, ev.src[s]);
                }
                if (ev.hasDst) {
                    ++writes;
                    writeMisses +=
                        !rf->write(current, ev.dst, scratch + 1).hit;
                    tags.emplace_back(current, ev.dst);
                }
                break;
              case sim::EventKind::Call:
                if (!create(ev.ctx))
                    return false;
                switchTo(ev.ctx);
                break;
              case sim::EventKind::Return:
                destroy(currentHandle);
                switchTo(ev.ctx);
                break;
              case sim::EventKind::Spawn:
                if (!create(ev.ctx))
                    return false;
                break;
              case sim::EventKind::Terminate:
                destroy(ev.ctx);
                break;
              case sim::EventKind::Switch:
                switchTo(ev.ctx);
                break;
              case sim::EventKind::FreeReg:
                rf->freeRegister(current, ev.dst);
                break;
              case sim::EventKind::End:
                return true;
            }
        }
        return true;
    }

    mem::MemorySystem memsys;
    std::unique_ptr<regfile::RegisterFile> rf;
    runtime::CidAllocator cids;
    runtime::FrameAllocator frames;
    std::unordered_map<sim::CtxHandle, std::pair<ContextId, Addr>>
        handles;
    ContextId current = invalidContext;
    sim::CtxHandle currentHandle = sim::invalidHandle;
    std::uint64_t reads = 0, writes = 0, switches = 0;
    std::uint64_t readMisses = 0, writeMisses = 0;
    std::vector<std::pair<ContextId, RegIndex>> tags;
};

/**
 * Time the register-file and CAM calls for @p cell (first lane of
 * each app): regfile.access_ns per read/write/switchTo through the
 * minimal driver, cam.search_ns per AssociativeDecoder::match of
 * the same (cid, register) stream replayed on a standalone decoder
 * (a miss programs a free line, or evicts round-robin).
 */
void
timeKernels(const std::vector<sim::SweepCell> &cells, bool lanes,
            const std::vector<sim::RunResult> &simResults, Spans &spans,
            Report &report)
{
    double rfSeconds = 0, camSeconds = 0;
    std::uint64_t rfCalls = 0, camSearches = 0;
    std::vector<sim::TraceEvent> chunk(kChunk);
    for (std::size_t i = 0; i < cells.size(); i += lanes ? kLanes : 1) {
        const sim::SweepCell &cell = cells[i];
        auto gen = cell.makeGenerator();
        MiniDriver driver(cell.config);
        bool ok = true;
        while (ok) {
            std::size_t n = gen->fill(chunk.data(), chunk.size());
            if (n == 0)
                break;
            // Room for the chunk's (cid, register) stream, made before
            // the clock starts: at most three per event.
            std::size_t need = driver.tags.size() + 3 * n;
            if (driver.tags.capacity() < need)
                driver.tags.reserve(
                    std::max(need, 2 * driver.tags.capacity()));
            auto t0 = Clock::now();
            {
                Scope s(spans, "regfile.access");
                ok = driver.apply(chunk.data(), n);
            }
            rfSeconds += secondsSince(t0);
        }
        if (!ok) {
            report.note("regfile driver: " + cell.label +
                        " needs CID virtualization; skipped");
            continue;
        }
        rfCalls += driver.reads + driver.writes + driver.switches;
        char line[256];
        std::snprintf(
            line, sizeof(line),
            "regfile driver %s: reads %llu (misses %llu), writes %llu "
            "(misses %llu) | simulator: read misses %llu, write "
            "misses %llu",
            cell.label.c_str(), (unsigned long long)driver.reads,
            (unsigned long long)driver.readMisses,
            (unsigned long long)driver.writes,
            (unsigned long long)driver.writeMisses,
            (unsigned long long)simResults[i].readMisses,
            (unsigned long long)simResults[i].writeMisses);
        report.note(line);

        unsigned perLine = cell.config.rf.regsPerLine;
        cam::AssociativeDecoder decoder(cell.config.rf.lines());
        std::vector<std::size_t> freed;
        std::size_t victim = 0;
        const auto &tags = driver.tags;
        for (std::size_t at = 0; at < tags.size(); at += kChunk) {
            std::size_t end = std::min(tags.size(), at + kChunk);
            auto t0 = Clock::now();
            Scope s(spans, "cam.search");
            for (std::size_t k = at; k < end; ++k) {
                auto [cid, reg] = tags[k];
                if (reg == MiniDriver::kFreeMarker) {
                    decoder.invalidateContext(cid, freed);
                    continue;
                }
                RegIndex lineOff = reg / perLine;
                ++camSearches;
                if (decoder.match(cid, lineOff) !=
                    cam::AssociativeDecoder::npos)
                    continue;
                std::size_t line = decoder.findFree();
                if (line == cam::AssociativeDecoder::npos) {
                    line = victim++ % decoder.size();
                    decoder.invalidate(line);
                }
                decoder.program(line, cid, lineOff);
            }
            camSeconds += secondsSince(t0);
        }
    }
    report.metric("regfile.access_ns",
                  rfCalls ? rfSeconds * 1e9 / double(rfCalls) : 0, "ns",
                  spans.count("regfile.access"));
    report.metric("cam.search_ns",
                  camSearches ? camSeconds * 1e9 / double(camSearches)
                              : 0,
                  "ns", spans.count("cam.search"));
}

/** Digests of one workload's cells at the canary seed and length. */
std::map<std::string, std::string>
canaryDigests(bool lanes)
{
    std::vector<sim::SweepCell> cells =
        makeCells(lanes, kCanarySeed, kCanaryEvents);
    std::vector<sim::RunResult> results =
        lanes ? sim::SweepRunner(1).run(cells) : runSolo(cells);
    std::map<std::string, std::string> out;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        out[std::string(lanes ? "sweep_spill/" : "sim_solo/") +
            cells[i].label] = digest(results[i]);
    }
    return out;
}

/** Shared body of both simulator workloads. */
void
runSimWorkload(const Options &opt, Report &report, bool lanes)
{
    const char *name = lanes ? "sweep_spill" : "sim_solo";
    std::uint64_t events = lanes ? (opt.tiny ? 10'000 : 150'000)
                                 : (opt.tiny ? 20'000 : 400'000);
    unsigned jobs = std::min(4u, sim::SweepRunner::hardwareJobs());
    report.info("events_per_cell", std::to_string(events));
    report.info("threads", std::to_string(jobs));

    // Set-up: build the cells and run the 1-thread reference pass
    // whose digests pin every later pass.
    std::vector<sim::SweepCell> cells;
    std::vector<std::string> want;
    std::vector<sim::RunResult> reference;
    std::vector<double> setup;
    for (unsigned s = 0; s < std::max(1u, opt.setups); ++s) {
        auto t0 = Clock::now();
        cells = makeCells(lanes, opt.seed, events);
        reference = lanes ? sim::SweepRunner(1).run(cells)
                          : runSolo(cells);
        setup.push_back(secondsSince(t0));
        want.clear();
        for (const sim::RunResult &r : reference)
            want.push_back(digest(r));
    }
    report.metric("setup_s", median(setup), "s", setup.size());
    // sim_solo claims its longest cells first.
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return reference[a].instructions >
                                reference[b].instructions;
                     });

    sim::SweepRunner runner(jobs), serial(1);
    // @return steps/s per pass of @p pool (solo cells ignore it);
    // pass wall seconds into @p walls.
    auto timedPasses = [&](const sim::SweepRunner &pool, double seconds,
                           std::vector<double> &walls) {
        std::vector<double> rates;
        auto start = Clock::now();
        do {
            auto t0 = Clock::now();
            std::vector<sim::RunResult> results =
                lanes ? pool.run(cells)
                : pool.jobs() > 1
                    ? runSoloConcurrent(cells, order, pool.jobs())
                    : runSolo(cells);
            walls.push_back(secondsSince(t0));
            rates.push_back(double(laneSteps(results)) / walls.back());
            checkDigests(cells, results, want,
                         pool.jobs() > 1 ? "threaded" : "1-thread",
                         report);
        } while (secondsSince(start) < seconds);
        return rates;
    };

    if (!opt.trace) {
        std::vector<double> walls;
        std::vector<double> rates = timedPasses(runner, opt.seconds, walls);
        report.metric("ops_per_s", median(rates), "op/s", rates.size());
        char line[160];
        std::snprintf(line, sizeof(line),
                      "pass steps/s: min %.4g q1 %.4g median %.4g q3 "
                      "%.4g max %.4g",
                      quantile(rates, 0), quantile(rates, 0.25),
                      median(rates), quantile(rates, 0.75),
                      quantile(rates, 1));
        report.note(line);
        report.metric("latency_p50_ms", median(walls) * 1e3, "ms",
                      walls.size());
    } else {
        // Untraced 1-thread passes are the baseline the traced
        // (1-thread) passes are compared with; sweep_spill also times
        // N-thread passes for the parallel efficiency.
        zeroLayerMetrics(report);
        std::vector<double> walls;
        std::vector<double> plain =
            timedPasses(serial, opt.seconds / (lanes ? 4 : 2), walls);
        if (lanes) {
            std::vector<double> many =
                timedPasses(runner, opt.seconds / 4, walls);
            report.metric("sim.sweep_parallel_eff",
                          median(many) / (double(jobs) * median(plain)),
                          "fraction", many.size());
        }

        Spans spans;
        LayerCounts counts;
        std::uint64_t decoded = 0, steps = 0;
        std::vector<double> traced;
        std::vector<sim::RunResult> results;
        auto start = Clock::now();
        do {
            auto t0 = Clock::now();
            results = tracedPass(cells, spans, counts, decoded);
            traced.push_back(double(laneSteps(results)) /
                             secondsSince(t0));
            steps += laneSteps(results);
            checkDigests(cells, results, want, "traced", report);
        } while (secondsSince(start) < opt.seconds / 2);

        report.metric("workload.fill_ns_per_event",
                      spans.selfSeconds("workload.fill") * 1e9 /
                          double(std::max<std::uint64_t>(decoded, 1)),
                      "ns", spans.count("workload.fill"));
        report.metric("sim.step_ns_per_event",
                      spans.selfSeconds("sim.step") * 1e9 /
                          double(std::max<std::uint64_t>(steps, 1)),
                      "ns", spans.count("sim.step"));
        report.metric("sim.lane_steps", double(steps), "count");
        report.metric("regfile.read_miss_rate",
                      ratio(counts.readMisses, counts.reads),
                      "fraction");
        report.metric("regfile.write_miss_rate",
                      ratio(counts.writeMisses, counts.writes),
                      "fraction");
        report.metric("regfile.spills_per_kinstr",
                      ratio(counts.spilled, counts.instructions, 1e3),
                      "1/kinstr");
        report.metric("regfile.reloads_per_kinstr",
                      ratio(counts.reloaded, counts.instructions, 1e3),
                      "1/kinstr");
        report.metric("regfile.stall_cycles_per_instr",
                      ratio(counts.stallCycles, counts.instructions),
                      "cycles/instr");
        report.metric("cam.hit_rate",
                      ratio(counts.camHits, counts.camSearches),
                      "fraction");
        report.metric("cam.programs_per_kinstr",
                      ratio(counts.camPrograms, counts.instructions, 1e3),
                      "1/kinstr");
        report.metric("mem.cache_hit_rate",
                      ratio(counts.cacheHits, counts.cacheAccesses),
                      "fraction");
        report.metric("mem.writebacks_per_kinstr",
                      ratio(counts.writebacks, counts.instructions, 1e3),
                      "1/kinstr");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            char line[200];
            std::snprintf(line, sizeof(line),
                          "%s: reloads/instr %.5f, overhead %.4f",
                          cells[i].label.c_str(),
                          results[i].reloadsPerInstr(),
                          results[i].overheadFraction());
            report.note(line);
        }

        timeKernels(cells, lanes, results, spans, report);

        report.metric("bench.trace_overhead_frac",
                      median(plain) / median(traced) - 1.0, "fraction");
        spans.write(opt.workDir + "/spans-" + name + ".json");
    }

    // Seed-independent canaries: the pinned digests of every cell at
    // a fixed seed and length.
    checkPins(opt, canaryDigests(lanes), report);
    report.metric("peak_rss_mb", selfPeakRssMb(), "MiB");
}

} // namespace

std::map<std::string, std::string>
simCanaryDigests()
{
    std::map<std::string, std::string> out = canaryDigests(false);
    out.merge(canaryDigests(true));
    return out;
}

void
runSimSolo(const Options &opt, Report &report)
{
    runSimWorkload(opt, report, false);
}

void
runSweepSpill(const Options &opt, Report &report)
{
    runSimWorkload(opt, report, true);
}

} // namespace perfbench
