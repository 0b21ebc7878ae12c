/**
 * @file
 * explore_prefix: nsrf_explore successive halving over the lattice
 * shape explore_smoke uses (Quicksort; nsf + segmented x regs x
 * lines x miss x write; two budgets), prefix restore on, memory-only
 * cache, at most four jobs.  It is the one workload whose time goes
 * through snapshot capture/restore and the explore layer.
 *
 * Quicksort rather than a paper app: nsrf_explore aborts in the
 * register-file factory for any segmented point of GateSim or RTLSim
 * (20-register frames), because explore/lattice.cc filters only on
 * VLSI geometry.  See RATIONALE.md.
 *
 * A sample is one whole nsrf_explore process, spawn to exit, its
 * frontier written to a file.  latency_p50_ms (per-workload
 * name: frontier_s) is their median and ops_per_s the median of their
 * reciprocals (frontiers per second).  Every
 * sample's frontier bytes must equal the set-up's cold-evaluated
 * (--no-prefix) frontier for the same seed.  The traced run drives
 * explore::runExploration in process with a span per rung, and times
 * the prefix cells' snapshot save/restore and the Pareto extraction.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "nsrf/explore/lattice.hh"
#include "nsrf/explore/pareto.hh"
#include "nsrf/explore/search.hh"
#include "nsrf/serve/cache.hh"
#include "nsrf/serve/spec.hh"
#include "nsrf/sim/sweep.hh"
#include "nsrf/snapshot/snapshot.hh"

#include "support.hh"

namespace perfbench
{

using namespace nsrf;

namespace
{

/** The lattice every run explores. */
struct Shape
{
    std::uint64_t seed = 0;
    std::uint64_t events = 40'000;
    unsigned jobs = 1;

    std::uint64_t prefix() const { return events / 4; }

    explore::ExploreOptions
    options() const
    {
        explore::ExploreOptions o;
        o.lattice.app = "Quicksort";
        o.lattice.events = events;
        o.lattice.seed = seed;
        o.lattice.orgs = {"nsf", "segmented"};
        o.lattice.totalRegs = {32, 64, 96, 128};
        o.lattice.regsPerLine = {1, 2, 4};
        o.lattice.missPolicies = {"line", "live"};
        o.lattice.writePolicies = {"wa", "fow"};
        o.budgets = {prefix(), events};
        o.prefixSteps = prefix();
        return o;
    }

    /** The same exploration as nsrf_explore arguments. */
    std::vector<std::string>
    argv(const std::string &out, bool prefixRestore) const
    {
        explore::ExploreOptions o = options();
        auto csv = [](const auto &items) {
            std::string text;
            for (const auto &item : items) {
                if (!text.empty())
                    text += ",";
                if constexpr (std::is_arithmetic_v<
                                  std::decay_t<decltype(item)>>)
                    text += std::to_string(item);
                else
                    text += item;
            }
            return text;
        };
        std::vector<std::string> a = {
            NSRF_EXPLORE_BIN,
            "--app", o.lattice.app,
            "--events", std::to_string(o.lattice.events),
            "--seed", std::to_string(o.lattice.seed),
            "--orgs", csv(o.lattice.orgs),
            "--regs", csv(o.lattice.totalRegs),
            "--lines", csv(o.lattice.regsPerLine),
            "--miss", csv(o.lattice.missPolicies),
            "--write", csv(o.lattice.writePolicies),
            "--budgets", csv(o.budgets),
            "--prefix-steps", std::to_string(o.prefixSteps),
            "--jobs", std::to_string(jobs),
            "--out", out};
        if (!prefixRestore)
            a.push_back("--no-prefix");
        return a;
    }
};

/** Run nsrf_explore once; @return its wall seconds (< 0 on failure)
 * and its frontier bytes in @p frontier. */
double
exploreOnce(const Shape &shape, const std::string &dir,
            bool prefixRestore, std::string *frontier, double *rssMb)
{
    std::string out = dir + "/frontier.json";
    std::remove(out.c_str());
    auto t0 = Clock::now();
    int pid = spawnProcess(shape.argv(out, prefixRestore),
                           dir + "/explore.log");
    int rc = pid < 0 ? -1 : waitProcess(pid, 120.0, rssMb);
    double seconds = secondsSince(t0);
    frontier->clear();
    if (rc != 0 || !readFile(out, frontier))
        return -1;
    return seconds;
}

/** Time the snapshot save/restore of every lattice point's prefix
 * (the cells the triage rung captures). */
void
timeSnapshots(const Shape &shape, Spans &spans, Report &report)
{
    explore::ExploreOptions o = shape.options();
    std::vector<explore::LatticePoint> points;
    explore::LatticeStats stats;
    std::string why;
    if (!explore::enumerateLattice(o.lattice, &points, &stats, &why)) {
        report.op(false, "lattice: " + why);
        return;
    }
    std::uint64_t blobBytes = 0, blobs = 0;
    for (const explore::LatticePoint &point : points) {
        serve::CellParams params = point.params;
        params.cap = shape.prefix();
        std::vector<sim::SweepCell> cells;
        if (!serve::cellsFromParams(params, &cells, &why) ||
            cells.size() != 1) {
            report.op(false, point.label + ": " + why);
            continue;
        }
        const sim::SweepCell &cell = cells[0];
        serve::Provenance prov = cell.provenance;
        prov.emplace_back("snapshot-prefix-steps",
                          std::to_string(shape.prefix()));
        serve::Fingerprint key =
            snapshot::simulatorIdentity(cell.config, prov);

        auto gen = cell.makeGenerator();
        sim::TraceSimulator capture(cell.config);
        capture.beginRun();
        std::vector<sim::TraceEvent> chunk(512);
        while (std::size_t n = gen->fill(chunk.data(), chunk.size())) {
            if (!capture.stepRun(chunk.data(), n))
                break;
        }
        std::string bytes;
        {
            Scope s(spans, "snapshot.save");
            bytes = snapshot::saveSimulator(capture, key);
        }
        sim::TraceSimulator resumed(cell.config);
        resumed.beginRun();
        bool ok = false;
        {
            Scope s(spans, "snapshot.restore");
            ok = snapshot::restoreSimulator(bytes, key, &resumed, &why);
        }
        report.op(ok && resumed.instructionsRun() ==
                            capture.instructionsRun(),
                  point.label + " snapshot restore: " + why);
        blobBytes += bytes.size();
        ++blobs;
    }
    report.metric("snapshot.save_us",
                  median(spans.durations("snapshot.save")) * 1e6, "us",
                  spans.count("snapshot.save"));
    report.metric("snapshot.restore_us",
                  median(spans.durations("snapshot.restore")) * 1e6,
                  "us", spans.count("snapshot.restore"));
    report.metric("snapshot.blob_kb",
                  blobs ? double(blobBytes) / double(blobs) / 1024.0 : 0,
                  "KiB");
}

/** One in-process exploration with a span per rung; @return wall
 * seconds, the frontier bytes in @p frontier. */
double
tracedExplore(const Shape &shape, Spans &spans, std::string *frontier,
              explore::ExploreReport *out,
              snapshot::PrefixSweepStats *prefixStats)
{
    auto t0 = Clock::now();
    Scope whole(spans, "explore.run");
    serve::ResultCache cache(serve::ResultCacheConfig{}); // memory-only
    explore::CellEvaluator inner = explore::makeOfflineEvaluator(
        &cache, shape.jobs, shape.prefix(), prefixStats);
    explore::CellEvaluator evaluate =
        [&](const std::vector<serve::CellParams> &batch,
            std::vector<explore::SimScore> *scores, std::string *why) {
            Scope rung(spans, "explore.rung");
            return inner(batch, scores, why);
        };
    std::string why;
    if (!explore::runExploration(shape.options(), evaluate, out, &why)) {
        frontier->clear();
        return -1;
    }
    *frontier = explore::reportJson(*out) + "\n";
    return secondsSince(t0);
}

} // namespace

std::string
exploreCanaryDigest(const Options &opt)
{
    Shape canary;
    canary.seed = 1;
    canary.events = 8'000;
    canary.jobs = 2;
    std::string frontier;
    std::string dir = opt.workDir + "/explore-canary";
    makeDirs(dir);
    if (exploreOnce(canary, dir, true, &frontier, nullptr) < 0)
        return "";
    return serve::hashString(frontier).hex();
}

void
runExplorePrefix(const Options &opt, Report &report)
{
    Shape shape;
    shape.seed = mixSeed(opt.seed, 0) % 1'000'000'007 + 1;
    shape.events = opt.tiny ? 8'000 : 40'000;
    shape.jobs = std::min(4u, sim::SweepRunner::hardwareJobs());
    std::string dir = opt.workDir + "/explore";
    makeDirs(dir);
    report.info("events", std::to_string(shape.events));
    report.info("jobs", std::to_string(shape.jobs));

    // Set-up: the cold-evaluated reference frontier.
    std::string reference;
    std::vector<double> setup;
    double rss = 0;
    for (unsigned s = 0; s < std::max(1u, opt.setups); ++s) {
        double seconds = exploreOnce(shape, dir, false, &reference, &rss);
        report.op(seconds >= 0, "reference nsrf_explore --no-prefix "
                                "failed (see explore.log)");
        setup.push_back(seconds);
    }
    report.metric("setup_s", median(setup), "s", setup.size());

    double peakRss = rss;
    auto timedRuns = [&](double budget) {
        std::vector<double> walls;
        auto start = Clock::now();
        do {
            std::string frontier;
            double seconds = exploreOnce(shape, dir, true, &frontier, &rss);
            peakRss = std::max(peakRss, rss);
            report.op(seconds >= 0 && frontier == reference,
                      "prefix-restored frontier differs from the cold "
                      "reference");
            if (seconds >= 0)
                walls.push_back(seconds);
        } while (secondsSince(start) < budget);
        return walls;
    };

    if (!opt.trace) {
        std::vector<double> walls = timedRuns(opt.seconds);
        std::vector<double> rates;
        for (double w : walls)
            rates.push_back(1.0 / w);
        report.metric("ops_per_s", median(rates), "op/s", rates.size());
        report.metric("latency_p50_ms", median(walls) * 1e3, "ms",
                      walls.size());
    } else {
        zeroLayerMetrics(report);
        std::vector<double> plain = timedRuns(opt.seconds / 2);

        Spans spans;
        std::vector<double> traced;
        snapshot::PrefixSweepStats prefixStats;
        explore::ExploreReport last;
        auto start = Clock::now();
        do {
            std::string frontier;
            explore::ExploreReport rep;
            double seconds =
                tracedExplore(shape, spans, &frontier, &rep, &prefixStats);
            report.op(seconds >= 0 && frontier == reference,
                      "in-process frontier differs from the cold "
                      "reference");
            if (seconds >= 0) {
                traced.push_back(seconds);
                last = std::move(rep);
            }
        } while (secondsSince(start) < opt.seconds / 2);

        report.metric("explore.rung_s",
                      median(spans.durations("explore.rung")), "s",
                      spans.count("explore.rung"));
        report.metric("explore.points", double(last.lattice.points),
                      "count");
        report.metric("snapshot.steps_skipped",
                      double(prefixStats.stepsSkipped) /
                          double(std::max<std::size_t>(traced.size(), 1)),
                      "count");

        std::vector<explore::Objectives> objectives;
        for (const explore::PointResult &p : last.points) {
            objectives.push_back({p.overheadFraction, p.reloadsPerInstr,
                                  p.areaUm2, p.accessNs});
        }
        for (int rep = 0; rep < 200; ++rep) {
            Scope s(spans, "explore.pareto");
            volatile std::size_t n =
                explore::paretoFrontier(objectives).size();
            (void)n;
        }
        report.metric("explore.pareto_us",
                      median(spans.durations("explore.pareto")) * 1e6,
                      "us", spans.count("explore.pareto"));

        timeSnapshots(shape, spans, report);
        report.metric("bench.trace_overhead_frac",
                      median(traced) / median(plain) - 1.0, "fraction");
        spans.write(opt.workDir + "/spans-explore_prefix.json");
    }

    std::string canary = exploreCanaryDigest(opt);
    checkPins(opt, {{"explore_prefix/frontier", canary}}, report);
    report.metric("peak_rss_mb", peakRss, "MiB");
}

} // namespace perfbench
