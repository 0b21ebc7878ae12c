/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints its
 * report as one JSON line (the last line of standard output).
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--work-dir DIR] [--setups N]
 *                    [--tiny] [--corrupt-pin]
 *   perfbench_driver --print-pins [--work-dir DIR]
 *
 * Workloads: sim_solo, sweep_spill, serve_mixed, explore_prefix.
 * perfbench/run.py builds this driver, runs it, and adds provenance;
 * see perfbench/RATIONALE.md for what each workload measures.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "nsrf/common/options.hh"
#include "nsrf/common/simd.hh"
#include "nsrf/stats/json.hh"

#include "support.hh"

using namespace perfbench;

namespace
{

void
usage()
{
    std::puts(
        "usage: perfbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1\n"
        "         [--work-dir DIR] [--setups N] [--tiny] "
        "[--corrupt-pin]\n"
        "       perfbench_driver --print-pins\n"
        "workloads: sim_solo sweep_spill serve_mixed explore_prefix");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    nsrf::common::OptionScanner scan(argc, argv);
    while (scan.next()) {
        if (scan.is("--workload"))
            opt.workload = scan.value();
        else if (scan.is("--seed"))
            opt.seed = scan.u64();
        else if (scan.is("--seconds"))
            opt.seconds = double(scan.u32());
        else if (scan.is("--trace"))
            opt.trace = scan.u32() != 0;
        else if (scan.is("--work-dir"))
            opt.workDir = scan.value();
        else if (scan.is("--setups"))
            opt.setups = scan.u32();
        else if (scan.is("--tiny"))
            opt.tiny = true;
        else if (scan.is("--corrupt-pin"))
            opt.corruptPin = true;
        else if (scan.is("--print-pins"))
            opt.printPins = true;
        else if (scan.is("--help") || scan.is("-h")) {
            usage();
            return 0;
        } else {
            scan.unknown();
        }
    }
    if (!makeDirs(opt.workDir)) {
        std::fprintf(stderr, "cannot create %s\n", opt.workDir.c_str());
        return 2;
    }

    if (opt.printPins) {
        nsrf::stats::JsonWriter json;
        json.beginObject();
        json.key("pins").beginObject();
        std::map<std::string, std::string> pins = simCanaryDigests();
        pins.merge(serveCanaryDigests());
        for (const auto &[name, value] : pins)
            json.field(name, value);
        json.field("explore_prefix/frontier", exploreCanaryDigest(opt));
        json.endObject();
        json.endObject();
        std::printf("%s\n", json.str().c_str());
        return 0;
    }

    Report report;
    // Caught here so the workloads' destructors run: they stop the
    // daemons and child processes a run started.
    try {
        if (opt.workload == "sim_solo") {
            runSimSolo(opt, report);
        } else if (opt.workload == "sweep_spill") {
            runSweepSpill(opt, report);
        } else if (opt.workload == "serve_mixed") {
            runServeMixed(opt, report);
        } else if (opt.workload == "explore_prefix") {
            runExplorePrefix(opt, report);
        } else {
            usage();
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    if (opt.trace) {
        report.metric("error_rate",
                      report.attempted()
                          ? double(report.failed()) /
                                double(report.attempted())
                          : 1.0,
                      "fraction");
    }
    report.info("simd", nsrf::simdLevelName(nsrf::activeSimdLevel()));
    std::printf("%s\n", report.json().c_str());
    return 0;
}
