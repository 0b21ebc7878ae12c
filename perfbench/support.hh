/**
 * @file
 * Shared plumbing for the repository benchmark driver: run options,
 * the result report (metrics, operation counts, notes), the span
 * recorder the traced runs use, and small statistics and identity
 * helpers.
 *
 * Spans are recorded only by this benchmark's own code, around calls
 * into each module's public functions; nothing inside the program is
 * instrumented.  They are kept in memory and written once, when the
 * run ends.
 */

#ifndef NSRF_PERFBENCH_SUPPORT_HH
#define NSRF_PERFBENCH_SUPPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nsrf/sim/simulator.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** One run's parameters, as given on the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory inside the checkout (caches, logs, spans). */
    std::string workDir = ".bench_build/work";
    /** Pinned canary digests, relative to the checkout root. */
    std::string pinsPath = "perfbench/pinned.json";
    /** Shrink every input (the self-check). */
    bool tiny = false;
    /** Flip one pinned digest, to prove the check fires. */
    bool corruptPin = false;
    /** Print the canary digests instead of running a workload. */
    bool printPins = false;
    /** How many times set-up is repeated (median reported). */
    unsigned setups = 5;
};

/** Everything one run reports. */
class Report
{
  public:
    /** Record metric @p name; @p samples is the sample count a
     * timing rests on (0 for counts and ratios). */
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t samples = 0);

    /** Count one checked operation; a failure carries a note. */
    void op(bool ok, const std::string &what = "");

    /** Count @p n operations that all passed. */
    void ops(std::uint64_t n) { attempted_ += n; }

    /** Free-form context line, printed before the result. */
    void note(const std::string &text) { notes_.push_back(text); }

    /** Provenance item (e.g. the active SIMD level). */
    void info(const std::string &key, const std::string &value)
    {
        info_[key] = value;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** One JSON line: correct/attempted/failed/metrics plus the
     * sample counts, notes, and provenance items. */
    std::string json() const;

  private:
    struct Metric
    {
        double value = 0;
        std::string unit;
        std::size_t samples = 0;
    };
    std::map<std::string, Metric> metrics_;
    std::vector<std::string> notes_;
    std::map<std::string, std::string> info_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    unsigned failureNotes_ = 0;
};

/** Name and unit of one per-layer metric. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};

/**
 * Every per-layer metric, in BENCHMARK.json order.  A traced run
 * prints all of them; a layer the workload does not exercise reads
 * 0 (no work done there).
 */
const std::vector<LayerMetric> &layerMetrics();

/** Record every per-layer metric at 0 (traced runs start here). */
void zeroLayerMetrics(Report &report);

/**
 * In-memory span recorder (single-threaded).  A span has a name, a
 * start, an end, and the span open when it began as its parent.
 */
class Spans
{
  public:
    /** Open a span; @return its id. */
    int begin(const char *name);
    /** Close span @p id (must be the innermost open one). */
    void end(int id);

    /** Sum of self time (duration minus direct children) of every
     * span called @p name, in seconds. */
    double selfSeconds(const std::string &name) const;
    /** Durations of every span called @p name, in seconds. */
    std::vector<double> durations(const std::string &name) const;
    /** Number of spans called @p name. */
    std::size_t count(const std::string &name) const;

    /** Write every span as JSON to @p path. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;
    };
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Spans &spans, const char *name)
        : spans_(spans), id_(spans.begin(name))
    {
    }
    ~Scope() { spans_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &spans_;
    int id_;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank @p q-quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** @return true when at least ten samples lie above the
 * @p q-quantile of @p n samples. */
bool quantileSupported(std::size_t n, double q);

/** SplitMix64 of (@p seed, @p salt): derived per-item seeds. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Content digest of a RunResult (hash of its wire encoding). */
std::string digest(const nsrf::sim::RunResult &result);

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

/** Peak resident set (VmHWM) of live process @p pid, MiB. */
double processPeakRssMb(int pid);

/** mkdir -p. */
bool makeDirs(const std::string &path);
/** rm -rf (of a directory this benchmark created). */
void removeTree(const std::string &path);
/** Whole-file read; @return false when unreadable. */
bool readFile(const std::string &path, std::string *out);
/** Whole-file write; @return false on any error. */
bool writeFile(const std::string &path, const std::string &text);

/**
 * Start @p argv (argv[0] is the program path) with standard output
 * and error appended to @p logPath.  @return the pid, or -1.
 */
int spawnProcess(const std::vector<std::string> &argv,
                 const std::string &logPath);

/**
 * Wait up to @p timeoutSec for @p pid, killing it on timeout.
 * @return its exit code, or -1 when it was killed or died on a
 * signal.  @p rssMb (optional) receives its peak resident set.
 */
int waitProcess(int pid, double timeoutSec, double *rssMb = nullptr);

/** Per-workload entry points (each fills @p report). */
void runSimSolo(const Options &opt, Report &report);
void runSweepSpill(const Options &opt, Report &report);
void runServeMixed(const Options &opt, Report &report);
void runExplorePrefix(const Options &opt, Report &report);

/** Canary digests for perfbench/pinned.json (--print-pins). */
std::map<std::string, std::string> simCanaryDigests();
std::map<std::string, std::string> serveCanaryDigests();
std::string exploreCanaryDigest(const Options &opt);

/** Check @p actual against the pinned canaries; one op per pin. */
void checkPins(const Options &opt,
               const std::map<std::string, std::string> &actual,
               Report &report);

} // namespace perfbench

#endif // NSRF_PERFBENCH_SUPPORT_HH
