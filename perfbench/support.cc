#include "support.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "nsrf/serve/codec.hh"
#include "nsrf/serve/fingerprint.hh"
#include "nsrf/serve/json_in.hh"
#include "nsrf/stats/json.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t samples)
{
    metrics_[name] = Metric{value, unit, samples};
}

void
Report::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    // Keep the log readable when a systematic fault fails every op.
    if (failureNotes_++ < 20)
        notes_.push_back("FAILED: " + what);
}

std::string
Report::json() const
{
    nsrf::stats::JsonWriter json;
    json.beginObject();
    json.field("correct", failed_ == 0 && attempted_ > 0);
    json.field("attempted", attempted_);
    json.field("failed", failed_);
    json.key("metrics").beginObject();
    for (const auto &[name, m] : metrics_) {
        json.key(name).beginObject();
        json.field("value", m.value);
        json.field("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.key("samples").beginObject();
    for (const auto &[name, m] : metrics_) {
        if (m.samples)
            json.field(name, static_cast<std::uint64_t>(m.samples));
    }
    json.endObject();
    json.key("info").beginObject();
    for (const auto &[key, value] : info_)
        json.field(key, value);
    json.endObject();
    json.key("notes").beginArray();
    for (const std::string &n : notes_)
        json.value(n);
    json.endArray();
    json.endObject();
    return json.str();
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> list = {
        {"workload.fill_ns_per_event", "ns"},
        {"sim.step_ns_per_event", "ns"},
        {"sim.lane_steps", "count"},
        {"sim.sweep_parallel_eff", "fraction"},
        {"regfile.access_ns", "ns"},
        {"regfile.read_miss_rate", "fraction"},
        {"regfile.write_miss_rate", "fraction"},
        {"regfile.spills_per_kinstr", "1/kinstr"},
        {"regfile.reloads_per_kinstr", "1/kinstr"},
        {"regfile.stall_cycles_per_instr", "cycles/instr"},
        {"cam.search_ns", "ns"},
        {"cam.hit_rate", "fraction"},
        {"cam.programs_per_kinstr", "1/kinstr"},
        {"mem.cache_hit_rate", "fraction"},
        {"mem.writebacks_per_kinstr", "1/kinstr"},
        {"serve.parse_us", "us"},
        {"serve.fingerprint_us", "us"},
        {"serve.cache_get_us", "us"},
        {"serve.codec_us", "us"},
        {"serve.cache_put_us", "us"},
        {"serve.submit_wait_ms", "ms"},
        {"serve.simulations", "count"},
        {"serve.merges", "count"},
        {"serve.queue_depth_peak", "count"},
        {"serve.cache_hit_rate", "fraction"},
        {"serve.hit_lat_p50_ms", "ms"},
        {"serve.miss_lat_p50_ms", "ms"},
        {"serve.lat_p99_ms", "ms"},
        {"fleet.hop_lat_p50_ms", "ms"},
        {"fleet.ping_rtt_us", "us"},
        {"fleet.peer_fills", "count"},
        {"fleet.peer_fallbacks", "count"},
        {"fleet.shed", "count"},
        {"snapshot.save_us", "us"},
        {"snapshot.restore_us", "us"},
        {"snapshot.blob_kb", "KiB"},
        {"snapshot.steps_skipped", "count"},
        {"explore.rung_s", "s"},
        {"explore.pareto_us", "us"},
        {"explore.points", "count"},
        {"bench.trace_overhead_frac", "fraction"},
        {"error_rate", "fraction"},
    };
    return list;
}

void
zeroLayerMetrics(Report &report)
{
    for (const LayerMetric &m : layerMetrics())
        report.metric(m.name, 0.0, m.unit);
}

int
Spans::begin(const char *name)
{
    auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now, now, parent});
    int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Spans::end(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

double
Spans::selfSeconds(const std::string &name) const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    }
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (name == spans_[i].name)
            total += spans_[i].endNs - spans_[i].startNs - childNs[i];
    }
    return double(total) * 1e-9;
}

std::vector<double>
Spans::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (name == s.name)
            out.push_back(double(s.endNs - s.startNs) * 1e-9);
    }
    return out;
}

std::size_t
Spans::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : spans_)
        n += name == s.name;
    return n;
}

bool
Spans::write(const std::string &path) const
{
    std::ostringstream out;
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
            << s.name << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
            << "}";
    }
    out << "\n]}\n";
    return writeFile(path, out.str());
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    if (q == 0.5 && v.size() % 2 == 0)
        return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    auto rank = static_cast<std::size_t>(
        std::ceil(q * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

bool
quantileSupported(std::size_t n, double q)
{
    return double(n) * (1.0 - q) >= 10.0;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt +
                      0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
digest(const nsrf::sim::RunResult &result)
{
    return nsrf::serve::hashString(nsrf::serve::encodeRunResult(result))
        .hex();
}

namespace
{

/** The text after "@p key:" on its line of a /proc status file. */
std::string
statusField(const std::string &status, const char *key)
{
    // Every field, the first one too, follows a newline here.
    std::string text = "\n" + status;
    std::size_t at = text.find(std::string("\n") + key + ":");
    if (at == std::string::npos)
        return "";
    at += std::string(key).size() + 2;
    std::size_t end = text.find('\n', at);
    std::size_t start = text.find_first_not_of(" \t", at);
    return start < end ? text.substr(start, end - start) : "";
}

/** Pinned canary digests: name -> digest. */
bool
loadPins(const std::string &path,
         std::map<std::string, std::string> *out, std::string *why)
{
    std::string text;
    if (!readFile(path, &text)) {
        *why = "cannot read " + path;
        return false;
    }
    nsrf::serve::json::Value root;
    if (!nsrf::serve::json::parse(text, &root, why) ||
        !root.isObject()) {
        *why = path + ": " + *why;
        return false;
    }
    const nsrf::serve::json::Value *pins = root.find("pins");
    if (!pins || !pins->isObject()) {
        *why = path + ": no pins object";
        return false;
    }
    for (const auto &[key, value] : pins->object)
        (*out)[key] = value.string;
    return true;
}

double
peakOf(const std::string &status)
{
    return std::strtod(statusField(status, "VmHWM").c_str(), nullptr) /
           1024.0;
}

} // namespace

double
selfPeakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss carries the pre-exec image of
    // whatever started this process.
    std::string status;
    return readFile("/proc/self/status", &status) ? peakOf(status) : 0;
}

double
processPeakRssMb(int pid)
{
    std::string status;
    if (!readFile("/proc/" + std::to_string(pid) + "/status", &status))
        return 0;
    return peakOf(status);
}

void
checkPins(const Options &opt,
          const std::map<std::string, std::string> &actual,
          Report &report)
{
    std::map<std::string, std::string> pins;
    std::string why;
    if (!loadPins(opt.pinsPath, &pins, &why)) {
        report.op(false, why);
        return;
    }
    bool first = true;
    for (const auto &[name, value] : actual) {
        auto it = pins.find(name);
        std::string want = it == pins.end() ? "" : it->second;
        if (opt.corruptPin && first && !want.empty())
            want[0] = want[0] == '0' ? '1' : '0';
        first = false;
        report.op(value == want,
                  "canary " + name + " digest " + value +
                      " != pinned " + (want.empty() ? "(none)" : want));
    }
}

bool
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return !ec;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    *out = text.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    out.flush();
    return static_cast<bool>(out);
}

int
spawnProcess(const std::vector<std::string> &argv,
             const std::string &logPath)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND,
                                     0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    return rc == 0 ? int(pid) : -1;
}

int
waitProcess(int pid, double timeoutSec, double *rssMb)
{
    // The child's peak is sampled while it runs: its rusage would
    // include this process's image, which it shared until exec.  The
    // sampler wakes every 10 ms (VmHWM only grows) and enforces the
    // timeout; this thread blocks in waitpid, so the exit is seen at
    // once.
    std::string self;
    readFile("/proc/self/status", &self);
    std::string selfName = statusField(self, "Name");
    std::string path = "/proc/" + std::to_string(pid) + "/status";
    std::mutex mutex;
    std::condition_variable cv;
    bool exited = false;
    double peak = 0;
    std::thread sampler([&]() {
        auto t0 = Clock::now();
        std::unique_lock<std::mutex> lock(mutex);
        while (!exited) {
            std::string status;
            if (rssMb && readFile(path, &status) &&
                statusField(status, "Name") != selfName)
                peak = std::max(peak, peakOf(status));
            if (secondsSince(t0) > timeoutSec) {
                kill(pid, SIGKILL);
                break;
            }
            cv.wait_for(lock, std::chrono::milliseconds(10));
        }
    });
    int wstatus = 0;
    pid_t got;
    do {
        got = waitpid(pid, &wstatus, 0);
    } while (got < 0 && errno == EINTR);
    {
        std::lock_guard<std::mutex> lock(mutex);
        exited = true;
    }
    cv.notify_all();
    sampler.join();
    if (got != pid)
        return -1;
    if (rssMb)
        *rssMb = peak;
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

} // namespace perfbench
