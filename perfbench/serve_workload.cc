/**
 * @file
 * serve_mixed: two `nsrf_serve --listen` nodes on a loopback ring
 * (--workers 2 --jobs 2, memory cache only), driven by one client
 * process holding two connections in a closed loop, one request in
 * flight per connection.  Connection c enters the fleet at node c.
 *
 * Every submit carries kCellsPerSubmit cells, all of one class, the
 * way nsrf_explore's daemon evaluator submits a rung of a lattice:
 *   hit  - a repeated rung the entry node already cached: protocol,
 *          admission, fingerprint, cache, and codec only;
 *   hop  - a repeated rung entered through the other node, which
 *          owns and cached the cells: adds one peer fill per cell;
 *   miss - a new rung owned by the entry node: adds scheduling and
 *          a simulation per cell.
 * Each block of five submits holds one hit, one hop and three misses,
 * in seeded order.  The shares are a layer-separation choice, not a
 * measured traffic mix (see RATIONALE.md).
 *
 * A miss rung, once served, is cached on its owner; it becomes a
 * hop rung of the other connection in the next epoch.  So the run
 * is a sequence of epochs: untimed, each connection's miss rungs are
 * made and simulated offline, and its hop rungs topped up (warming
 * fresh cells on their owner, one cell per submit, when the other
 * connection served too few); timed, both connections run blocks
 * until a queue is used up or time is over.  ops_per_s (per-workload
 * name: req_per_s) is two connections times the median rate of whole
 * blocks; latency_p50_ms is the median of every submit, send to full
 * reply.  Every reply cell is matched to its request by fingerprint
 * and compared byte for byte with the same cell simulated offline in
 * this process; a mismatch, a wrong source class, an error, a
 * reject, a shed or a timeout fails the submit.
 */

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nsrf/fleet/net.hh"
#include "nsrf/fleet/ring.hh"
#include "nsrf/serve/cache.hh"
#include "nsrf/serve/codec.hh"
#include "nsrf/serve/fingerprint.hh"
#include "nsrf/serve/json_in.hh"
#include "nsrf/serve/scheduler.hh"
#include "nsrf/serve/spec.hh"
#include "nsrf/stats/json.hh"

#include "support.hh"

namespace perfbench
{

using namespace nsrf;

namespace
{

enum Class
{
    kHit = 0,
    kHop = 1,
    kMiss = 2
};
const char *const kClassName[] = {"hit", "hop", "miss"};
const char *const kSource[] = {"cache", "peer", "simulated"};
const char *const kApps[] = {"GateSim", "RTLSim", "DTW", "Gamteb"};
constexpr unsigned kRegs[] = {32, 48, 64, 96, 128};
constexpr unsigned kConnections = 2;
constexpr unsigned kTimeoutMs = 30'000;
/** Cells per submit: nsrf_explore's second-rung submit over the
 * explore_smoke lattice (its first rung submits 56). */
constexpr std::size_t kCellsPerSubmit = 28;
/** The submits of one block, run in a seeded order.  Misses are the
 * majority, so the median submit is a miss (see RATIONALE.md). */
constexpr Class kBlock[] = {kHit, kHop, kMiss, kMiss, kMiss};
constexpr std::size_t kBlockHops = 1;
constexpr std::size_t kBlockMisses = 3;

/** One cell of a submit and the reply it must get. */
struct Cell
{
    serve::CellParams params;
    std::string fingerprint; //!< hex
    std::string expected;    //!< "result":{...} of the offline run
    sim::RunResult result;   //!< the offline run
};

/** One submit: cells of one class and its request line. */
struct Batch
{
    Class cls = kHit;
    std::vector<const Cell *> cells;
    std::string line; //!< no newline
};

/** Request-line JSON for @p cells (as nsrf_request writes it). */
std::string
submitLine(const std::vector<const Cell *> &cells)
{
    stats::JsonWriter json;
    json.beginObject();
    json.field("op", "submit");
    json.field("client", "perfbench");
    json.key("cells").beginArray();
    for (const Cell *r : cells) {
        const serve::CellParams &c = r->params;
        json.beginObject();
        json.field("app", c.app);
        json.field("org", regfile::organizationName(c.org));
        json.field("regs", c.totalRegs);
        json.field("line", c.regsPerLine);
        json.field("miss", serve::missPolicyName(c.miss));
        json.field("write", serve::writePolicyName(c.write));
        json.field("events", c.events);
        json.field("seed", c.seed);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

/** A submit of @p cells as class @p cls. */
Batch
makeBatch(Class cls, std::vector<const Cell *> cells)
{
    Batch b;
    b.cls = cls;
    b.line = submitLine(cells);
    b.cells = std::move(cells);
    return b;
}

/** Check cell @p r of @p reply; @p source (if set) is the source the
 * reply must name. */
bool
replyMatches(const std::string &reply, const Cell &r, const char *source,
             std::string *why)
{
    std::size_t at =
        reply.find("\"fingerprint\":\"" + r.fingerprint + "\"");
    if (reply.rfind("{\"ok\":true", 0) != 0 || at == std::string::npos) {
        *why = "no ok reply for " + r.fingerprint + ": " +
               reply.substr(0, 200);
        return false;
    }
    std::size_t next = reply.find("\"fingerprint\":", at + 1);
    std::string cell = reply.substr(at, next - at);
    if (cell.find("\"error\"") != std::string::npos) {
        *why = "error reply for " + r.fingerprint + ": " +
               cell.substr(0, 200);
        return false;
    }
    if (source && cell.find(std::string("\"source\":\"") + source +
                            "\"") == std::string::npos) {
        *why = r.fingerprint + " not answered from " + source + ": " +
               cell.substr(0, 120);
        return false;
    }
    if (cell.find(r.expected) == std::string::npos) {
        *why = "result for " + r.fingerprint +
               " differs from the offline simulation";
        return false;
    }
    return true;
}

/** Check every cell of @p reply to @p b. */
bool
batchMatches(const std::string &reply, const Batch &b, std::string *why)
{
    for (const Cell *r : b.cells) {
        if (!replyMatches(reply, *r, kSource[b.cls], why)) {
            *why = std::string(kClassName[b.cls]) + " submit: " + *why;
            return false;
        }
    }
    return true;
}

/** One line-JSON TCP connection. */
class Connection
{
  public:
    Connection() = default;
    ~Connection() { close(); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    bool
    open(std::uint16_t port, std::string *why)
    {
        close();
        fd_ = fleet::net::connectTcp("127.0.0.1", port,
                                     fleet::net::deadlineIn(2000), why);
        buffer_.clear();
        return fd_ >= 0;
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    /** One round trip; @return false on any transport failure. */
    bool
    exchange(const std::string &line, std::string *reply,
             std::string *why)
    {
        auto deadline = fleet::net::deadlineIn(kTimeoutMs);
        return fd_ >= 0 &&
               fleet::net::sendAll(fd_, line + "\n", deadline, why) &&
               fleet::net::recvLine(fd_, &buffer_, reply, 64u << 20,
                                    deadline, why);
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** A port free on the loopback interface right now. */
std::uint16_t
freePort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    std::uint16_t port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) ==
            0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) ==
            0)
        port = ntohs(addr.sin_port);
    ::close(fd);
    return port;
}

/** Numeric field @p key of sub-object @p section of a stats reply. */
double
statField(const std::string &reply, const char *section,
          const char *key, const char *sub = nullptr)
{
    serve::json::Value v;
    std::string why;
    if (!serve::json::parse(reply, &v, &why))
        return 0;
    const serve::json::Value *s = v.find(section);
    if (s && sub)
        s = s->find(sub);
    return s ? s->getNumber(key, 0) : 0;
}

/** The two-node fleet under test. */
class Fleet
{
  public:
    explicit Fleet(std::string dir) : dir_(std::move(dir)) {}
    ~Fleet() { stop(); }
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Boot both nodes and wait until each answers ping. */
    bool
    start(std::string *why)
    {
        for (int attempt = 0; attempt < 3; ++attempt) {
            stop();
            removeTree(dir_);
            makeDirs(dir_);
            fleet::RingConfig config;
            config.replicas = 1;
            for (unsigned n = 0; n < kConnections; ++n) {
                config.nodes.push_back(fleet::RingNode{
                    "n" + std::to_string(n), "127.0.0.1", freePort()});
            }
            std::string ringText = ringJson(config);
            if (!writeFile(dir_ + "/ring.json", ringText))
                return *why = "cannot write ring config", false;
            ring_ = fleet::Ring(config);
            // The memory LRU is bounded below what one run inserts,
            // so the nodes' resident size plateaus early and
            // peak_rss_mb does not track how much work a run got done.
            // It still holds the hit rungs (each asked every other
            // block) and the hop rungs (served an epoch earlier).  No
            // disk cache: on a shared virtual disk its per-cell file
            // writes made the run-to-run spread several times wider
            // (RATIONALE.md).
            for (unsigned n = 0; n < kConnections; ++n) {
                ports_[n] = config.nodes[n].port;
                pids_[n] = spawnProcess(
                    {NSRF_SERVE_BIN, "--listen",
                     "127.0.0.1:" + std::to_string(ports_[n]), "--ring",
                     dir_ + "/ring.json", "--node-id",
                     config.nodes[n].id, "--workers",
                     "2", "--jobs", "2", "--cache-entries", "2048"},
                    dir_ + "/n" + std::to_string(n) + ".log");
            }
            if (waitReady())
                return true;
        }
        *why = "fleet did not come up (see " + dir_ + "/n*.log)";
        stop();
        return false;
    }

    /** Peak resident set of both nodes, MiB (while running). */
    double
    peakRssMb() const
    {
        double total = 0;
        for (int pid : pids_) {
            if (pid > 0)
                total += processPeakRssMb(pid);
        }
        return total;
    }

    /** One request to node @p n on a fresh connection. */
    std::string
    ask(unsigned n, const std::string &line)
    {
        Connection c;
        std::string reply, why;
        if (!c.open(ports_[n], &why) || !c.exchange(line, &reply, &why))
            return "";
        return reply;
    }

    /** Graceful shutdown, SIGKILL after a bound. */
    void
    stop()
    {
        for (unsigned n = 0; n < kConnections; ++n) {
            if (pids_[n] > 0)
                ask(n, "{\"op\":\"shutdown\"}");
        }
        for (int &pid : pids_) {
            if (pid > 0)
                waitProcess(pid, 10.0);
            pid = -1;
        }
    }

    std::uint16_t port(unsigned n) const { return ports_[n]; }
    const fleet::Ring &ring() const { return ring_; }

  private:
    static std::string
    ringJson(const fleet::RingConfig &config)
    {
        stats::JsonWriter json;
        json.beginObject();
        json.field("version", config.version);
        json.field("vnodes", config.vnodes);
        json.field("replicas", config.replicas);
        json.key("nodes").beginArray();
        for (const fleet::RingNode &node : config.nodes) {
            json.beginObject();
            json.field("id", node.id);
            json.field("host", node.host);
            json.field("port", static_cast<unsigned>(node.port));
            json.endObject();
        }
        json.endArray();
        json.endObject();
        return json.str();
    }

    bool
    waitReady()
    {
        auto t0 = Clock::now();
        for (unsigned n = 0; n < kConnections; ++n) {
            while (ask(n, "{\"op\":\"ping\"}").find("\"ok\":true") ==
                   std::string::npos) {
                if (secondsSince(t0) > 10.0)
                    return false;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        }
        return true;
    }

    std::string dir_;
    fleet::Ring ring_;
    std::uint16_t ports_[kConnections] = {};
    int pids_[kConnections] = {-1, -1};
};

/** The single cell @p r.params names, with its fingerprint. */
sim::SweepCell
expandCell(Cell &r)
{
    std::vector<sim::SweepCell> cells;
    std::string why;
    if (!serve::cellsFromParams(r.params, &cells, &why) ||
        cells.size() != 1)
        return {};
    r.fingerprint =
        serve::fingerprintCell(cells[0].config, cells[0].provenance)
            .hex();
    return std::move(cells[0]);
}

/** Simulate @p cell offline: @p r's result and expected reply text. */
void
simulateOffline(Cell &r, const sim::SweepCell &cell)
{
    auto gen = cell.makeGenerator();
    r.result = sim::runTrace(cell.config, *gen);
    stats::JsonWriter json;
    json.beginObject();
    sim::appendResultJson(json, r.result);
    json.endObject();
    std::string text = json.str();
    r.expected = text.substr(1, text.size() - 2);
}

/** Run @p body(i) for i in [0, n) on up to four threads. */
template <typename Body>
void
parallelFor(std::size_t n, Body body)
{
    unsigned threads = std::max(
        1u, std::min(4u, std::thread::hardware_concurrency()));
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&]() {
            for (std::size_t i; (i = next++) < n;)
                body(i);
        });
    }
    for (auto &t : pool)
        t.join();
}

/** Seeded cells of a wanted owner, simulated offline. */
class CellMaker
{
  public:
    CellMaker(std::uint64_t seed, std::uint64_t events)
        : seed_(seed), events_(events)
    {
    }

    /** Cell @p serial of class @p cls for connection @p conn, owned
     * by node @p owner (the same arguments give the same cell). */
    Cell
    make(Class cls, unsigned conn, unsigned owner,
         const fleet::Ring &ring, std::uint64_t serial) const
    {
        std::uint64_t base = mixSeed(
            seed_, (std::uint64_t(cls) << 56) |
                       (std::uint64_t(conn) << 48) | serial);
        for (std::uint64_t attempt = 0;; ++attempt) {
            std::uint64_t h = mixSeed(base, attempt);
            Cell r;
            r.params.app = kApps[serial % std::size(kApps)];
            r.params.totalRegs = kRegs[(h >> 8) % std::size(kRegs)];
            r.params.events = events_;
            r.params.seed = (h >> 16) % (std::uint64_t(1) << 40) + 1;
            sim::SweepCell cell = expandCell(r);
            serve::Fingerprint key;
            if (!cell.makeGenerator ||
                !serve::Fingerprint::fromHex(r.fingerprint, &key) ||
                ring.primaryOwner(key) != owner)
                continue;
            simulateOffline(r, cell);
            return r;
        }
    }

  private:
    std::uint64_t seed_;
    std::uint64_t events_;
};

/** Seed-independent canary cells: each app at 64 registers, 5000
 * events, seed 1. */
std::vector<Cell>
canaryCells()
{
    std::vector<Cell> out;
    for (const char *app : kApps) {
        Cell r;
        r.params.app = app;
        r.params.totalRegs = 64;
        r.params.events = 5'000;
        r.params.seed = 1;
        simulateOffline(r, expandCell(r));
        out.push_back(std::move(r));
    }
    return out;
}

/** Pin names and digests of @p canaries' offline results. */
std::map<std::string, std::string>
canaryDigests(const std::vector<Cell> &canaries)
{
    std::map<std::string, std::string> out;
    for (const Cell &r : canaries)
        out["serve_mixed/" + r.params.app] = digest(r.result);
    return out;
}

/** Warm @p cells into node @p n's cache (owner-side simulation), one
 * cell per submit, so the nodes' queue-depth peak is the timed
 * traffic's.  @return a note per failed cell. */
std::vector<std::string>
warmCells(Fleet &fleet, unsigned n, const std::vector<const Cell *> &cells)
{
    std::vector<std::string> failures;
    for (const Cell *r : cells) {
        std::string reply = fleet.ask(n, submitLine({r}));
        std::string why;
        if (!replyMatches(reply, *r, nullptr, &why))
            failures.push_back("warm: " + why);
    }
    return failures;
}

/** Count @p total warmed cells and their @p failures in @p report. */
void
countWarm(std::size_t total, const std::vector<std::string> &failures,
          Report &report)
{
    report.ops(total - failures.size());
    for (const std::string &f : failures)
        report.op(false, f);
}

/** Warm @p rungs[n] into node n, both nodes at once. */
void
warmEach(Fleet &fleet, const std::vector<const Batch *> *rungs,
         Report &report)
{
    std::vector<std::string> failures[kConnections];
    std::vector<std::thread> threads;
    for (unsigned n = 0; n < kConnections; ++n) {
        threads.emplace_back([&, n]() {
            for (const Batch *b : rungs[n]) {
                auto f = warmCells(fleet, n, b->cells);
                failures[n].insert(failures[n].end(), f.begin(), f.end());
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (unsigned n = 0; n < kConnections; ++n)
        countWarm(rungs[n].size() * kCellsPerSubmit, failures[n], report);
}

/** Totals over both nodes' stats replies. */
struct FleetCounters
{
    double simulations = 0, merges = 0, queuePeak = 0;
    double cacheHits = 0, cacheMisses = 0;
    double peerFills = 0, fallbacks = 0, shed = 0;

    static FleetCounters
    read(Fleet &fleet)
    {
        FleetCounters t;
        for (unsigned n = 0; n < kConnections; ++n) {
            std::string s = fleet.ask(n, "{\"op\":\"stats\"}");
            t.simulations += statField(s, "scheduler", "simulations");
            t.merges += statField(s, "scheduler", "merges");
            t.queuePeak = std::max(
                t.queuePeak, statField(s, "scheduler", "queueDepthPeak"));
            t.cacheHits += statField(s, "cache", "hits");
            t.cacheMisses += statField(s, "cache", "misses");
            t.peerFills += statField(s, "fleet", "peerFills");
            t.fallbacks += statField(s, "fleet", "peerFillFallbacks");
            t.shed += statField(s, "fleet", "shed", "transport") +
                      statField(s, "fleet", "quotaRejected", "transport");
        }
        return t;
    }

    /** Add what changed from @p before to @p after (the queue peak
     * is a lifetime high-water mark, so it is taken as is). */
    void
    addDelta(const FleetCounters &before, const FleetCounters &after)
    {
        simulations += after.simulations - before.simulations;
        merges += after.merges - before.merges;
        queuePeak = std::max(queuePeak, after.queuePeak);
        cacheHits += after.cacheHits - before.cacheHits;
        cacheMisses += after.cacheMisses - before.cacheMisses;
        peerFills += after.peerFills - before.peerFills;
        fallbacks += after.fallbacks - before.fallbacks;
        shed += after.shed - before.shed;
    }
};

/** What one connection measured. */
struct ConnStats
{
    std::vector<double> lat[3]; //!< seconds, per class
    std::vector<double> all;
    /** Submits/s of each whole block (see kBlock). */
    std::vector<double> blockRates;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
    std::vector<const Batch *> sent; //!< traced half: replayed later
};

/** Sizes of one run. */
struct Sizes
{
    std::uint64_t events = 20'000; //!< per cell
    std::size_t hitRungs = 2;       //!< repeated rungs per connection
    std::size_t blocks = 4;         //!< blocks per epoch
};

/** Everything one run has made: cells, batches, per-connection
 * queues, and the daemons' counters over the timed phases. */
struct Traffic
{
    Traffic(const CellMaker &m, const Sizes &s) : maker(m), sizes(s) {}

    const CellMaker &maker;
    Sizes sizes;
    std::deque<Cell> cells;    //!< every cell (stable addresses)
    std::deque<Batch> batches; //!< every submit (stable addresses)
    std::vector<const Batch *> hits[kConnections];
    std::deque<const Batch *> hops[kConnections], misses[kConnections];
    std::uint64_t serial[kConnections] = {};
    FleetCounters counters; //!< summed over the timed phases

    /** @p n new rungs of @p cls for connection @p conn owned by node
     * @p owner, made in parallel. */
    std::vector<const Batch *>
    rungs(Class cls, unsigned conn, unsigned owner,
          const fleet::Ring &ring, std::size_t n)
    {
        std::vector<Cell> made(n * kCellsPerSubmit);
        std::uint64_t first = serial[conn];
        serial[conn] += made.size();
        parallelFor(made.size(), [&](std::size_t i) {
            made[i] = maker.make(cls, conn, owner, ring, first + i);
        });
        std::vector<const Batch *> out;
        for (std::size_t b = 0; b < n; ++b) {
            std::vector<const Cell *> members;
            for (std::size_t k = 0; k < kCellsPerSubmit; ++k) {
                cells.push_back(std::move(made[b * kCellsPerSubmit + k]));
                members.push_back(&cells.back());
            }
            batches.push_back(makeBatch(cls, std::move(members)));
            out.push_back(&batches.back());
        }
        return out;
    }
};

/**
 * The epoch loop over both connections for @p seconds of timed work;
 * fills @p per with what each connection saw.
 */
void
runEpochs(Fleet &fleet, Traffic &tr, std::uint64_t seed, double seconds,
          bool keepSent, std::vector<ConnStats> &per, Report &report)
{
    const std::size_t wantMisses = tr.sizes.blocks * kBlockMisses;
    const std::size_t wantHops = tr.sizes.blocks * kBlockHops;
    double timed = 0;
    std::uint64_t block0 = 0;
    while (timed < seconds) {
        // Untimed: fresh miss rungs; hop rungs topped up with cells
        // warmed on their owner where the other connection's served
        // misses fall short.
        std::vector<const Batch *> byOwner[kConnections];
        for (unsigned c = 0; c < kConnections; ++c) {
            unsigned other = (c + 1) % kConnections;
            if (tr.misses[c].size() < wantMisses) {
                for (const Batch *b :
                     tr.rungs(kMiss, c, c, fleet.ring(),
                              wantMisses - tr.misses[c].size()))
                    tr.misses[c].push_back(b);
            }
            if (tr.hops[c].size() < wantHops) {
                for (const Batch *b :
                     tr.rungs(kHop, c, other, fleet.ring(),
                              wantHops - tr.hops[c].size())) {
                    byOwner[other].push_back(b);
                    tr.hops[c].push_back(b);
                }
            }
        }
        warmEach(fleet, byOwner, report);
        FleetCounters before = FleetCounters::read(fleet);

        // Timed: both connections run blocks until a queue is used
        // up or the time is over.
        std::atomic<bool> stop{false};
        std::vector<double> connSeconds(kConnections, 0);
        std::vector<std::vector<const Batch *>> served(kConnections);
        std::barrier sync(kConnections);
        std::vector<std::thread> clients;
        double left = seconds - timed;
        for (unsigned c = 0; c < kConnections; ++c) {
            clients.emplace_back([&, c, left]() {
                ConnStats &st = per[c];
                Connection conn;
                std::string why;
                bool up = conn.open(fleet.port(c), &why);
                sync.arrive_and_wait();
                auto t0 = Clock::now();
                for (std::uint64_t block = block0;
                     up && !stop.load(std::memory_order_relaxed);
                     ++block) {
                    std::uint64_t h =
                        mixSeed(seed, (std::uint64_t(c) << 56) | block);
                    Class order[std::size(kBlock)];
                    std::copy(std::begin(kBlock), std::end(kBlock), order);
                    for (std::size_t k = std::size(order) - 1; k > 0; --k)
                        std::swap(order[k], order[mixSeed(h, k) % (k + 1)]);
                    auto blockStart = Clock::now();
                    for (Class cls : order) {
                        const Batch *b = nullptr;
                        if (cls == kHit) {
                            b = tr.hits[c][block % tr.hits[c].size()];
                        } else {
                            auto &queue =
                                cls == kHop ? tr.hops[c] : tr.misses[c];
                            b = queue.front();
                            queue.pop_front();
                        }
                        std::string reply;
                        auto s0 = Clock::now();
                        bool ok = conn.exchange(b->line, &reply, &why);
                        double lat = secondsSince(s0);
                        ++st.attempted;
                        if (ok)
                            ok = batchMatches(reply, *b, &why);
                        if (!ok) {
                            st.failures.push_back(why);
                            if (!conn.open(fleet.port(c), &why))
                                up = false;
                        }
                        if (cls == kMiss)
                            served[c].push_back(b);
                        st.lat[cls].push_back(lat);
                        st.all.push_back(lat);
                        if (keepSent)
                            st.sent.push_back(b);
                    }
                    st.blockRates.push_back(double(std::size(kBlock)) /
                                            secondsSince(blockStart));
                    if (tr.hops[c].size() < kBlockHops ||
                        tr.misses[c].size() < kBlockMisses ||
                        secondsSince(t0) >= left)
                        stop = true;
                }
                if (!up) {
                    ++st.attempted;
                    st.failures.push_back("connection lost: " + why);
                }
                connSeconds[c] = secondsSince(t0);
            });
        }
        for (auto &t : clients)
            t.join();
        tr.counters.addDelta(before, FleetCounters::read(fleet));
        block0 += 1'000'000;
        timed += *std::max_element(connSeconds.begin(), connSeconds.end());

        // A served miss rung is cached on its owner: a hop rung of the
        // other connection, newest first, so the owner still holds it
        // in memory when it is asked.
        for (unsigned c = 0; c < kConnections; ++c) {
            for (const Batch *b : served[c]) {
                tr.batches.push_back(makeBatch(kHop, b->cells));
                tr.hops[(c + 1) % kConnections].push_front(
                    &tr.batches.back());
            }
        }
    }
}

/** Median span duration of @p name, scaled. */
double
medianOf(const Spans &spans, const char *name, double scale)
{
    return median(spans.durations(name)) * scale;
}

/**
 * Time the serve layers in process on the traced half's own submits:
 * parse + spec per request line, and per cell fingerprint, codec,
 * memory-cache get, disk cache put, BatchScheduler submit + wait on
 * fresh cells, and a ping round trip.
 */
void
timeLayers(Fleet &fleet, const std::vector<const Batch *> &sent,
           const std::vector<const Cell *> &fresh, const std::string &dir,
           Spans &spans, Report &report)
{
    std::size_t cellCount = 0;
    for (const Batch *b : sent)
        cellCount += b->cells.size();
    // Sized so no replayed entry is evicted (shards split the bound).
    serve::ResultCacheConfig memoryConfig;
    memoryConfig.maxEntries = 2 * cellCount + 64;
    memoryConfig.maxBytes = std::size_t(1) << 30;
    serve::ResultCache memory(memoryConfig);
    serve::ResultCacheConfig diskConfig;
    diskConfig.dir = dir + "/put-cache";
    removeTree(diskConfig.dir);
    serve::ResultCache disk(diskConfig);
    for (const Batch *b : sent) {
        for (const Cell *r : b->cells) {
            serve::Fingerprint key;
            serve::Fingerprint::fromHex(r->fingerprint, &key);
            memory.put(key, serve::encodeRunResult(r->result));
        }
    }
    std::size_t puts = 0;
    for (const Batch *b : sent) {
        std::vector<sim::SweepCell> cells;
        {
            Scope s(spans, "serve.parse");
            serve::json::Value v;
            std::string why;
            bool ok = serve::json::parse(b->line, &v, &why) &&
                      v.find("cells");
            for (std::size_t i = 0; ok && i < v.find("cells")->array.size();
                 ++i) {
                serve::CellParams params;
                std::vector<sim::SweepCell> expanded;
                ok = serve::paramsFromJson(v.find("cells")->array[i],
                                           &params, &why) &&
                     serve::cellsFromParams(params, &expanded, &why);
                for (sim::SweepCell &cell : expanded)
                    cells.push_back(std::move(cell));
            }
            report.op(ok && cells.size() == b->cells.size(),
                      "replay parse: " + why);
            if (!ok || cells.size() != b->cells.size())
                continue;
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell *r = b->cells[i];
            serve::Fingerprint key;
            {
                Scope s(spans, "serve.fingerprint");
                key = serve::fingerprintCell(cells[i].config,
                                             cells[i].provenance);
            }
            report.op(key.hex() == r->fingerprint,
                      "replay fingerprint differs for " + r->fingerprint);
            std::string encoded;
            {
                Scope s(spans, "serve.codec");
                encoded = serve::encodeRunResult(r->result);
                sim::RunResult back;
                serve::decodeRunResult(encoded, &back);
            }
            {
                Scope s(spans, "serve.cache_get");
                report.op(memory.get(key).has_value(),
                          "replay cache miss for " + r->fingerprint);
            }
            if (puts++ < 256) {
                Scope s(spans, "serve.cache_put");
                disk.put(key, encoded);
            }
        }
    }

    serve::ResultCache schedCache(serve::ResultCacheConfig{});
    serve::BatchScheduler::Config config;
    config.jobs = 1;
    serve::BatchScheduler scheduler(&schedCache, config);
    for (const Cell *r : fresh) {
        std::vector<sim::SweepCell> cells;
        std::string why;
        serve::cellsFromParams(r->params, &cells, &why);
        Scope s(spans, "serve.submit_wait");
        serve::Ticket t = scheduler.submit(cells.at(0));
        bool ok = t.accepted() &&
                  t.job->wait(std::chrono::milliseconds(kTimeoutMs)) &&
                  !t.job->failed() &&
                  digest(t.job->result()) == digest(r->result);
        report.op(ok, "in-process submit differs for " + r->fingerprint);
    }

    Connection conn;
    std::string why, reply;
    if (conn.open(fleet.port(0), &why)) {
        for (int i = 0; i < 200; ++i) {
            Scope s(spans, "fleet.ping");
            conn.exchange("{\"op\":\"ping\"}", &reply, &why);
        }
    }

    report.metric("serve.parse_us", medianOf(spans, "serve.parse", 1e6),
                  "us", spans.count("serve.parse"));
    report.metric("serve.fingerprint_us",
                  medianOf(spans, "serve.fingerprint", 1e6), "us",
                  spans.count("serve.fingerprint"));
    report.metric("serve.codec_us", medianOf(spans, "serve.codec", 1e6),
                  "us", spans.count("serve.codec"));
    report.metric("serve.cache_get_us",
                  medianOf(spans, "serve.cache_get", 1e6), "us",
                  spans.count("serve.cache_get"));
    report.metric("serve.cache_put_us",
                  medianOf(spans, "serve.cache_put", 1e6), "us",
                  spans.count("serve.cache_put"));
    report.metric("serve.submit_wait_ms",
                  medianOf(spans, "serve.submit_wait", 1e3), "ms",
                  spans.count("serve.submit_wait"));
    report.metric("fleet.ping_rtt_us", medianOf(spans, "fleet.ping", 1e6),
                  "us", spans.count("fleet.ping"));
}

/** Record @p per's failures and return all latencies (by class in
 * @p byClass). */
std::vector<double>
collect(std::vector<ConnStats> &per, std::vector<double> byClass[3],
        Report &report)
{
    std::vector<double> all;
    for (ConnStats &st : per) {
        report.ops(st.attempted - st.failures.size());
        for (const std::string &f : st.failures)
            report.op(false, f);
        all.insert(all.end(), st.all.begin(), st.all.end());
        for (int k = 0; k < 3; ++k)
            byClass[k].insert(byClass[k].end(), st.lat[k].begin(),
                              st.lat[k].end());
    }
    return all;
}

} // namespace

void
runServeMixed(const Options &opt, Report &report)
{
    Sizes sizes;
    if (opt.tiny) {
        sizes.events = 2'000;
        sizes.blocks = 1;
    }
    std::string dir = opt.workDir + "/serve";
    report.info("events_per_cell", std::to_string(sizes.events));
    report.info("cells_per_submit", std::to_string(kCellsPerSubmit));
    CellMaker maker(opt.seed, sizes.events);
    std::unique_ptr<Traffic> tr;

    // Set-up: both nodes up and listening, and each connection's
    // repeated rungs simulated offline and cached on its entry node.
    Fleet fleet(dir);
    std::vector<double> setup;
    for (unsigned s = 0; s < std::max(1u, opt.setups); ++s) {
        auto t0 = Clock::now();
        std::string why;
        if (!fleet.start(&why)) {
            report.op(false, why);
            report.metric("setup_s", secondsSince(t0), "s", 1);
            return;
        }
        tr = std::make_unique<Traffic>(maker, sizes);
        for (unsigned c = 0; c < kConnections; ++c)
            tr->hits[c] =
                tr->rungs(kHit, c, c, fleet.ring(), sizes.hitRungs);
        warmEach(fleet, tr->hits, report);
        setup.push_back(secondsSince(t0));
    }
    report.metric("setup_s", median(setup), "s", setup.size());

    std::vector<ConnStats> plain(kConnections);
    double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    runEpochs(fleet, *tr, opt.seed, budget, false, plain, report);
    std::vector<double> byClass[3];
    std::vector<double> all = collect(plain, byClass, report);

    if (!opt.trace) {
        // Both connections run the same mix, so the fleet completes
        // kConnections times one connection's median block rate.
        std::vector<double> blocks;
        for (const ConnStats &st : plain)
            blocks.insert(blocks.end(), st.blockRates.begin(),
                          st.blockRates.end());
        report.metric("ops_per_s", kConnections * median(blocks), "op/s",
                      blocks.size());
        report.metric("latency_p50_ms", median(all) * 1e3, "ms",
                      all.size());
        char line[200];
        std::snprintf(line, sizeof(line),
                      "block submits/s: q1 %.4g median %.4g q3 %.4g; "
                      "median ms: hit %.4g hop %.4g miss %.4g",
                      quantile(blocks, 0.25), median(blocks),
                      quantile(blocks, 0.75), median(byClass[kHit]) * 1e3,
                      median(byClass[kHop]) * 1e3,
                      median(byClass[kMiss]) * 1e3);
        report.note(line);
    } else {
        // The per-class latencies of the untraced half: each class
        // adds one layer to the one before it.
        zeroLayerMetrics(report);
        if (!quantileSupported(all.size(), 0.99))
            report.note("serve.lat_p99_ms rests on fewer than 10 "
                        "samples beyond it");
        report.metric("serve.lat_p99_ms", quantile(all, 0.99) * 1e3, "ms",
                      all.size());
        const char *names[] = {"serve.hit_lat_p50_ms",
                               "fleet.hop_lat_p50_ms",
                               "serve.miss_lat_p50_ms"};
        for (int k = 0; k < 3; ++k) {
            report.metric(names[k], median(byClass[k]) * 1e3, "ms",
                          byClass[k].size());
        }
        // The daemons' counters over the traced half's timed phases
        // only: no set-up or warm traffic.
        tr->counters = FleetCounters{};
        std::vector<ConnStats> traced(kConnections);
        runEpochs(fleet, *tr, opt.seed ^ 1, opt.seconds / 2, true, traced,
                  report);
        const FleetCounters &t = tr->counters;
        std::vector<double> tracedClass[3];
        std::vector<double> tracedAll = collect(traced, tracedClass, report);

        Spans spans;
        std::vector<const Batch *> sent;
        for (const ConnStats &st : traced)
            sent.insert(sent.end(), st.sent.begin(), st.sent.end());
        std::vector<const Cell *> fresh;
        for (const Batch *b : tr->rungs(kMiss, 0, 0, fleet.ring(), 1))
            fresh = b->cells;
        timeLayers(fleet, sent, fresh, dir, spans, report);

        report.metric("serve.simulations", t.simulations, "count");
        report.metric("serve.merges", t.merges, "count");
        report.metric("serve.queue_depth_peak", t.queuePeak, "count");
        double lookups = t.cacheHits + t.cacheMisses;
        report.metric("serve.cache_hit_rate",
                      lookups > 0 ? t.cacheHits / lookups : 0, "fraction");
        report.metric("fleet.peer_fills", t.peerFills, "count");
        report.metric("fleet.peer_fallbacks", t.fallbacks, "count");
        report.metric("fleet.shed", t.shed, "count");
        report.metric("bench.trace_overhead_frac",
                      median(tracedAll) / median(all) - 1.0, "fraction");
        spans.write(opt.workDir + "/spans-serve_mixed.json");
    }
    // Canaries: replies must match the offline runs, whose digests
    // are pinned.
    std::vector<Cell> canaries = canaryCells();
    std::vector<const Cell *> canaryPtrs;
    for (const Cell &c : canaries)
        canaryPtrs.push_back(&c);
    countWarm(canaries.size(), warmCells(fleet, 0, canaryPtrs), report);
    checkPins(opt, canaryDigests(canaries), report);

    report.metric("peak_rss_mb", fleet.peakRssMb(), "MiB");
    fleet.stop();
}

std::map<std::string, std::string>
serveCanaryDigests()
{
    return canaryDigests(canaryCells());
}

} // namespace perfbench
