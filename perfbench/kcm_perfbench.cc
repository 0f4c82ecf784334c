/**
 * @file
 * kcm_perfbench — the end-to-end benchmark of both KCM surfaces.
 *
 * Workloads (see README.md for their make-up and reasons):
 *
 *   warm_point  kcm_serverd (default flags) serves the 28 PLM shapes —
 *               each program with its Table 2 and its Table 3 query —
 *               from a warm template cache over two connections.
 *   sim_heavy   the 14 Table 3 programs, each wrapped in a counted
 *               loop of about three million simulated cycles, run
 *               in-process through KcmSystem::query on one thread.
 *   durable_rw  kcm_serverd --db-journal --db-facts serves a seeded
 *               mix of single-fact writes (compiled on the request
 *               path) and cached aggregate reads over two connections.
 *
 * Every run does a fixed number of rounds of the same operations,
 * derived from --seconds, and checks every answer against oracles
 * made apart from the program under test: the baseline interpreter
 * (answers, write/1 output), the oracle execution core (simulated
 * cycles, instructions, inferences) and, for durable_rw, the
 * generator's own model of the store. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Usage:
 *   kcm_perfbench --table3
 *   kcm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --bin-dir DIR --work-dir DIR [--spans-out FILE]
 *                 [--corrupt answer|cycles|model]
 *
 * --corrupt deliberately falsifies one expectation (the self-test of
 * the checks); the number of operations it should fail is printed to
 * stderr as "perfbench: corrupted_ops=N".
 *
 * Exit codes: 0 = result printed (see "correct"), 1 = the benchmark
 * could not run (no result line), 2 = usage error.
 */

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include <poll.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>

#include "baseline/interp.hh"
#include "bench_support/harness.hh"
#include "bench_support/paper_data.hh"
#include "bench_support/plm_suite.hh"
#include "core/machine.hh"
#include "core/snapshot.hh"
#include "db/clause_store.hh"
#include "db/journal.hh"
#include "kcm/kcm.hh"
#include "prolog/atom_table.hh"
#include "prolog/writer.hh"
#include "service/client.hh"
#include "service/session.hh"
#include "service/wire.hh"

#include "perfbench_util.hh"

using namespace perfbench;
using kcm::service::Client;
using kcm::service::ClientReply;
using kcm::service::IoStatus;
using kcm::service::JsonObject;
using kcm::service::JsonWriter;

namespace
{

// ------------------------------------------------------------------ //
// Fixed workload parameters.
// ------------------------------------------------------------------ //

/** Client connections of the served workloads. */
constexpr unsigned kConnections = 2;

/** Set-ups per untraced run; setup_s is their median. The served
 *  workloads run half of them before the timed phase and half after
 *  it; sim_heavy runs one before and spreads the rest over its timed
 *  phase. So, like the timed phase, they span the run instead of one
 *  moment of the host's drift (see kWarmRoundsPerSecond). A traced run
 *  sets up once. */
constexpr int kSetups = 4;

/** Rounds per second of --seconds (a fixed count, never a timer). A
 *  warm_point round is kWarmPasses passes over its 26 good shapes plus
 *  one send of each known-fault shape. The host's speed drifts by up
 *  to 2x over tens of seconds, so the timed phases are long enough to
 *  average over several such swings. */
constexpr double kWarmRoundsPerSecond = 1.0 / 4;
constexpr int kWarmPasses = 4;
constexpr double kSimRoundsPerSecond = 2.0;
constexpr double kDurableRoundsPerSecond = 2.0;

/** Per-request deadline for the shapes that hit the known compiler
 *  fault (duplicated library clauses; see README.md). */
constexpr uint64_t kFaultDeadlineMs = 20;

/** Cycle cap for the in-process oracle-core runs of served shapes: a
 *  shape that does not finish within it is "unfinished". */
constexpr uint64_t kOracleCycleCap = 2'000'000;

/** durable_rw store: item(I, G, V) for I in 1..kItems. Seeding it is
 *  most of durable_rw's set-up. The reads sum over the first
 *  kReadItems (1.1-1.9 Mcycles each). */
constexpr int kItems = 96'000;
constexpr int kReadItems = 24'000;
constexpr int kGroups = 8;

/** Timeout for one reply from the daemon. */
constexpr uint64_t kReplyTimeoutMs = 60'000;

// ------------------------------------------------------------------ //
// Process hygiene: every child is registered so that a signal or an
// error path can kill and reap it.
// ------------------------------------------------------------------ //

constexpr int kMaxChildren = 16;
std::atomic<pid_t> gChildren[kMaxChildren];

void
registerChild(pid_t pid)
{
    for (auto &slot : gChildren) {
        pid_t expected = 0;
        if (slot.compare_exchange_strong(expected, pid))
            return;
    }
}

void
unregisterChild(pid_t pid)
{
    for (auto &slot : gChildren) {
        pid_t expected = pid;
        if (slot.compare_exchange_strong(expected, 0))
            return;
    }
}

void
killAllChildren()
{
    for (auto &slot : gChildren) {
        pid_t pid = slot.exchange(0);
        if (pid > 0) {
            kill(pid, SIGKILL);
            waitpid(pid, nullptr, 0);
        }
    }
}

void
onFatalSignal(int sig)
{
    killAllChildren();
    _exit(128 + sig);
}

const uint64_t gStartNs = nowNs();

/** Progress line on stderr, stamped with seconds since start. */
void
note(const std::string &what)
{
    fprintf(stderr, "perfbench: [%7.2fs] %s\n",
            double(nowNs() - gStartNs) / 1e9, what.c_str());
}

[[noreturn]] void
die(const std::string &why)
{
    fprintf(stderr, "perfbench: %s\n", why.c_str());
    killAllChildren();
    exit(1);
}

// ------------------------------------------------------------------ //
// Options.
// ------------------------------------------------------------------ //

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
    std::string binDir;
    std::string workDir;
    std::string spansOut;
    std::string corrupt; ///< "", "answer", "cycles" or "model"
};

[[noreturn]] void
usage()
{
    fprintf(stderr,
            "usage: kcm_perfbench --workload warm_point|sim_heavy|"
            "durable_rw --seed N --seconds S --trace 0|1\n"
            "       --bin-dir DIR --work-dir DIR [--spans-out FILE]\n"
            "       [--corrupt answer|cycles|model]\n");
    exit(2);
}

/** Rounds of one timed phase. A traced run does its timed work twice
 *  (untraced, then traced), so each of its phases gets half. */
int
roundsFor(const Options &o, double per_second)
{
    int rounds = std::max(1, int(o.seconds * per_second + 0.5));
    return o.trace ? std::max(1, rounds / 2) : rounds;
}

/** Set-ups before and after the timed phase (see kSetups). */
int
setupsBefore(const Options &o)
{
    return o.trace ? 1 : kSetups / 2;
}

int
setupsAfter(const Options &o)
{
    return o.trace ? 0 : kSetups - kSetups / 2;
}

// ------------------------------------------------------------------ //
// Shapes and their oracles.
// ------------------------------------------------------------------ //

/** What one engine produced for one shape. */
struct Expected
{
    bool finished = false; ///< ran to completion (within any cap)
    std::string answers;   ///< normalized solutions, ';'-joined
    std::string output;    ///< write/1 output
    std::string error;     ///< program-level error term
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
};

struct Shape
{
    std::string name;
    std::string program;
    std::string goal;
    bool stdlib = false;     ///< compiled with the standard library
    bool knownFault = false; ///< hits the duplicated-library fault
    Expected core;           ///< oracle core (fastDispatch = false)
    Expected base;           ///< baseline interpreter
};

std::string
joinAnswers(const std::vector<std::string> &answers)
{
    std::string out;
    for (const std::string &a : answers)
        out += stripVarNumbers(a) + ";";
    return out;
}

/** The 28 served shapes: every PLM program with its Table 2 (I/O)
 *  and its Table 3 (pure) query, compiled by the daemon with its
 *  default standard library. */
std::vector<Shape>
warmShapes()
{
    std::vector<Shape> shapes;
    for (const kcm::PlmBenchmark &b : kcm::plmSuite()) {
        // mutest defines its own append/3, which the bundled library
        // also defines; the compiler merges both clause sets.
        bool fault = b.name == "mutest";
        shapes.push_back({b.name + ".io", b.program, b.queryIo, true,
                          fault, {}, {}});
        shapes.push_back({b.name + ".pure", b.pureProgram(), b.queryPure,
                          true, fault, {}, {}});
    }
    return shapes;
}

/** Loop counts sizing each Table 3 program to about 3 Mcycles per
 *  query (per-iteration cycles measured on the oracle core). Fixed:
 *  a compiler change that costs cycles must show in
 *  sim_cycles_per_query, not be absorbed by a re-sized loop. */
const std::map<std::string, int> &
simLoopCounts()
{
    static const std::map<std::string, int> counts = {
        {"con1", 19865},  {"con6", 6740},   {"divide10", 4272},
        {"hanoi", 265},   {"log10", 7158},  {"mutest", 99},
        {"nrev1", 432},   {"ops8", 5927},   {"palin25", 600},
        {"pri2", 154},    {"qs4", 338},     {"queens", 42},
        {"query", 48},    {"times10", 4694},
    };
    return counts;
}

/** The 14 sim_heavy shapes: Table 3 program + counted loop; the goal
 *  runs the loop, then the query once more for its bindings. */
std::vector<Shape>
simShapes()
{
    std::vector<Shape> shapes;
    for (const kcm::PlmBenchmark &b : kcm::plmSuite()) {
        int k = simLoopCounts().at(b.name);
        std::string program =
            b.pureProgram() +
            "\npb_loop(0) :- !.\n"
            "pb_loop(N) :- \\+ \\+ (" +
            b.queryPure + "), N1 is N - 1, pb_loop(N1).\n";
        std::string goal =
            "pb_loop(" + std::to_string(k - 1) + "), " + b.queryPure;
        shapes.push_back({b.name, program, goal, false, false, {}, {}});
    }
    return shapes;
}

// durable_rw: program text sent with every query. Reads sum over the
// seeded item/3 facts by their unique first argument; writes add and
// remove pb_log/2 facts under keys owned by one connection.
const char *kDurableProgram = R"PL(
:- dynamic(pb_log/2).
pb_total(I, N, S, S) :- I > N, !.
pb_total(I, N, S0, S) :-
    item(I, _, V), S1 is S0 + V, I1 is I + 1, pb_total(I1, N, S1, S).
pb_weighted(I, N, S, S) :- I > N, !.
pb_weighted(I, N, S0, S) :-
    item(I, G, V), S1 is S0 + G * V, I1 is I + 1, pb_weighted(I1, N, S1, S).
pb_residue(I, N, S, S) :- I > N, !.
pb_residue(I, N, S0, S) :-
    item(I, _, V), S1 is S0 + V mod 7, I1 is I + 1, pb_residue(I1, N, S1, S).
)PL";

struct DurableModel
{
    std::vector<int64_t> group; ///< item I's group (index I - 1)
    std::vector<int64_t> value; ///< item I's value
    std::map<int64_t, int64_t> log; ///< live pb_log facts

    int64_t
    total(int64_t n) const
    {
        int64_t s = 0;
        for (int64_t i = 0; i < n; ++i)
            s += value[size_t(i)];
        return s;
    }
    int64_t
    weighted(int64_t n) const
    {
        int64_t s = 0;
        for (int64_t i = 0; i < n; ++i)
            s += group[size_t(i)] * value[size_t(i)];
        return s;
    }
    int64_t
    residue(int64_t n) const
    {
        int64_t s = 0;
        for (int64_t i = 0; i < n; ++i)
            s += value[size_t(i)] % 7;
        return s;
    }
};

/** The three read shapes and the answer the model predicts. */
struct ReadShape
{
    std::string goal;
    std::string answer;
};

std::vector<ReadShape>
durableReads(const DurableModel &m)
{
    std::string n = std::to_string(kReadItems);
    std::string half = std::to_string(kReadItems / 2);
    return {
        {"pb_total(1, " + n + ", 0, S)",
         "S = " + std::to_string(m.total(kReadItems)) + ";"},
        {"pb_weighted(1, " + n + ", 0, S)",
         "S = " + std::to_string(m.weighted(kReadItems)) + ";"},
        {"pb_residue(1, " + half + ", 0, S)",
         "S = " + std::to_string(m.residue(kReadItems / 2)) + ";"},
    };
}

/** The seeded item/3 facts of the durable_rw store. */
DurableModel
makeModel(Rng &gen)
{
    DurableModel m;
    for (int i = 0; i < kItems; ++i) {
        m.group.push_back(int64_t(1 + gen.below(kGroups)));
        m.value.push_back(int64_t(gen.below(1000)));
    }
    return m;
}

std::string
durableFacts(const DurableModel &m)
{
    std::string text;
    text.reserve(size_t(kItems) * 24);
    for (int i = 0; i < kItems; ++i)
        text += "item(" + std::to_string(i + 1) + ", " +
                std::to_string(m.group[size_t(i)]) + ", " +
                std::to_string(m.value[size_t(i)]) + ").\n";
    return text;
}

/** Representative write goals: their simulated cycles do not depend
 *  on the key or value, so one of each is the oracle for all. The
 *  oracle store holds kOracleLogFact beside the items. */
const char *kOracleAssert = "assertz(pb_log(1000002, 500))";
const char *kOracleRetract = "retract(pb_log(1000001, V))";
const char *kOracleLogFact = "pb_log(1000001, 500).\n";

// ---- running one shape on an engine -------------------------------- //

Expected
runOnCore(const Shape &s, bool fast, uint64_t cycle_cap,
          const std::string &facts = "")
{
    kcm::KcmOptions opt;
    opt.machine.fastDispatch = fast;
    opt.machine.governor.cycleBudget = cycle_cap;
    opt.maxSolutions = 1;
    kcm::KcmSystem sys(opt);
    if (s.stdlib)
        sys.consultStandardLibrary();
    sys.consult(s.program);
    if (!facts.empty())
        sys.preloadFacts(facts, "perfbench-facts");
    kcm::QueryResult r = sys.query(s.goal);
    Expected e;
    std::vector<std::string> answers;
    for (const kcm::Solution &sol : r.solutions)
        answers.push_back(sol.toString());
    e.answers = joinAnswers(answers);
    e.output = r.output;
    e.error = r.error;
    e.finished = !(cycle_cap && r.cycles >= cycle_cap);
    e.cycles = r.cycles;
    e.instructions = r.instructions;
    e.inferences = r.inferences;
    return e;
}

/** Baseline threads of the oracle process (the interpreter is the
 *  slow part of the oracles; its runs are independent). */
constexpr size_t kBaselineThreads = 3;

struct BaselineTask
{
    const std::vector<Shape> *shapes = nullptr;
    size_t first = 0; ///< this thread takes shapes first, first + k, ...
    std::vector<Expected> *out = nullptr;
};

void *
baselineThread(void *arg)
{
    auto *task = static_cast<BaselineTask *>(arg);
    for (size_t i = task->first; i < task->shapes->size();
         i += kBaselineThreads) {
        const Shape &s = (*task->shapes)[i];
        kcm::baseline::Interpreter interp;
        // The PLM programs are self-contained: the baseline reads the
        // program alone, the independent meaning of program + goal.
        interp.consult(s.program);
        kcm::baseline::InterpResult r = interp.query(s.goal, 1);
        Expected e;
        std::vector<std::string> answers;
        for (const auto &sol : r.solutions)
            answers.push_back(sol.toString());
        e.answers = joinAnswers(answers);
        e.output = r.output;
        e.error = r.error;
        e.finished = true;
        e.inferences = r.inferences;
        (*task->out)[i] = e;
    }
    return nullptr;
}

std::string
encodeExpected(const Expected &e)
{
    return JsonWriter()
        .field("finished", e.finished)
        .field("answers", e.answers)
        .field("output", e.output)
        .field("error", e.error)
        .field("cycles", e.cycles)
        .field("instructions", e.instructions)
        .field("inferences", e.inferences)
        .str();
}

Expected
decodeExpected(const std::string &line)
{
    JsonObject o;
    std::string err;
    if (!kcm::service::parseJsonObject(line, o, err))
        die("oracle: bad record: " + err);
    Expected e;
    e.finished = o["finished"].boolean;
    e.answers = o["answers"].str;
    e.output = o["output"].str;
    e.error = o["error"].str;
    e.cycles = uint64_t(o["cycles"].asInt());
    e.instructions = uint64_t(o["instructions"].asInt());
    e.inferences = uint64_t(o["inferences"].asInt());
    return e;
}

/**
 * Compute both oracles for @p shapes in a forked child, so that the
 * oracle's memory and CPU never count against the working process
 * (its peak RSS and CPU are metrics). The child compiles in shape
 * order, the same order set-up uses, so atoms intern alike. Each
 * record is one JSON line on a pipe. @p extra are additional
 * oracle-core-only shapes (durable_rw reads and writes) run with
 * @p facts preloaded.
 */
void
computeOracles(std::vector<Shape> &shapes, uint64_t cycle_cap,
               std::vector<Shape> *extra = nullptr,
               const std::string &facts = "")
{
    int fds[2];
    if (pipe(fds) < 0)
        die("pipe: " + std::string(strerror(errno)));
    fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0)
        die("fork: " + std::string(strerror(errno)));
    if (pid == 0) {
        close(fds[0]);
        FILE *out = fdopen(fds[1], "w");
        try {
            for (const Shape &s : shapes)
                fprintf(out, "%s\n",
                        encodeExpected(runOnCore(s, false, cycle_cap))
                            .c_str());
            if (extra)
                for (const Shape &s : *extra)
                    fprintf(out, "%s\n",
                            encodeExpected(
                                runOnCore(s, false, cycle_cap, facts))
                                .c_str());
            std::vector<Expected> base(shapes.size());
            BaselineTask tasks[kBaselineThreads];
            pthread_t tids[kBaselineThreads];
            pthread_attr_t attr;
            pthread_attr_init(&attr);
            pthread_attr_setstacksize(&attr, size_t(1) << 30);
            for (size_t t = 0; t < kBaselineThreads; ++t) {
                tasks[t] = {&shapes, t, &base};
                if (pthread_create(&tids[t], &attr, baselineThread,
                                   &tasks[t]) != 0)
                    _exit(3);
            }
            for (pthread_t tid : tids)
                pthread_join(tid, nullptr);
            for (const Expected &e : base)
                fprintf(out, "%s\n", encodeExpected(e).c_str());
        } catch (const std::exception &e) {
            fprintf(stderr, "perfbench oracle: %s\n", e.what());
            _exit(3);
        }
        fclose(out);
        _exit(0);
    }
    registerChild(pid);
    close(fds[1]);
    FILE *in = fdopen(fds[0], "r");
    std::vector<std::string> lines;
    char *buf = nullptr;
    size_t cap = 0;
    ssize_t n;
    while ((n = getline(&buf, &cap, in)) > 0)
        lines.emplace_back(buf, size_t(n) - 1);
    free(buf);
    fclose(in);
    int status = 0;
    waitpid(pid, &status, 0);
    unregisterChild(pid);
    size_t want = shapes.size() * 2 + (extra ? extra->size() : 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        lines.size() != want)
        die("oracle process failed");
    size_t i = 0;
    for (Shape &s : shapes)
        s.core = decodeExpected(lines[i++]);
    if (extra)
        for (Shape &s : *extra)
            s.core = decodeExpected(lines[i++]);
    for (Shape &s : shapes)
        s.base = decodeExpected(lines[i++]);
}

/** Why a completed result does not match the shape's oracles ("" =
 *  it matches). */
std::string
mismatch(const Shape &s, const std::string &answers,
         const std::string &output, const std::string &error,
         uint64_t cycles, uint64_t instructions, uint64_t inferences)
{
    if (answers != s.base.answers)
        return "answers '" + answers + "' != baseline '" +
               s.base.answers + "'";
    if (output != s.base.output)
        return "output differs from baseline";
    if (error != s.base.error)
        return "error '" + error + "' != baseline '" + s.base.error +
               "'";
    if (!s.core.finished)
        return "oracle core did not finish within its cycle cap";
    if (cycles != s.core.cycles || instructions != s.core.instructions ||
        inferences != s.core.inferences)
        return "simulated " + std::to_string(cycles) + "/" +
               std::to_string(instructions) + "/" +
               std::to_string(inferences) + " != oracle core " +
               std::to_string(s.core.cycles) + "/" +
               std::to_string(s.core.instructions) + "/" +
               std::to_string(s.core.inferences);
    return "";
}

// ------------------------------------------------------------------ //
// The daemon.
// ------------------------------------------------------------------ //

struct DrainReport
{
    bool exitedZero = false;
    bool balanced = false; ///< accepted == replied
    std::string line;
};

class Daemon
{
  public:
    Daemon(const std::string &bin_dir,
           const std::vector<std::string> &extra)
    {
        int fds[2];
        if (pipe(fds) < 0)
            die("pipe: " + std::string(strerror(errno)));
        std::string path = bin_dir + "/kcm_serverd";
        fflush(nullptr);
        pid_ = fork();
        if (pid_ < 0)
            die("fork: " + std::string(strerror(errno)));
        if (pid_ == 0) {
            // The daemon must not outlive the benchmark, however it ends.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            dup2(fds[1], STDOUT_FILENO);
            close(fds[0]);
            close(fds[1]);
            std::vector<std::string> args = {path, "--port", "0"};
            args.insert(args.end(), extra.begin(), extra.end());
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(path.c_str(), argv.data());
            fprintf(stderr, "exec %s: %s\n", path.c_str(),
                    strerror(errno));
            _exit(127);
        }
        registerChild(pid_);
        close(fds[1]);
        outFd_ = fds[0];
        std::string line = readLine(30'000);
        JsonObject o;
        std::string err;
        if (!kcm::service::parseJsonObject(line, o, err) ||
            o.find("listening") == o.end())
            die("kcm_serverd did not report its port (got '" + line +
                "')");
        port_ = uint16_t(o["listening"].asInt());
    }

    ~Daemon() { kill9(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }
    uint16_t port() const { return port_; }

    /** SIGTERM, collect the drain line, reap. */
    DrainReport
    drain()
    {
        DrainReport rep;
        if (pid_ <= 0)
            return rep;
        kill(pid_, SIGTERM);
        for (;;) {
            std::string line = readLine(60'000);
            if (line.empty())
                break;
            if (line.find("\"drain\"") != std::string::npos)
                rep.line = line;
        }
        int status = 0;
        waitpid(pid_, &status, 0);
        unregisterChild(pid_);
        pid_ = -1;
        close(outFd_);
        outFd_ = -1;
        rep.exitedZero = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        JsonObject o;
        std::string err;
        if (kcm::service::parseJsonObject(rep.line, o, err))
            rep.balanced = o["accepted"].asInt(-1) ==
                           o["replied"].asInt(-2);
        return rep;
    }

  private:
    void
    kill9()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
            unregisterChild(pid_);
            pid_ = -1;
        }
        if (outFd_ >= 0) {
            close(outFd_);
            outFd_ = -1;
        }
    }

    /** One line of the daemon's stdout ("" on EOF or timeout). */
    std::string
    readLine(int timeout_ms)
    {
        std::string line;
        for (;;) {
            pollfd p{outFd_, POLLIN, 0};
            if (poll(&p, 1, timeout_ms) <= 0)
                return line;
            char c;
            if (read(outFd_, &c, 1) != 1)
                return line;
            if (c == '\n')
                return line;
            line += c;
        }
    }

    pid_t pid_ = -1;
    int outFd_ = -1;
    uint16_t port_ = 0;
};

/** Server-side counters from the "stats" op. */
using Stats = std::map<std::string, double>;

Stats
fetchStats(Client &c)
{
    ClientReply r = c.stats(10'000);
    if (r.io != IoStatus::Ok || !r.parsed)
        die("stats op failed");
    Stats s;
    for (const auto &[k, v] : r.fields)
        if (v.isNumber())
            s[k] = v.kind == kcm::service::JsonValue::Kind::Int
                       ? double(v.integer)
                       : v.real;
    return s;
}

void
connectAll(std::vector<std::unique_ptr<Client>> &conns, uint16_t port,
           unsigned n)
{
    conns.clear();
    for (unsigned i = 0; i < n; ++i) {
        conns.push_back(std::make_unique<Client>());
        if (!conns.back()->connect("127.0.0.1", port))
            die("connect: " + conns.back()->error());
    }
}

/** A decoded query reply. */
struct Reply
{
    bool transportOk = false;
    std::string status;    ///< completed / failed / ...
    std::string failure;   ///< "error" field of a failed reply
    std::string answers;   ///< normalized
    std::string output;
    std::string error;     ///< program-level error of a completed reply
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
    double wallMs = 0;
};

Reply
query(Client &c, const std::string &id, const std::string &program,
      const std::string &goal, uint64_t deadline_ms = 0)
{
    ClientReply r = c.query(id, program, goal, 1, deadline_ms,
                            kReplyTimeoutMs);
    Reply rep;
    rep.transportOk = r.io == IoStatus::Ok && r.parsed;
    if (!rep.transportOk)
        return rep;
    rep.status = r.status();
    if (rep.status == "completed") {
        std::vector<std::string> answers;
        if (auto it = r.fields.find("answers"); it != r.fields.end())
            for (const auto &a : it->second.items)
                answers.push_back(a.str);
        rep.answers = joinAnswers(answers);
        rep.output = r.str("output");
        rep.error = r.str("error");
    } else {
        rep.failure = r.str("error");
    }
    rep.cycles = uint64_t(r.num("cycles"));
    rep.instructions = uint64_t(r.num("instructions"));
    rep.inferences = uint64_t(r.num("inferences"));
    rep.wallMs = double(r.num("wall_ms"));
    return rep;
}

// ------------------------------------------------------------------ //
// Results.
// ------------------------------------------------------------------ //

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    fail(const std::string &why)
    {
        correct = false;
        fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
    }
};

void
printResult(const RunResult &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        char num[64];
        double v = std::isfinite(r.metrics[i].value) ? r.metrics[i].value
                                                      : 0.0;
        snprintf(num, sizeof num, "%.10g", v);
        if (i)
            out += ", ";
        out += "\"" + r.metrics[i].name + "\": {\"value\": " + num +
               ", \"unit\": \"" + r.metrics[i].unit + "\"}";
    }
    out += "}}";
    printf("%s\n", out.c_str());
    fflush(stdout);
}

/** One timed operation. */
struct OpRecord
{
    size_t shape = 0;
    bool ok = false;
    double latencyMs = 0;
    double wallMs = 0;
    uint64_t cycles = 0;
};

/** The end-to-end figures of one timed phase. */
struct Phase
{
    std::vector<OpRecord> ops;
    double wallS = 0;
    double cpuMs = 0;

    uint64_t
    completed() const
    {
        uint64_t n = 0;
        for (const OpRecord &o : ops)
            n += o.ok;
        return n;
    }

    std::vector<double>
    latencies() const
    {
        std::vector<double> v;
        for (const OpRecord &o : ops)
            if (o.ok)
                v.push_back(o.latencyMs);
        return v;
    }

    double
    meanCycles() const
    {
        double sum = 0;
        uint64_t n = 0;
        for (const OpRecord &o : ops)
            if (o.ok) {
                sum += double(o.cycles);
                ++n;
            }
        return n ? sum / double(n) : 0;
    }
};

void
addEndToEnd(RunResult &r, const std::vector<double> &setups,
            const Phase &p, double peak_rss_mib)
{
    std::vector<double> lat = p.latencies();
    double done = double(std::max<uint64_t>(1, p.completed()));
    r.add("setup_s", median(setups), "s");
    r.add("throughput_qps", double(p.completed()) / p.wallS, "1/s");
    r.add("latency_p50_ms", quantile(lat, 0.50), "ms");
    r.add("latency_p95_ms", quantile(lat, 0.95), "ms");
    r.add("cpu_ms_per_query", p.cpuMs / done, "ms");
    r.add("sim_cycles_per_query", p.meanCycles(), "cycles");
    r.add("peak_rss_mb", peak_rss_mib, "MiB");
}

// ------------------------------------------------------------------ //
// In-process layer replay (traced runs).
// ------------------------------------------------------------------ //

struct ReplayShape
{
    std::string program;
    std::string goal;
    bool stdlib = false;
    /** Durable: the image consults only these declarations and the
     *  machine runs against this attached store. */
    std::string decls;
    std::shared_ptr<kcm::db::ClauseStore> store;
    uint64_t expectCycles = 0; ///< 0 = do not check
    /** Fact file text preloaded into the image instead (KcmSystem's
     *  own path to a seeded store). */
    std::string facts;
};

struct ReplayFigures
{
    std::vector<double> compileMs, newMs, loadMs, takeMs, validateMs,
        restoreMs, runMs, queryMs, querySelfMs;
    std::vector<double> imageWords, snapshotKiB, dHit, iHit;
    double cycles = 0, instructions = 0, inferences = 0, runS = 0;
    size_t shapes = 0;
    bool cyclesMatch = true;
};

/** Replay each shape once through the public calls the daemon makes,
 *  one span per call. */
ReplayFigures
replayLayers(Tracer &tr, const std::vector<ReplayShape> &shapes)
{
    ReplayFigures f;
    kcm::MachineConfig cfg; // the daemon's default configuration
    for (size_t i = 0; i < shapes.size(); ++i) {
        const ReplayShape &s = shapes[i];
        int root = tr.begin("replay.shape", -1, i);

        uint64_t t0 = nowNs();
        kcm::KcmOptions opt;
        opt.maxSolutions = 1;
        kcm::KcmSystem sys(opt);
        if (s.stdlib)
            sys.consultStandardLibrary();
        sys.consult(s.program);
        if (!s.decls.empty())
            sys.consult(s.decls);
        if (!s.facts.empty())
            sys.preloadFacts(s.facts, "perfbench-facts");
        kcm::CodeImage image = sys.compileOnly(s.goal);
        uint64_t t1 = nowNs();
        tr.add("compiler.compile", t0, t1, root, i);
        f.compileMs.push_back(msBetween(t0, t1));
        f.imageWords.push_back(double(image.words.size()));

        t0 = nowNs();
        auto loaded = std::make_unique<kcm::Machine>(cfg);
        t1 = nowNs();
        tr.add("core.machine_new", t0, t1, root, i);
        f.newMs.push_back(msBetween(t0, t1));

        t0 = nowNs();
        loaded->load(image);
        t1 = nowNs();
        tr.add("core.load", t0, t1, root, i);
        f.loadMs.push_back(msBetween(t0, t1));

        t0 = nowNs();
        auto snap =
            std::make_shared<kcm::Snapshot>(kcm::takeSnapshot(*loaded));
        t1 = nowNs();
        tr.add("core.snapshot_take", t0, t1, root, i);
        f.takeMs.push_back(msBetween(t0, t1));
        f.snapshotKiB.push_back(double(snap->bytes.size()) / 1024.0);
        loaded.reset();

        t0 = nowNs();
        bool valid = kcm::validateSnapshot(*snap);
        t1 = nowNs();
        tr.add("core.snapshot_validate", t0, t1, root, i);
        f.validateMs.push_back(msBetween(t0, t1));
        if (!valid)
            die("replay: a fresh snapshot failed validation");

        kcm::Machine m(cfg);
        t0 = nowNs();
        kcm::restoreSnapshot(m, *snap);
        t1 = nowNs();
        tr.add("core.snapshot_restore", t0, t1, root, i);
        f.restoreMs.push_back(msBetween(t0, t1));
        if (s.store)
            m.attachDynamicDb(s.store);

        t0 = nowNs();
        m.solutions(1);
        t1 = nowNs();
        tr.add("core.run", t0, t1, root, i);
        f.runMs.push_back(msBetween(t0, t1));
        f.runS += double(t1 - t0) / 1e9;
        f.cycles += double(m.cycles());
        f.instructions += double(m.instructions());
        f.inferences += double(m.inferences());
        f.dHit.push_back(m.mem().dataCache().hitRatio());
        f.iHit.push_back(m.mem().codeCache().hitRatio());
        if (s.expectCycles && m.cycles() != s.expectCycles)
            f.cyclesMatch = false;

        if (!s.store) {
            // Session::run and KcmSystem::query would mutate a shared
            // store; durable shapes replay them only up to the run.
            kcm::service::SessionOptions so;
            so.machine = cfg;
            so.maxSolutions = 1;
            t0 = nowNs();
            kcm::service::Session session(
                std::shared_ptr<const kcm::Snapshot>(snap), so);
            session.run();
            t1 = nowNs();
            tr.add("service.session_run", t0, t1, root, i);

            t0 = nowNs();
            sys.query(s.goal);
            t1 = nowNs();
            tr.add("kcm.query", t0, t1, root, i);
            f.queryMs.push_back(msBetween(t0, t1));
            // What KcmSystem::query adds beyond the calls it makes:
            // compile, machine construction, load and run of the same
            // shape, made by hand right after it. Both follow the
            // replay above, so neither pays for a cold heap.
            t0 = nowNs();
            kcm::CodeImage again = sys.compileOnly(s.goal);
            kcm::Machine by_hand(cfg);
            by_hand.load(again);
            by_hand.solutions(1);
            t1 = nowNs();
            f.querySelfMs.push_back(f.queryMs.back() - msBetween(t0, t1));
        }
        tr.end(root);
        ++f.shapes;
    }
    return f;
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

void
addReplayMetrics(RunResult &r, const ReplayFigures &f)
{
    double n = double(std::max<size_t>(1, f.shapes));
    r.add("compiler.compile_ms", median(f.compileMs), "ms");
    r.add("compiler.image_words", median(f.imageWords), "words");
    r.add("core.machine_new_ms", median(f.newMs), "ms");
    r.add("core.load_ms", median(f.loadMs), "ms");
    r.add("core.snapshot_take_ms", median(f.takeMs), "ms");
    r.add("core.snapshot_restore_ms", median(f.restoreMs), "ms");
    r.add("core.snapshot_validate_ms", median(f.validateMs), "ms");
    r.add("core.snapshot_bytes", median(f.snapshotKiB), "KiB");
    r.add("core.run_ms", median(f.runMs), "ms");
    r.add("core.run_mcycles_per_s", f.cycles / f.runS / 1e6, "Mcyc/s");
    r.add("core.instructions_per_query", f.instructions / n, "count");
    r.add("core.inferences_per_query", f.inferences / n, "count");
    r.add("core.cycles_per_instruction",
          f.cycles / std::max(1.0, f.instructions), "cycles/instr");
    r.add("mem.dcache_hit_ratio", meanOf(f.dHit), "ratio");
    r.add("mem.icache_hit_ratio", meanOf(f.iHit), "ratio");
}

/** db layer: seed a fresh journal with the durable_rw fact file
 *  (commit #1), then time one-op commits and flushes. */
void
addDbProbe(RunResult &r, Tracer &tr, const std::string &dir,
           const std::string &facts_text, double *bytes_per_commit)
{
    using namespace kcm;
    uint64_t t0 = nowNs();
    db::JournaledStore js(dir, db::JournalOptions{}, db::DynDbConfig{});
    std::vector<TermRef> facts =
        KcmSystem::parseFactFile(facts_text, "perfbench-facts");
    {
        std::lock_guard<std::mutex> lock(js.mutex());
        db::ClauseStore &store = js.store();
        store.beginTxn();
        for (const TermRef &fact : facts)
            store.assertClause(fact->functor(), fact, nullptr, false);
        js.commit(store.txnOps());
        store.commitTxn();
    }
    js.flush();
    uint64_t t1 = nowNs();
    tr.add("db.seed", t0, t1);
    r.add("db.seed_s", double(t1 - t0) / 1e9, "s");

    std::vector<double> commit_ms, flush_ms;
    uint64_t bytes0 = js.bytesWritten(), commits0 = js.commitsWritten();
    for (int i = 0; i < 64; ++i) {
        TermRef head = Term::makeStruct(
            "pb_log", {Term::makeInt(2'000'000 + i), Term::makeInt(i)});
        uint64_t a, b, c;
        {
            std::lock_guard<std::mutex> lock(js.mutex());
            db::ClauseStore &store = js.store();
            store.beginTxn();
            store.assertClause(head->functor(), head, nullptr, false);
            a = nowNs();
            js.commit(store.txnOps());
            b = nowNs();
            store.commitTxn();
        }
        js.flush();
        c = nowNs();
        tr.add("db.commit", a, b);
        tr.add("db.flush", b, c);
        commit_ms.push_back(msBetween(a, b));
        flush_ms.push_back(msBetween(b, c));
    }
    r.add("db.commit_ms", median(commit_ms), "ms");
    r.add("db.flush_ms", median(flush_ms), "ms");
    if (!bytes_per_commit)
        r.add("db.journal_bytes_per_commit",
              double(js.bytesWritten() - bytes0) /
                  double(js.commitsWritten() - commits0),
              "bytes");
    else
        r.add("db.journal_bytes_per_commit", *bytes_per_commit, "bytes");
}

/** Service figures of a served phase: reply fields and stats deltas. */
void
addServiceMetrics(RunResult &r, const Phase &p, const Stats &before,
                  const Stats &after)
{
    std::vector<double> outside, wall;
    for (const OpRecord &o : p.ops)
        if (o.ok) {
            outside.push_back(o.latencyMs - o.wallMs);
            wall.push_back(o.wallMs);
        }
    auto d = [&](const char *k) {
        auto a = after.find(k), b = before.find(k);
        return (a == after.end() ? 0 : a->second) -
               (b == before.end() ? 0 : b->second);
    };
    auto at = [&](const char *k) {
        auto a = after.find(k);
        return a == after.end() ? 0 : a->second;
    };
    double hits = d("cache_hits"), misses = d("cache_misses");
    double completed = double(std::max<uint64_t>(1, p.completed()));
    r.add("service.outside_session_ms", median(outside), "ms");
    // Mean, not median: the reply's wall_ms is whole milliseconds, so
    // its median would read the same integer on every run.
    r.add("service.session_wall_ms", meanOf(wall), "ms");
    r.add("service.compiles", d("compiles"), "count");
    // Over the daemon's life: warm_point compiles only in set-up.
    r.add("service.compile_ms",
          at("compile_micros") / std::max(1.0, at("compiles")) / 1000.0,
          "ms");
    r.add("service.cache_hit_ratio", hits / std::max(1.0, hits + misses),
          "ratio");
    r.add("service.cache_evictions", d("cache_evictions"), "count");
    r.add("service.cache_bytes", at("cache_bytes") / 1048576.0, "MiB");
    r.add("service.checkpoints_per_query",
          d("pool_checkpoints") / completed, "count");
    r.add("service.hedges", d("hedges"), "count");
}

// ------------------------------------------------------------------ //
// Served loop.
// ------------------------------------------------------------------ //

/** One operation of a served script. */
struct ServedOp
{
    size_t shape = 0;
    std::string goal; ///< empty = the shape's own goal
    /** Check a completed reply; "" = correct. */
    std::function<std::string(const Reply &)> check;
};

/**
 * Run per-connection scripts in a closed loop, one thread per
 * connection: each sends its next operation only after the reply to
 * the previous one arrived. Returns the phase with per-op records in
 * script order.
 */
Phase
runServed(std::vector<std::unique_ptr<Client>> &conns,
          const std::vector<std::vector<ServedOp>> &scripts,
          const std::vector<std::string> &programs, pid_t daemon,
          Tracer &tr, uint64_t &failed)
{
    Phase p;
    std::vector<std::vector<OpRecord>> recs(scripts.size());
    std::vector<uint64_t> fails(scripts.size(), 0);
    std::mutex trace_mutex;
    double cpu0 = procCpuMs(daemon);
    uint64_t t0 = nowNs();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < scripts.size(); ++c) {
        threads.emplace_back([&, c] {
            uint64_t req = 0;
            for (const ServedOp &op : scripts[c]) {
                uint64_t a = nowNs();
                Reply rep = query(*conns[c], "q", programs[op.shape],
                                  op.goal);
                uint64_t b = nowNs();
                OpRecord rec;
                rec.shape = op.shape;
                rec.latencyMs = msBetween(a, b);
                rec.wallMs = rep.wallMs;
                rec.cycles = rep.cycles;
                std::string why;
                if (!rep.transportOk)
                    why = "transport failure";
                else if (rep.status != "completed")
                    why = rep.status + ": " + rep.failure;
                else
                    why = op.check(rep);
                rec.ok = why.empty();
                if (!rec.ok) {
                    ++fails[c];
                    fprintf(stderr, "perfbench: op failed (conn %zu, %s):"
                                    " %s\n",
                            c, op.goal.c_str(), why.c_str());
                }
                if (tr.enabled()) {
                    std::lock_guard<std::mutex> lock(trace_mutex);
                    int id = tr.add("client.query", a, b, -1,
                                    (uint64_t(c) << 32) | req);
                    // The daemon's own session time, as it reports it,
                    // placed at the end of the round trip.
                    uint64_t w = uint64_t(rep.wallMs * 1e6);
                    tr.add("service.session", b - std::min(w, b - a), b,
                           id, (uint64_t(c) << 32) | req);
                }
                ++req;
                recs[c].push_back(rec);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    p.wallS = double(nowNs() - t0) / 1e9;
    p.cpuMs = procCpuMs(daemon) - cpu0;
    note("served phase " + std::to_string(p.wallS) + " s");
    for (size_t c = 0; c < recs.size(); ++c) {
        p.ops.insert(p.ops.end(), recs[c].begin(), recs[c].end());
        failed += fails[c];
    }
    return p;
}

// ------------------------------------------------------------------ //
// warm_point.
// ------------------------------------------------------------------ //

std::string
checkAgainst(const Shape &s, const Reply &rep)
{
    return mismatch(s, rep.answers, rep.output, rep.error, rep.cycles,
                    rep.instructions, rep.inferences);
}

/** Send each known-fault shape once per round, one shape per
 *  connection; each send either fails (the fault) or, once mended,
 *  completes and is checked. Outside the latency sample. */
void
faultPhase(std::vector<std::unique_ptr<Client>> &conns,
           const std::vector<Shape> &shapes, int rounds, RunResult &r)
{
    std::vector<const Shape *> faulty;
    for (const Shape &s : shapes)
        if (s.knownFault)
            faulty.push_back(&s);
    std::vector<uint64_t> failed(faulty.size(), 0);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < faulty.size(); ++i)
        threads.emplace_back([&, i] {
            Client &c = *conns[i % conns.size()];
            const Shape &s = *faulty[i];
            for (int round = 0; round < rounds; ++round) {
                Reply rep = query(c, "fault", s.program, s.goal,
                                  kFaultDeadlineMs);
                if (!rep.transportOk || rep.status != "completed" ||
                    !checkAgainst(s, rep).empty())
                    ++failed[i];
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (uint64_t f : failed)
        r.failed += f;
    r.attempted += uint64_t(rounds) * faulty.size();
}

RunResult
runWarmPoint(const Options &o, Tracer &tr)
{
    RunResult r;
    std::vector<Shape> shapes = warmShapes();
    computeOracles(shapes, kOracleCycleCap);
    note("oracles ready");

    std::vector<size_t> good;
    for (size_t i = 0; i < shapes.size(); ++i) {
        const Shape &s = shapes[i];
        if (!s.knownFault)
            good.push_back(i);
        // The oracles must agree with each other before they judge the
        // daemon: a good shape finishes on the oracle core with the
        // baseline's answer.
        if (!s.knownFault && (!s.core.finished ||
                              s.core.answers != s.base.answers ||
                              s.core.output != s.base.output))
            r.fail("oracle core and baseline disagree on " + s.name);
    }
    if (o.corrupt == "answer")
        shapes[good[0]].base.answers += "x";
    if (o.corrupt == "cycles")
        shapes[good[0]].core.cycles += 1;

    std::vector<std::string> programs;
    for (const Shape &s : shapes)
        programs.push_back(s.program);

    // Set-up: spawn, connect, compile every good shape once (canonical
    // order, so templates and atom numbering never depend on the seed).
    std::vector<double> setups;
    std::unique_ptr<Daemon> d;
    std::vector<std::unique_ptr<Client>> conns;
    auto stopDaemon = [&] {
        conns.clear();
        DrainReport dr = d->drain();
        d.reset();
        if (!dr.exitedZero || !dr.balanced)
            r.fail("daemon did not drain cleanly: " + dr.line);
    };
    auto setUp = [&] {
        if (d)
            stopDaemon();
        uint64_t t0 = nowNs();
        d = std::make_unique<Daemon>(o.binDir,
                                     std::vector<std::string>{});
        connectAll(conns, d->port(), kConnections);
        // The known-fault shapes are compiled by their first send in
        // the fault phase: set-up time is not the fault's.
        for (size_t i : good) {
            const Shape &s = shapes[i];
            Reply rep = query(*conns[0], "warm", s.program, s.goal);
            if (!rep.transportOk)
                die("transport failure during set-up");
            if (o.corrupt.empty() && (rep.status != "completed" ||
                                      !checkAgainst(s, rep).empty()))
                r.fail("set-up query of " + s.name + " is wrong");
        }
        setups.push_back(double(nowNs() - t0) / 1e9);
        note("set-up " + std::to_string(setups.back()) + " s");
    };
    for (int i = 0; i < setupsBefore(o); ++i)
        setUp();

    int rounds = roundsFor(o, kWarmRoundsPerSecond);
    Rng rng(o.seed);
    auto makeScripts = [&] {
        std::vector<size_t> order;
        for (int pass = 0; pass < kWarmPasses * rounds; ++pass) {
            std::vector<size_t> perm = good;
            rng.shuffle(perm);
            order.insert(order.end(), perm.begin(), perm.end());
        }
        // Deal the seeded sequence round-robin onto the connections.
        std::vector<std::vector<ServedOp>> scripts(kConnections);
        for (size_t i = 0; i < order.size(); ++i) {
            const Shape &s = shapes[order[i]];
            scripts[i % kConnections].push_back(
                {order[i], s.goal,
                 [&s](const Reply &rep) { return checkAgainst(s, rep); }});
        }
        return scripts;
    };

    Tracer off(false);
    Phase p;
    Stats before, after;
    double overhead = 0;
    if (o.trace) {
        // Same work twice: untraced, then traced; the difference is
        // the tracing overhead.
        Phase plain = runServed(conns, makeScripts(), programs, d->pid(),
                                off, r.failed);
        r.attempted += plain.ops.size();
        faultPhase(conns, shapes, rounds, r);
        before = fetchStats(*conns[0]);
        p = runServed(conns, makeScripts(), programs, d->pid(), tr,
                      r.failed);
        after = fetchStats(*conns[0]);
        overhead = (p.wallS / plain.wallS - 1) * 100;
    } else {
        before = fetchStats(*conns[0]);
        p = runServed(conns, makeScripts(), programs, d->pid(), off,
                      r.failed);
        after = fetchStats(*conns[0]);
    }
    r.attempted += p.ops.size();
    faultPhase(conns, shapes, rounds, r);
    double rss = vmHwmMiB(std::to_string(d->pid()));
    for (int i = 0; i < setupsAfter(o); ++i)
        setUp();
    stopDaemon();

    if (!o.trace) {
        addEndToEnd(r, setups, p, rss);
    } else {
        addServiceMetrics(r, p, before, after);
        std::vector<ReplayShape> rs;
        for (size_t i : good)
            rs.push_back({shapes[i].program, shapes[i].goal, true, "",
                          nullptr, shapes[i].core.cycles});
        ReplayFigures f = replayLayers(tr, rs);
        if (!f.cyclesMatch)
            r.fail("replayed cycles differ from the oracle core");
        addReplayMetrics(r, f);
        Rng g(o.seed);
        addDbProbe(r, tr, o.workDir + "/db-probe",
                   durableFacts(makeModel(g)), nullptr);
        r.add("kcm.query_ms", median(f.queryMs), "ms");
        r.add("kcm.query_self_ms", median(f.querySelfMs), "ms");
        r.add("trace.overhead_pct", overhead, "%");
    }
    if (o.corrupt == "answer" || o.corrupt == "cycles")
        fprintf(stderr, "perfbench: corrupted_ops=%d\n",
                kWarmPasses * rounds * (o.trace ? 2 : 1));
    return r;
}

// ------------------------------------------------------------------ //
// sim_heavy.
// ------------------------------------------------------------------ //

RunResult
runSimHeavy(const Options &o, Tracer &tr)
{
    RunResult r;
    std::vector<Shape> shapes = simShapes();
    computeOracles(shapes, 0);
    note("oracles ready");
    for (const Shape &s : shapes)
        if (s.core.answers != s.base.answers ||
            s.core.output != s.base.output || s.core.error != s.base.error)
            r.fail("oracle core and baseline disagree on " + s.name);
    if (o.corrupt == "answer")
        shapes[0].base.answers += "x";
    if (o.corrupt == "cycles")
        shapes[0].core.cycles += 1;

    auto check = [&](size_t i, const kcm::QueryResult &q) {
        std::vector<std::string> answers;
        for (const kcm::Solution &sol : q.solutions)
            answers.push_back(sol.toString());
        return mismatch(shapes[i], joinAnswers(answers), q.output,
                        q.error, q.cycles, q.instructions, q.inferences);
    };

    // Set-up: construct one system per program, consult it and run its
    // shape twice: the first query compiles and runs cold, the second
    // is the warm-up after which the timed phase starts.
    std::vector<double> setups;
    std::vector<std::unique_ptr<kcm::KcmSystem>> systems;
    auto setUp = [&] {
        systems.clear();
        uint64_t t0 = nowNs();
        for (size_t i = 0; i < shapes.size(); ++i) {
            kcm::KcmOptions opt;
            opt.maxSolutions = 1;
            systems.push_back(std::make_unique<kcm::KcmSystem>(opt));
            systems.back()->consult(shapes[i].program);
            for (int warm = 0; warm < 2; ++warm) {
                kcm::QueryResult q = systems.back()->query(shapes[i].goal);
                if (!check(i, q).empty() && o.corrupt.empty())
                    r.fail("set-up query of " + shapes[i].name +
                           " is wrong");
            }
        }
        setups.push_back(double(nowNs() - t0) / 1e9);
        note("set-up " + std::to_string(setups.back()) + " s");
    };
    setUp();

    // In-process set-ups are cheap to interleave: an untraced run spreads
    // the other kSetups - 1 evenly over its timed phase, with their time
    // left out of it, so that setup_s samples the whole run.
    int rounds = roundsFor(o, kSimRoundsPerSecond);
    Rng rng(o.seed);
    auto phase = [&](Tracer &t, int spread_setups) {
        Phase p;
        double cpu0 = selfCpuMs();
        uint64_t t0 = nowNs();
        int spread_done = 0;
        for (int round = 0; round < rounds; ++round) {
            std::vector<size_t> perm(shapes.size());
            for (size_t i = 0; i < perm.size(); ++i)
                perm[i] = i;
            rng.shuffle(perm);
            for (size_t i : perm) {
                uint64_t a = nowNs();
                kcm::QueryResult q = systems[i]->query(shapes[i].goal);
                uint64_t b = nowNs();
                t.add("kcm.query", a, b, -1, i);
                OpRecord rec;
                rec.shape = i;
                rec.latencyMs = msBetween(a, b);
                rec.cycles = q.cycles;
                std::string why = check(i, q);
                rec.ok = why.empty();
                if (!rec.ok) {
                    ++r.failed;
                    fprintf(stderr, "perfbench: op failed (%s): %s\n",
                            shapes[i].name.c_str(), why.c_str());
                }
                p.ops.push_back(rec);
            }
            while (spread_done < spread_setups &&
                   (round + 1) * spread_setups >= (spread_done + 1) * rounds) {
                p.wallS += double(nowNs() - t0) / 1e9;
                p.cpuMs += selfCpuMs() - cpu0;
                setUp();
                ++spread_done;
                cpu0 = selfCpuMs();
                t0 = nowNs();
            }
        }
        p.wallS += double(nowNs() - t0) / 1e9;
        p.cpuMs += selfCpuMs() - cpu0;
        r.attempted += p.ops.size();
        note("timed phase " + std::to_string(p.wallS) + " s");
        return p;
    };

    Tracer off(false);
    if (!o.trace) {
        Phase p = phase(off, kSetups - 1);
        addEndToEnd(r, setups, p, vmHwmMiB("self"));
    } else {
        Phase plain = phase(off, 0);
        Phase p = phase(tr, 0);
        std::vector<double> q = tr.durationsMs("kcm.query");

        // The same shapes served once cold and once warm: the service
        // layer's view of simulator-bound queries.
        std::vector<std::string> programs;
        for (const Shape &s : shapes)
            programs.push_back(s.program);
        Daemon d(o.binDir, {"--no-stdlib"});
        std::vector<std::unique_ptr<Client>> conns;
        connectAll(conns, d.port(), 1);
        Stats before = fetchStats(*conns[0]);
        std::vector<std::vector<ServedOp>> scripts(1);
        for (int pass = 0; pass < 2; ++pass)
            for (size_t i = 0; i < shapes.size(); ++i) {
                const Shape &s = shapes[i];
                scripts[0].push_back({i, s.goal, [&s](const Reply &rep) {
                                          return checkAgainst(s, rep);
                                      }});
            }
        uint64_t served_failed = 0;
        Phase served = runServed(conns, scripts, programs, d.pid(), tr,
                                 served_failed);
        Stats after = fetchStats(*conns[0]);
        conns.clear();
        DrainReport dr = d.drain();
        if (served_failed || !dr.exitedZero || !dr.balanced)
            r.fail("served replay of the sim_heavy shapes failed");
        addServiceMetrics(r, served, before, after);

        std::vector<ReplayShape> rs;
        for (const Shape &s : shapes)
            rs.push_back({s.program, s.goal, false, "", nullptr,
                          s.core.cycles});
        ReplayFigures f = replayLayers(tr, rs);
        if (!f.cyclesMatch)
            r.fail("replayed cycles differ from the oracle core");
        addReplayMetrics(r, f);
        Rng g(o.seed);
        addDbProbe(r, tr, o.workDir + "/db-probe",
                   durableFacts(makeModel(g)), nullptr);
        r.add("kcm.query_ms", median(q), "ms");
        r.add("kcm.query_self_ms", median(f.querySelfMs), "ms");
        r.add("trace.overhead_pct", (p.wallS / plain.wallS - 1) * 100,
              "%");
    }
    if (o.corrupt == "answer" || o.corrupt == "cycles")
        fprintf(stderr, "perfbench: corrupted_ops=%d\n",
                rounds * (o.trace ? 2 : 1));
    return r;
}

// ------------------------------------------------------------------ //
// durable_rw.
// ------------------------------------------------------------------ //

/** Live clauses of a store, rendered and sorted. */
std::vector<std::string>
storeContents(const kcm::db::ClauseStore &store)
{
    std::vector<std::string> out;
    uint64_t gen = store.generation();
    for (const kcm::Functor &f : store.knownPredicates()) {
        kcm::db::ArgKey any;
        auto res = store.first(f, any, gen);
        while (res.clause) {
            out.push_back(kcm::writeTerm(res.clause->head));
            res = store.next(f, any, gen, res.clause->seq);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
modelContents(const DurableModel &m)
{
    std::vector<std::string> out;
    for (int i = 0; i < kItems; ++i)
        out.push_back("item(" + std::to_string(i + 1) + "," +
                      std::to_string(m.group[size_t(i)]) + "," +
                      std::to_string(m.value[size_t(i)]) + ")");
    for (const auto &[k, v] : m.log)
        out.push_back("pb_log(" + std::to_string(k) + "," +
                      std::to_string(v) + ")");
    std::sort(out.begin(), out.end());
    return out;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    FILE *f = fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = fwrite(text.data(), 1, text.size(), f) == text.size();
    return fclose(f) == 0 && ok;
}

/** Run a program to completion and capture its stdout. */
int
runCapture(const std::vector<std::string> &args, std::string &out)
{
    int fds[2];
    if (pipe(fds) < 0)
        return -1;
    fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv(args[0].c_str(), argv.data());
        _exit(127);
    }
    registerChild(pid);
    close(fds[1]);
    char buf[4096];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, size_t(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    unregisterChild(pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void
removeTree(const std::string &dir)
{
    std::string f = kcm::db::Journal::journalFilePath(dir);
    unlink(f.c_str());
    rmdir(dir.c_str());
}

RunResult
runDurableRw(const Options &o, Tracer &tr)
{
    RunResult r;

    // The generator's inputs and its model of the store.
    Rng gen(o.seed);
    DurableModel model = makeModel(gen);
    const std::string facts = durableFacts(model);
    const std::string facts_path = o.workDir + "/facts.pl";
    if (!writeFile(facts_path, facts))
        die("cannot write " + facts_path);
    std::vector<ReadShape> reads = durableReads(model);
    if (o.corrupt == "model")
        reads[0].answer = "S = " + std::to_string(model.total(kReadItems) + 1) + ";";

    // Oracle-core cycles of every read shape and of one write of each
    // kind, with the facts preloaded.
    const std::string decls = kcm::KcmSystem::factDeclarations(
        kcm::KcmSystem::parseFactFile(facts, "perfbench-facts"));
    std::vector<Shape> none;
    std::vector<Shape> extra;
    for (const ReadShape &rd : reads)
        extra.push_back({rd.goal, kDurableProgram, rd.goal, true, false,
                         {}, {}});
    extra.push_back({"assert", kDurableProgram, kOracleAssert, true,
                     false, {}, {}});
    extra.push_back({"retract", kDurableProgram, kOracleRetract, true,
                     false, {}, {}});
    computeOracles(none, 0, &extra, facts + kOracleLogFact);
    note("oracles ready");
    const uint64_t assert_cycles = extra[3].core.cycles;
    const uint64_t retract_cycles = extra[4].core.cycles;
    std::vector<uint64_t> read_cycles;
    for (size_t i = 0; i < reads.size(); ++i) {
        read_cycles.push_back(extra[i].core.cycles);
        if (extra[i].core.answers != reads[i].answer && o.corrupt.empty())
            r.fail("oracle core disagrees with the model on " +
                   reads[i].goal);
    }
    note("read cycles " + std::to_string(read_cycles[0]) + " " +
         std::to_string(read_cycles[1]) + " " +
         std::to_string(read_cycles[2]) + ", write cycles " +
         std::to_string(assert_cycles) + " " +
         std::to_string(retract_cycles));
    if (o.corrupt == "cycles")
        read_cycles[1] += 1;

    const std::vector<std::string> programs = {kDurableProgram};
    auto checkRead = [&](size_t k) {
        return [&, k](const Reply &rep) -> std::string {
            if (rep.answers != reads[k].answer)
                return "read answer '" + rep.answers + "' != model '" +
                       reads[k].answer + "'";
            if (rep.cycles != read_cycles[k])
                return "read cycles " + std::to_string(rep.cycles) +
                       " != oracle core " +
                       std::to_string(read_cycles[k]);
            return "";
        };
    };

    std::vector<double> setups;
    std::unique_ptr<Daemon> d;
    std::vector<std::unique_ptr<Client>> conns;
    std::string journal_dir;
    int setup_count = 0;
    auto stopSetupDaemon = [&] {
        conns.clear();
        DrainReport dr = d->drain();
        d.reset();
        if (!dr.exitedZero || !dr.balanced)
            r.fail("set-up daemon did not drain cleanly: " + dr.line);
    };
    // Each set-up seeds a fresh journal; the timed phase uses the last
    // one before it.
    auto setUp = [&] {
        if (d)
            stopSetupDaemon();
        if (!journal_dir.empty())
            removeTree(journal_dir);
        journal_dir = o.workDir + "/journal-" + std::to_string(setup_count++);
        uint64_t t0 = nowNs();
        d = std::make_unique<Daemon>(
            o.binDir, std::vector<std::string>{"--db-journal", journal_dir,
                                               "--db-facts", facts_path});
        connectAll(conns, d->port(), kConnections);
        for (size_t k = 0; k < reads.size(); ++k) {
            Reply rep = query(*conns[0], "warm", kDurableProgram,
                              reads[k].goal);
            if (!rep.transportOk)
                die("transport failure during set-up");
            if (rep.status != "completed" ||
                (o.corrupt.empty() && !checkRead(k)(rep).empty()))
                r.fail("set-up read " + reads[k].goal + " is wrong");
        }
        setups.push_back(double(nowNs() - t0) / 1e9);
        note("set-up " + std::to_string(setups.back()) + " s");
    };
    for (int i = 0; i < setupsBefore(o); ++i)
        setUp();

    // Per connection and round: two asserts under fresh keys the
    // connection owns, a read, the retract of the first assert, two
    // more reads. Values and the read order come from the seed; keys,
    // and hence the store's shape, do not.
    int rounds = roundsFor(o, kDurableRoundsPerSecond);
    std::vector<int64_t> next_key(kConnections);
    for (unsigned c = 0; c < kConnections; ++c)
        next_key[c] = int64_t(c + 1) * 1'000'000;
    std::vector<std::map<int64_t, int64_t>> expect_retract(kConnections);
    bool corrupted_answer = false;
    auto makeScripts = [&] {
        std::vector<std::vector<ServedOp>> scripts(kConnections);
        for (unsigned c = 0; c < kConnections; ++c) {
            for (int round = 0; round < rounds; ++round) {
                int64_t k1 = ++next_key[c], k2 = ++next_key[c];
                int64_t v1 = int64_t(gen.below(1000));
                int64_t v2 = int64_t(gen.below(1000));
                model.log[k2] = v2;
                std::string want_v1 = "V = " + std::to_string(v1) + ";";
                if (o.corrupt == "answer" && !corrupted_answer) {
                    want_v1 = "V = " + std::to_string(v1 + 1) + ";";
                    corrupted_answer = true;
                }
                std::vector<size_t> order = {0, 1, 2};
                gen.shuffle(order);
                auto assertOp = [&](int64_t k, int64_t v) {
                    return ServedOp{
                        0,
                        "assertz(pb_log(" + std::to_string(k) + ", " +
                            std::to_string(v) + "))",
                        [assert_cycles](const Reply &rep) -> std::string {
                            if (rep.answers != "true;")
                                return "assert answered '" + rep.answers +
                                       "'";
                            if (rep.cycles != assert_cycles)
                                return "assert cycles " +
                                       std::to_string(rep.cycles) +
                                       " != oracle core " +
                                       std::to_string(assert_cycles);
                            return "";
                        }};
                };
                auto readOp = [&](size_t k) {
                    return ServedOp{0, reads[k].goal, checkRead(k)};
                };
                auto &s = scripts[c];
                s.push_back(assertOp(k1, v1));
                s.push_back(assertOp(k2, v2));
                s.push_back(readOp(order[0]));
                s.push_back(ServedOp{
                    0, "retract(pb_log(" + std::to_string(k1) + ", V))",
                    [want_v1, retract_cycles](const Reply &rep)
                        -> std::string {
                        if (rep.answers != want_v1)
                            return "retract answered '" + rep.answers +
                                   "', model says '" + want_v1 + "'";
                        if (rep.cycles != retract_cycles)
                            return "retract cycles " +
                                   std::to_string(rep.cycles) +
                                   " != oracle core " +
                                   std::to_string(retract_cycles);
                        return "";
                    }});
                s.push_back(readOp(order[1]));
                s.push_back(readOp(order[2]));
            }
        }
        return scripts;
    };

    Tracer off(false);
    Phase p;
    Stats before, after;
    double overhead = 0;
    if (o.trace) {
        Phase plain = runServed(conns, makeScripts(), programs, d->pid(),
                                off, r.failed);
        r.attempted += plain.ops.size();
        before = fetchStats(*conns[0]);
        p = runServed(conns, makeScripts(), programs, d->pid(), tr,
                      r.failed);
        after = fetchStats(*conns[0]);
        overhead = (p.wallS / plain.wallS - 1) * 100;
    } else {
        before = fetchStats(*conns[0]);
        p = runServed(conns, makeScripts(), programs, d->pid(), off,
                      r.failed);
        after = fetchStats(*conns[0]);
    }
    r.attempted += p.ops.size();
    double rss = vmHwmMiB(std::to_string(d->pid()));
    conns.clear();

    // Durability checks: clean drain, clean journal, recovered store
    // equal to the model.
    DrainReport dr = d->drain();
    d.reset();
    if (!dr.exitedZero || !dr.balanced)
        r.fail("daemon did not drain cleanly: " + dr.line);
    std::string dbck_out;
    int dbck = runCapture({o.binDir + "/kcm_dbck", "--verify", journal_dir},
                          dbck_out);
    if (dbck != 0 || dbck_out.find("clean") == std::string::npos)
        r.fail("kcm_dbck --verify did not report the journal clean:\n" +
               dbck_out);
    {
        kcm::db::ClauseStore recovered;
        kcm::db::JournalScan scan = kcm::db::Journal::scanFile(
            kcm::db::Journal::journalFilePath(journal_dir), &recovered);
        if (!scan.clean())
            r.fail("journal scan is not clean");
        if (o.corrupt == "model")
            model.log[1] = 1;
        if (storeContents(recovered) != modelContents(model))
            r.fail("recovered store differs from the generator's model");
    }

    if (!o.trace) {
        for (int i = 0; i < setupsAfter(o); ++i)
            setUp();
        if (d)
            stopSetupDaemon();
        addEndToEnd(r, setups, p, rss);
    } else {
        addServiceMetrics(r, p, before, after);
        // Replay the three reads and one write of each kind against
        // an in-process store seeded with the same facts.
        auto store = std::make_shared<kcm::db::ClauseStore>();
        for (const kcm::TermRef &fact :
             kcm::KcmSystem::parseFactFile(facts, "perfbench-facts"))
            store->assertClause(fact->functor(), fact, nullptr, false);
        std::vector<ReplayShape> rs;
        for (size_t k = 0; k < reads.size(); ++k)
            rs.push_back({kDurableProgram, reads[k].goal, true, decls,
                          store, read_cycles[k]});
        rs.push_back({kDurableProgram, "assertz(pb_log(3000001, 1))", true,
                      decls, store, assert_cycles});
        rs.push_back({kDurableProgram, "assertz(pb_log(3000002, 2))", true,
                      decls, store, assert_cycles});
        rs.push_back({kDurableProgram, "retract(pb_log(3000001, V))", true,
                      decls, store, retract_cycles});
        ReplayFigures f = replayLayers(tr, rs);
        if (!f.cyclesMatch)
            r.fail("replayed cycles differ from the oracle core");
        addReplayMetrics(r, f);
        double jb = (after["journal_bytes"] - before["journal_bytes"]) /
                    std::max(1.0, after["db_commits"] - before["db_commits"]);
        addDbProbe(r, tr, o.workDir + "/db-probe", facts, &jb);
        // KcmSystem::query has no store-attaching overload: replay the
        // read shapes once more with the facts preloaded into the
        // image, so that the query and the compile, construction, load
        // and run subtracted from it take the same path.
        std::vector<ReplayShape> qs;
        for (size_t k = 0; k < reads.size(); ++k)
            qs.push_back({kDurableProgram, reads[k].goal, true, "", nullptr,
                          read_cycles[k], facts});
        ReplayFigures fq = replayLayers(tr, qs);
        if (!fq.cyclesMatch)
            r.fail("replayed cycles differ from the oracle core");
        r.add("kcm.query_ms", median(fq.queryMs), "ms");
        r.add("kcm.query_self_ms", median(fq.querySelfMs), "ms");
        r.add("trace.overhead_pct", overhead, "%");
    }
    removeTree(journal_dir);
    unlink(facts_path.c_str());
    if (o.corrupt == "answer")
        fprintf(stderr, "perfbench: corrupted_ops=1\n");
    if (o.corrupt == "cycles" || o.corrupt == "model")
        fprintf(stderr, "perfbench: corrupted_ops=%d\n",
                int(kConnections) * rounds * (o.trace ? 2 : 1));
    return r;
}

/** The paper's Table 3 reference: each PLM program's Table 3 query
 *  measured by the repository's harness (the paper's protocol: a
 *  warm-up run, then a measured warm run), its simulated time at the
 *  KCM's 80 ns cycle, and the paper's KCM time for the same program. */
int
printTable3()
{
    printf("| program | cycles | simulated ms (x 80 ns) | paper KCM ms |"
           " ratio |\n|---|---|---|---|---|\n");
    for (const kcm::Table3Row &row : kcm::paperTable3()) {
        kcm::BenchRun run =
            kcm::runPlmBenchmark(kcm::plmBenchmark(row.program), true);
        if (!run.success)
            die(row.program + ": " + run.failure);
        printf("| %s | %llu | %.4f | %.3f | %.2f |\n", run.name.c_str(),
               (unsigned long long)run.cycles, run.ms, row.kcmMsPaper,
               run.ms / row.kcmMsPaper);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--table3")
        return printTable3();
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = strtod(next().c_str(), nullptr);
        else if (a == "--trace")
            o.trace = next() == "1";
        else if (a == "--bin-dir")
            o.binDir = next();
        else if (a == "--work-dir")
            o.workDir = next();
        else if (a == "--spans-out")
            o.spansOut = next();
        else if (a == "--corrupt")
            o.corrupt = next();
        else
            usage();
    }
    if (o.binDir.empty() || o.workDir.empty() || o.seconds <= 0 ||
        (o.corrupt != "" && o.corrupt != "answer" &&
         o.corrupt != "cycles" && o.corrupt != "model"))
        usage();

    struct sigaction sa{};
    sa.sa_handler = onFatalSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGHUP, &sa, nullptr);
    sigaction(SIGABRT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);

    RunResult r;
    Tracer tr(o.trace);
    try {
        if (o.workload == "warm_point")
            r = runWarmPoint(o, tr);
        else if (o.workload == "sim_heavy")
            r = runSimHeavy(o, tr);
        else if (o.workload == "durable_rw")
            r = runDurableRw(o, tr);
        else
            usage();
    } catch (const std::exception &e) {
        die(e.what());
    }
    killAllChildren();
    if (o.trace && !o.spansOut.empty() && !tr.write(o.spansOut))
        fprintf(stderr, "perfbench: cannot write %s\n",
                o.spansOut.c_str());
    printResult(r);
    return 0;
}
