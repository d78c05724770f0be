/**
 * @file
 * perfbench: host-time benchmark of the MoCA simulator, driven from
 * outside through the library's public entry points.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--commit ID]
 *   perfbench --selftest
 *   perfbench --list-metrics
 *
 * A run sets the workload up several times from a cold oracle cache
 * (setup_s is the median), then measures passes for S seconds:
 *
 *  --trace 0  untraced passes; prints the end-to-end metrics.
 *  --trace 1  untraced and traced passes alternate; prints the
 *             per-layer metrics of the traced passes (per pass) and
 *             the traced-vs-untraced overhead.
 *
 * Every pass hashes its simulated outputs.  A pass whose digest
 * differs from the first untraced pass, or whose output check fails,
 * counts its operations as failed; so does a traced pass when the
 * decorator counts disagree with the program's own counters.
 *
 * The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * is {"record": ...} with the provenance, the digest and the `out.*`
 * simulated results.  --selftest replays a tiny instance of each
 * workload decorated and undecorated and checks that the digests and
 * the decorator cross-checks agree.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "tracing.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Setups before the timed phase (see runBenchmark for more). */
constexpr int kSetups = 5;
constexpr std::size_t kMinPasses = 3;

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric
{
    const char *name;
    const char *unit;
};

const std::vector<Metric> kEndToEnd = {
    {"tasks_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<Metric> kPerLayer = {
    {"sim.steps", "count"},
    {"sim.steps_per_task", "count"},
    {"sim.cycles_per_step", "cycles"},
    {"sim.self_s", "s"},
    {"sim.step_ns", "ns"},
    {"sim.idle_step_share", "ratio"},
    {"mem.calls", "count"},
    {"mem.self_s", "s"},
    {"mem.call_ns", "ns"},
    {"mem.requesters_per_call", "count"},
    {"moca.calls", "count"},
    {"moca.calls.arrival", "count"},
    {"moca.calls.completion", "count"},
    {"moca.calls.tick", "count"},
    {"moca.calls.block", "count"},
    {"moca.calls.complete", "count"},
    {"moca.self_s", "s"},
    {"moca.call_ns", "ns"},
    {"moca.same_epoch_call_share", "ratio"},
    {"baselines.calls", "count"},
    {"baselines.self_s", "s"},
    {"baselines.call_ns", "ns"},
    {"workload.synth_s", "s"},
    {"exp.oracle_s", "s"},
    {"exp.cell_s.p50", "s"},
    {"exp.cell_s.p90", "s"},
    {"cluster.epochs", "count"},
    {"cluster.horizon_stalls", "count"},
    {"cluster.socs_per_epoch", "count"},
    {"cluster.shard_advance_s", "s"},
    {"cluster.barrier_wait_s", "s"},
    {"cluster.barrier_share", "ratio"},
    {"cluster.dispatch_s", "s"},
    {"cluster.place_calls", "count"},
    {"cluster.place_ns", "ns"},
    {"serve.requests", "count"},
    {"serve.attempts", "count"},
    {"serve.responses", "count"},
    {"serve.retries", "count"},
    {"serve.timeouts", "count"},
    {"serve.shed", "count"},
    {"serve.orphans", "count"},
    {"serve.soc_failures", "count"},
    {"serve.useful_share", "ratio"},
    {"serve.admit_calls", "count"},
    {"serve.admit_ns", "ns"},
    {"serve.coordinator_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

double
percentile(const std::vector<double> &values, double p)
{
    moca::SampleSet s;
    for (double v : values)
        s.add(v);
    return s.empty() ? 0.0 : s.percentile(p);
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

/** a / b, or 0 when b is 0 (a layer that did not run). */
double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** JSON string literal (the values printed here need no escapes
 *  beyond quotes and backslashes). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/**
 * Peak resident memory of this process image.  VmHWM restarts at
 * exec, unlike getrusage's ru_maxrss, which keeps the high-water mark
 * of whatever process forked this one (the launcher).
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    long long kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kib) / 1024.0;
}

/**
 * The decorator counts must match the program's own counters: every
 * schedule() call the Socs made reached a decorator, and one arbitrate
 * call ran per kernel step.  Returns "" when they agree.
 */
std::string
crossCheck(const TraceTotals &t, std::uint64_t program_steps)
{
    std::string err;
    const std::uint64_t schedule =
        t.moca.scheduleCalls() + t.baselines.scheduleCalls();
    if (schedule != t.schedInvocations)
        err += "schedule calls " + std::to_string(schedule) +
            " != schedInvocations " + std::to_string(t.schedInvocations) +
            "; ";
    if (t.memCalls != program_steps)
        err += "arbitrate calls " + std::to_string(t.memCalls) +
            " != simSteps " + std::to_string(program_steps) + "; ";
    return err;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--commit ID]\n"
                 "       perfbench --selftest | --list-metrics\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed needs a whole number");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(a.seconds > 0.0))
                usage("--seconds needs a positive number");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            a.trace = value == "1" ? 1 : 0;
        } else if (key == "--commit") {
            a.commit = value;
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0)
        usage("--workload, --seconds and --trace are required");
    return a;
}

/** Operations a pass lost: all of them when its digest differs from
 *  the reference, else those its own output check rejected. */
std::uint64_t
passFailures(const PassResult &p, std::uint64_t reference,
             std::uint64_t operations)
{
    return p.digest != reference ? operations : p.failed;
}

/** Host times of the repeated setups of one run. */
struct Setups
{
    std::vector<double> total, oracle, synth;
};

/** The passes of one run, untraced and traced. */
struct Passes
{
    std::vector<PassResult> plain, traced;
};

/** The per-layer metrics, in kPerLayer order, per traced pass. */
std::vector<double>
perLayer(const Workload &wl, const Setups &setups, const Passes &passes,
         const TraceTotals &t)
{
    const double n = static_cast<double>(passes.traced.size());
    std::vector<double> cells, plain_s, traced_s;
    std::map<std::string, double> v; // Per-pass means, by name.
    double soc_s = 0.0;
    for (const PassResult &p : passes.traced) {
        cells.insert(cells.end(), p.cellSeconds.begin(),
                     p.cellSeconds.end());
        traced_s.push_back(p.seconds);
        soc_s += p.socSeconds;
        for (const auto &[name, value] : p.layer)
            v[name] += value / n;
    }
    for (const PassResult &p : passes.plain)
        plain_s.push_back(p.seconds);

    const auto count = [](std::uint64_t c) {
        return static_cast<double>(c);
    };
    const double steps = count(t.memCalls);
    const double sim_self =
        soc_s - t.moca.seconds - t.baselines.seconds - t.memSeconds;
    const double moca_calls = count(t.moca.calls());
    const double base_calls = count(t.baselines.calls());
    const double ops = count(wl.operations());

    v["sim.steps"] = steps / n;
    v["sim.steps_per_task"] = steps / n / ops;
    v["sim.cycles_per_step"] = ratio(count(t.memCycles), steps);
    v["sim.self_s"] = sim_self / n;
    v["sim.step_ns"] = ratio(sim_self * 1e9, steps);
    v["sim.idle_step_share"] = ratio(count(t.memIdleCalls), steps);
    v["mem.calls"] = steps / n;
    v["mem.self_s"] = t.memSeconds / n;
    v["mem.call_ns"] = ratio(t.memSeconds * 1e9, steps);
    v["mem.requesters_per_call"] = ratio(count(t.memRequesters), steps);
    v["moca.calls"] = moca_calls / n;
    v["moca.calls.arrival"] = count(t.moca.arrival) / n;
    v["moca.calls.completion"] = count(t.moca.completion) / n;
    v["moca.calls.tick"] = count(t.moca.tick) / n;
    v["moca.calls.block"] = count(t.moca.block) / n;
    v["moca.calls.complete"] = count(t.moca.complete) / n;
    v["moca.self_s"] = t.moca.seconds / n;
    v["moca.call_ns"] = ratio(t.moca.seconds * 1e9, moca_calls);
    v["moca.same_epoch_call_share"] = ratio(
        count(t.mocaSameEpochCalls), count(t.moca.scheduleCalls()));
    v["baselines.calls"] = base_calls / n;
    v["baselines.self_s"] = t.baselines.seconds / n;
    v["baselines.call_ns"] = ratio(t.baselines.seconds * 1e9, base_calls);
    v["workload.synth_s"] = median(setups.synth);
    v["exp.oracle_s"] = median(setups.oracle);
    v["exp.cell_s.p50"] = percentile(cells, 50.0);
    v["exp.cell_s.p90"] = percentile(cells, 90.0);
    v["cluster.place_calls"] = count(t.placeCalls) / n;
    v["cluster.place_ns"] = ratio(t.placeSeconds * 1e9, count(t.placeCalls));
    v["serve.admit_calls"] = count(t.admitCalls) / n;
    v["serve.admit_ns"] = ratio(t.admitSeconds * 1e9, count(t.admitCalls));
    v["bench.trace_overhead"] =
        ratio(median(traced_s), median(plain_s)) - 1.0;

    // Layers a workload does not run (cluster.* on paper-grid, ...)
    // report 0.
    std::vector<double> out;
    for (const Metric &m : kPerLayer)
        out.push_back(v[m.name]);
    return out;
}

/** JSON object of string or number members, in order. */
template <typename Pairs, typename Format>
std::string
object(const Pairs &pairs, Format format)
{
    std::string out = "{";
    for (const auto &[key, value] : pairs)
        out += (out.size() > 1 ? ", " : "") + quote(key) + ": " +
            format(value);
    return out + "}";
}

/** The provenance record printed before the result line. */
std::string
record(const Args &a, const Workload &wl, const Passes &passes,
       const std::string &cross)
{
    std::string seconds = "[";
    for (const PassResult &p : passes.plain)
        seconds += (seconds.size() > 1 ? ", " : "") + number(p.seconds);
    seconds += "]";
    const std::vector<std::pair<std::string, std::string>> members = {
        {"workload", quote(wl.name())},
        {"seed", std::to_string(a.seed)},
        {"trace", std::to_string(a.trace)},
        {"params", object(wl.params(), quote)},
        {"commit", quote(a.commit)},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"soc_fingerprint", quote(hex(socFingerprint(wl.soc())))},
        {"digest", quote(hex(passes.plain.front().digest))},
        {"operations_per_pass", std::to_string(wl.operations())},
        {"passes", std::to_string(passes.plain.size())},
        {"traced_passes", std::to_string(passes.traced.size())},
        {"pass_seconds", seconds},
        {"cross_check", quote(a.trace == 0 ? "not run"
                              : cross.empty() ? "ok" : cross)},
        {"out", object(passes.plain.front().out, number)},
    };
    return "{\"record\": " +
        object(members, [](const std::string &v) { return v; }) + "}";
}

int
runBenchmark(const Args &a)
{
    const bool traced = a.trace == 1;
    if (traced)
        registerTimingDecorators();
    const auto wl = makeWorkload(a.workload, Scale::Full);
    if (!wl)
        usage(("unknown workload " + a.workload).c_str());

    Setups setups;
    const auto set_up = [&]() {
        const SetupTimes t = wl->setup(a.seed);
        setups.total.push_back(t.total);
        setups.oracle.push_back(t.oracle);
        setups.synth.push_back(t.synth);
    };
    for (int i = 0; i < kSetups; ++i)
        set_up();
    if (traced) {
        wl->warmTracedOracle();
        resetTraceTotals();
    }

    Passes passes;
    const auto start = Clock::now();
    while (passes.plain.size() < kMinPasses || since(start) < a.seconds) {
        // Setup takes milliseconds, so host noise swamps a burst of
        // setups; an untraced run sets up again before every pass so
        // setup_s samples the whole run.  (A traced run cannot: setup
        // clears the oracle the traced passes rely on.)
        if (!traced)
            set_up();
        passes.plain.push_back(wl->run(false));
        if (traced)
            passes.traced.push_back(wl->run(true));
    }

    const std::uint64_t ops = wl->operations();
    const std::uint64_t reference = passes.plain.front().digest;
    std::uint64_t attempted = 0, failed = 0, program_steps = 0;
    for (const auto *set : {&passes.plain, &passes.traced})
        for (const PassResult &p : *set) {
            attempted += ops;
            failed += passFailures(p, reference, ops);
        }
    for (const PassResult &p : passes.traced)
        program_steps += p.simSteps;
    const TraceTotals totals = traceTotals();
    const std::string cross = traced ? crossCheck(totals, program_steps) : "";
    if (!cross.empty()) {
        std::fprintf(stderr, "perfbench: cross-check failed: %s\n",
                     cross.c_str());
        failed = attempted;
    }

    std::vector<double> values;
    if (traced) {
        values = perLayer(*wl, setups, passes, totals);
    } else {
        // Total operations over total pass time.  On a shared 4-vCPU
        // KVM guest, other tenants slowed passes by up to 1.7x for
        // tens of seconds at a time.  Over ten-run batches the median
        // pass, fastest pass and fastest cell each beat the total on
        // one batch and lost badly on another; the total was the most
        // consistent (IQR/median 0.09 to 0.18).
        double seconds = 0.0;
        for (const PassResult &p : passes.plain)
            seconds += p.seconds;
        const double done =
            static_cast<double>(ops) * static_cast<double>(passes.plain.size());
        values = {done / seconds, median(setups.total), peakRssMb()};
    }

    std::printf("%s\n", record(a, *wl, passes, cross).c_str());
    const std::vector<Metric> &table = traced ? kPerLayer : kEndToEnd;
    std::string metrics = "{";
    for (std::size_t i = 0; i < table.size(); ++i)
        metrics += std::string(i > 0 ? ", " : "") + quote(table[i].name) +
            ": {\"value\": " + number(values[i]) +
            ", \"unit\": " + quote(table[i].unit) + "}";
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}

int
selftest()
{
    registerTimingDecorators();
    int bad = 0;
    for (const std::string &name : workloadNames()) {
        const auto wl = makeWorkload(name, Scale::Tiny);
        wl->setup(1);
        const PassResult a = wl->run(false);
        const PassResult b = wl->run(false);
        wl->warmTracedOracle();
        resetTraceTotals();
        const PassResult c = wl->run(true);
        std::string err = crossCheck(traceTotals(), c.simSteps);
        if (a.failed + b.failed + c.failed != 0)
            err += "output check rejected operations; ";
        if (a.digest != b.digest)
            err += "repeat digest differs; ";
        if (a.digest != c.digest)
            err += "traced digest differs; ";
        std::printf("%-13s %s %s\n", name.c_str(), hex(a.digest).c_str(),
                    err.empty() ? "ok" : err.c_str());
        bad += err.empty() ? 0 : 1;
    }
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--selftest")
        return selftest();
    if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
        for (const Metric &m : kEndToEnd)
            std::printf("end_to_end %s %s\n", m.name, m.unit);
        for (const Metric &m : kPerLayer)
            std::printf("per_layer %s %s\n", m.name, m.unit);
        return 0;
    }
    return runBenchmark(parseArgs(argc, argv));
}
