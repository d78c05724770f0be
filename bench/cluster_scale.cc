/**
 * @file
 * Cluster fleet scaling study: does MoCA's contention-aware advantage
 * over the baselines survive at datacenter scale, where a front-end
 * load balancer can route contending jobs apart instead?  Sweeps fleet
 * size x dispatcher x per-SoC policy over synthesized open-loop
 * traces (cluster/workload.h), reporting fleet SLA, tail latency
 * (p50/p95/p99), STP, and load balance, and — with `--json PATH` —
 * emits the machine-readable perf baseline (BENCH_cluster.json) that
 * CI uploads.
 *
 * The default grid is {1,4,16,64} SoCs x {rr, p2c, least-loaded,
 * qos-aware} x {prema, planaria, moca} with tasks scaling with fleet
 * size (tasks-per-soc=1600, i.e. a 102k-task stream at 64 SoCs) over
 * the "wide" model mix (Table III plus the extension profiles);
 * `--big-fleet` extends the default tier to {128, 256} SoCs (a
 * 409.6k-task stream at 256) as the parallel engine's headroom target
 * — off in the CI smoke grid.
 *
 * `--cluster-jobs N` advances each fleet on N conservative-PDES
 * threads (cluster/parallel.h); every emitted number is bit-identical
 * for every N, which CI gates by byte-diffing the `timing=0` JSON of
 * `--cluster-jobs 1` vs `--cluster-jobs 4`.  (`--jobs` parallelizes
 * across grid cells as everywhere else; the two compose.)
 *
 * Telemetry (src/obs): `--trace-out FILE` exports the *first* grid
 * cell's run as a Chrome trace_event JSON (chrome://tracing /
 * Perfetto) — per-SoC job spans plus the PDES epoch timeline;
 * `--sample-every N` turns on per-SoC sim-time sampling, and
 * `--sample-out FILE` writes the first cell's SoC-0 timeseries
 * (CSV, or JSON for a .json path).  All observational: emitted
 * metrics are bit-identical with or without them.
 *
 * Usage: cluster_scale [socs=1,4,16,64] [tasks-per-soc=N] [tasks=N]
 *                      [process=poisson|mmpp|diurnal] [mix=wide|a|b|c|
 *                      name,name,...] [load=F] [seed=S] [timing=0|1]
 *                      [--big-fleet] [--cluster-jobs N]
 *                      [--policy SPEC[,SPEC...]] [--list-policies]
 *                      [--dispatcher SPEC[,SPEC...]]
 *                      [--list-dispatchers] [--jobs N] [--json PATH]
 *                      [--trace-out FILE] [--sample-every N]
 *                      [--sample-out FILE] [kernel=quantum|event] ...
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/log.h"
#include "common/table.h"
#include "common/text.h"
#include "common/walltime.h"
#include "exp/oracle.h"
#include "exp/sweep/options.h"
#include "obs/capture.h"
#include "obs/chrome_trace.h"
#include "obs/profile.h"
#include "obs/sampler.h"

using namespace moca;

namespace {

std::vector<int>
parseIntList(const std::string &what, const std::string &text)
{
    std::vector<int> values;
    for (const auto &tok : splitCommaList(text))
        values.push_back(static_cast<int>(parseIntValue(what, tok)));
    if (values.empty())
        fatal("%s needs at least one value", what.c_str());
    return values;
}

std::vector<dnn::ModelId>
parseMix(const std::string &text)
{
    if (text.empty() || text == "c")
        return dnn::workloadSetC();
    if (text == "a")
        return dnn::workloadSetA();
    if (text == "b")
        return dnn::workloadSetB();
    if (text == "wide") {
        std::vector<dnn::ModelId> mix = dnn::allModelIds();
        for (dnn::ModelId id : dnn::extensionModelIds())
            mix.push_back(id);
        return mix;
    }
    std::vector<dnn::ModelId> mix;
    for (const auto &tok : splitCommaList(text))
        mix.push_back(dnn::modelIdFromName(tok));
    if (mix.empty())
        fatal("mix= needs at least one model");
    return mix;
}

struct Cell
{
    int socs = 0;
    int tasks = 0;
    std::string dispatcher;
    std::string policy;
    std::shared_ptr<const std::vector<cluster::ClusterTask>> stream;
    cluster::ClusterResult result;
    double wall = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    sim::SocConfig base = exp::socConfigFromArgs(args);
    // Fleet scale is the point of this bench: default to the event
    // kernel (stress_scale compares the kernels; here we just want
    // the fast one) unless the user picked one explicitly.
    if (!args.has("kernel"))
        base.kernel = sim::SimKernel::Event;
    const auto policies = exp::policiesFromArgs(
        args, {"prema", "planaria", "moca"});
    const auto dispatchers = exp::dispatchersFromArgs(
        args, {"rr", "p2c", "least-loaded", "qos-aware"});
    // The {128, 256} headroom tier exists for the parallel engine on
    // real multi-core hardware; CI smoke stays on the small tiers.
    const bool big_fleet = args.getBool("big-fleet", false);
    const auto socs_list = parseIntList(
        "socs", args.getString(
                    "socs", big_fleet ? "1,4,16,64,128,256"
                                      : "1,4,16,64"));
    const int tasks_per_soc =
        static_cast<int>(args.getInt("tasks-per-soc", 1600));
    const int tasks_total = static_cast<int>(args.getInt("tasks", 0));
    const auto process = cluster::arrivalProcessFromName(
        args.getString("process", "poisson"));
    const auto mix = parseMix(args.getString("mix", "wide"));
    const double load = args.getDouble("load", 0.8);
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const exp::SweepOptions opts = exp::sweepOptionsFromArgs(args);
    const int cluster_jobs =
        static_cast<int>(args.getInt("cluster-jobs", 1));
    if (cluster_jobs < 1)
        fatal("--cluster-jobs %d: the fleet engine needs at least "
              "one worker", cluster_jobs);
    // timing=0 zeroes every wall-clock field so two runs that must be
    // value-identical (e.g. --cluster-jobs 1 vs 4 in CI) emit
    // byte-identical JSON.
    const bool timing = args.getBool("timing", true);
    const bool record_wall =
        exp::resolveJobs(opts.jobs) == 1 && timing;

    // Telemetry export targets the first grid cell only: one capture
    // bag, written by that cell's run alone (never shared).
    const std::string trace_out = args.getString("trace-out", "");
    const std::string sample_out = args.getString("sample-out", "");
    if (!sample_out.empty() && base.sampleEvery == 0) {
        base.sampleEvery = 100'000;
        inform("--sample-out without --sample-every: defaulting to "
               "sampling every %llu cycles",
               static_cast<unsigned long long>(base.sampleEvery));
    }
    obs::Capture capture;
    const bool want_capture =
        !trace_out.empty() || !sample_out.empty();

    std::printf("== cluster_scale: fleet co-simulation "
                "(process=%s load=%.2f seed=%llu jobs=%d "
                "cluster-jobs=%d) ==\n\n",
                cluster::arrivalProcessName(process), load,
                static_cast<unsigned long long>(seed),
                exp::resolveJobs(opts.jobs), cluster_jobs);
    exp::printSocBanner(base);

    // One task stream per fleet size, shared read-only by every
    // dispatcher x policy cell so all strategies see identical
    // traffic.
    std::vector<Cell> cells;
    for (std::size_t si = 0; si < socs_list.size(); ++si) {
        const int n = socs_list[si];
        if (n < 1)
            fatal("socs=%d: fleet needs at least one SoC", n);
        const int tasks =
            tasks_total > 0 ? tasks_total : tasks_per_soc * n;

        cluster::SynthConfig synth;
        synth.process = process;
        synth.numTasks = tasks;
        synth.mix = mix;
        synth.loadFactor = load;
        synth.fleetTiles = n * base.numTiles;
        synth.seed = exp::deriveCellSeed(seed, si);
        const auto stream = std::make_shared<
            const std::vector<cluster::ClusterTask>>(
            cluster::synthesizeTasks(synth, [&](dnn::ModelId id) {
                return exp::isolatedLatency(id, 1, base);
            }));

        for (const auto &dispatcher : dispatchers) {
            for (const auto &policy : policies) {
                Cell cell;
                cell.socs = n;
                cell.tasks = tasks;
                cell.dispatcher = dispatcher;
                cell.policy = policy;
                cell.stream = stream;
                cells.push_back(std::move(cell));
            }
        }
    }

    std::printf("running %zu fleet cells...\n\n", cells.size());
    const WallTimer total_timer;
    exp::SweepRunner::runIndexed(
        cells.size(), opts.jobs, [&](std::size_t i) {
            Cell &cell = cells[i];
            cluster::ClusterConfig cc =
                cluster::ClusterConfig::homogeneous(cell.socs, base);
            cc.policy = cell.policy;
            cc.dispatcher = cell.dispatcher;
            cc.dispatcherSeed = seed;
            cc.jobs = cluster_jobs;
            cc.profile = record_wall;
            if (i == 0 && want_capture)
                cc.capture = &capture;
            const WallTimer cell_timer;
            cell.result = cluster::runCluster(cc, *cell.stream);
            cell.wall = cell_timer.seconds();
            if (opts.verbose)
                std::printf("  [%zu/%zu] socs=%d %s %s done "
                            "(%.1f s)\n",
                            i + 1, cells.size(), cell.socs,
                            cell.dispatcher.c_str(),
                            cell.policy.c_str(), cell.wall);
        });
    const double total_wall = total_timer.seconds();

    Table t({"socs", "tasks", "dispatcher", "policy", "SLA",
             "SLA-hi", "p50n", "p99n", "STP", "goodput/s",
             "balance", "steps", "epochs", "stalls", "wall (s)"});
    for (const auto &cell : cells) {
        const auto &r = cell.result;
        t.row()
            .cell(static_cast<long long>(cell.socs))
            .cell(static_cast<long long>(cell.tasks))
            .cell(cell.dispatcher)
            .cell(cell.policy)
            .cell(r.slaRate, 3)
            .cell(r.slaRateHigh, 3)
            .cell(r.normLatency.p50, 2)
            .cell(r.normLatency.p99, 2)
            .cell(r.stp, 1)
            .cell(r.goodput, 0)
            .cell(r.balanceCv, 3)
            .cell(static_cast<long long>(r.simSteps))
            .cell(static_cast<long long>(r.epochs))
            .cell(static_cast<long long>(r.horizonStalls))
            .cell(record_wall ? cell.wall : 0.0, 2);
    }
    t.print("cluster fleet sweep (p50n/p99n: end-to-end latency "
            "normalized to isolated full-SoC latency; epochs/stalls: "
            "PDES barrier epochs and skipped no-activity windows)");
    std::printf("\ntotal wall: %.2f s\n", total_wall);

    if (record_wall) {
        // Where the fleet runs actually spent their wall clock,
        // summed over all cells (obs/profile.h).
        obs::PhaseProfiler phases;
        for (const auto &cell : cells) {
            phases.add("shard-advance",
                       cell.result.phases.shardAdvanceSec);
            phases.add("barrier-wait",
                       cell.result.phases.barrierWaitSec);
            phases.add("dispatch", cell.result.phases.dispatchSec);
        }
        std::fputs(
            phases.render("PDES phase profile (all cells)").c_str(),
            stdout);
    }

    if (!trace_out.empty()) {
        obs::ChromeTraceWriter writer;
        writer.addCapture(capture);
        writer.write(trace_out);
    }
    if (!sample_out.empty()) {
        if (capture.socSeries.empty())
            warn("--sample-out %s: the run produced no sampled "
                 "series", sample_out.c_str());
        else
            obs::writeTimeseries(capture.socSeries.front(),
                                 sample_out);
    }

    const std::string json = args.getString("json", "");
    if (!json.empty()) {
        std::FILE *f = std::fopen(json.c_str(), "w");
        if (f == nullptr)
            fatal("cannot write %s", json.c_str());
        std::fprintf(f, "{\n  \"bench\": \"cluster_scale\",\n");
        std::fprintf(f, "  \"process\": \"%s\",\n",
                     cluster::arrivalProcessName(process));
        std::fprintf(f, "  \"load_factor\": %.3f,\n", load);
        std::fprintf(f, "  \"seed\": %llu,\n",
                     static_cast<unsigned long long>(seed));
        std::fprintf(f, "  \"kernel\": \"%s\",\n",
                     sim::simKernelName(base.kernel));
        std::fprintf(f, "  \"jobs\": %d,\n",
                     exp::resolveJobs(opts.jobs));
        std::fprintf(f, "  \"cells\": [\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &cell = cells[i];
            const auto &r = cell.result;
            std::fprintf(
                f,
                "    {\"socs\": %d, \"tasks\": %d, "
                "\"dispatcher\": \"%s\", \"policy\": \"%s\",\n"
                "     \"sla_rate\": %.6f, \"sla_rate_high\": %.6f, "
                "\"stp\": %.6f,\n"
                "     \"goodput\": %.4f, \"shed_rate\": %.6f, "
                "\"retry_rate\": %.6f, \"timeout_rate\": %.6f,\n"
                "     \"latency_p50\": %.1f, \"latency_p95\": %.1f, "
                "\"latency_p99\": %.1f,\n"
                "     \"norm_p50\": %.4f, \"norm_p95\": %.4f, "
                "\"norm_p99\": %.4f,\n"
                "     \"makespan\": %llu, \"balance_cv\": %.4f, "
                "\"sim_steps\": %llu,\n"
                "     \"epochs\": %llu, \"horizon_stalls\": %llu, "
                "\"mean_socs_stepped\": %.4f, \"wall_s\": %.6f}%s\n",
                cell.socs, cell.tasks, cell.dispatcher.c_str(),
                cell.policy.c_str(), r.slaRate, r.slaRateHigh,
                r.stp, r.goodput, r.shedRate, r.retryRate,
                r.timeoutRate, r.latency.p50, r.latency.p95,
                r.latency.p99,
                r.normLatency.p50, r.normLatency.p95,
                r.normLatency.p99,
                static_cast<unsigned long long>(r.makespan),
                r.balanceCv,
                static_cast<unsigned long long>(r.simSteps),
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.horizonStalls),
                r.meanSocsStepped,
                record_wall ? cell.wall : 0.0,
                i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"total\": {\"wall_s\": %.6f}\n}\n",
                     timing ? total_wall : 0.0);
        std::fclose(f);
        std::printf("wrote %s\n", json.c_str());
    }
    return 0;
}
