/**
 * @file
 * Closed-loop serving study: does MoCA's contention-aware SLA lead
 * survive when the control loop fights back?  Every other results
 * family replays open-loop arrival traces; here K closed-loop clients
 * (serve/serve.h) issue requests reactively from completions through
 * admission control, with optional SoC failure injection and
 * autoscaling, so retry storms and shed-vs-queue tradeoffs feed back
 * into the offered load.
 *
 * Three sweep families share one grid:
 *   - clients:   client-count axis (offered-load ramp), always-admit,
 *                no failures;
 *   - admission: admission-policy axis (always / queue-cap /
 *                SLO-budget token bucket) at a fixed population;
 *   - failures:  fleet failure-rate axis (per Gcycle) at a fixed
 *                population, in-flight policy configurable.
 * Each scenario runs every selected per-SoC policy x dispatcher;
 * the summary table reports the reference policy's (moca) SLA and
 * goodput margins over the baselines per scenario.
 *
 * `--cluster-jobs N` advances the fleet on N conservative-PDES
 * threads; every emitted number is bit-identical for every N — CI
 * gates this by byte-diffing the `timing=0` JSON of `--cluster-jobs
 * 1` vs `4`, failure injection included.
 *
 * Telemetry (src/obs): `--trace-out FILE` exports one cell as a
 * Chrome trace_event JSON — SoC job spans, PDES epoch spans, and
 * front-end shed/defer/fail/recover/autoscale instants on one
 * timeline.  The exported cell is the first one with a nonzero fail
 * rate (so the fail/recover story is visible), falling back to the
 * first cell.  `--sample-every N` enables per-SoC sim-time sampling
 * (the traced cell's sampled series ride along into the trace as
 * counter tracks).  Observational only: emitted metrics are
 * bit-identical with or without telemetry.
 *
 * Usage: serve_loop [socs=4] [clients=4,16,64] [base-clients=16]
 *                   [rpc=24] [outstanding=1] [think=4.0]
 *                   [timeout-scale=6.0] [retries=3]
 *                   [fail-rates=0,100,400] [downtime=2e6]
 *                   [inflight=requeue|drop] [autoscale=0|1]
 *                   [control-quantum=50000] [seed=S] [timing=0|1]
 *                   [--cluster-jobs N] [--policy SPEC[,...]]
 *                   [--dispatcher SPEC[,...]] [--admission SPEC[,...]]
 *                   [--list-admission] [--jobs N] [--json PATH]
 *                   [--trace-out FILE] [--sample-every N]
 *                   [kernel=quantum|event] ...
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "common/text.h"
#include "common/walltime.h"
#include "exp/sweep/options.h"
#include "obs/capture.h"
#include "obs/chrome_trace.h"
#include "obs/profile.h"
#include "serve/serve.h"

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

std::vector<double>
parseDoubleList(const std::string &what, const std::string &text)
{
    std::vector<double> values;
    for (const auto &tok : splitCommaList(text))
        values.push_back(parseDoubleValue(what, tok));
    if (values.empty())
        fatal("%s needs at least one value", what.c_str());
    return values;
}

struct Cell
{
    std::string family;   ///< "clients" / "admission" / "failures".
    std::string scenario; ///< Axis value label.
    std::string dispatcher;
    std::string policy;
    serve::ServeConfig cfg;
    serve::ServeResult result;
    double wall = 0.0;
};

/** One scenario axis point before the policy x dispatcher expansion. */
struct Scenario
{
    std::string family;
    std::string label;
    int clients = 0;
    std::string admission;
    double failRate = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgMap args(argc, argv);
    sim::SocConfig base = exp::socConfigFromArgs(args);
    // The closed loop re-plans at every harvest boundary; default to
    // the event kernel like the other fleet-scale benches.
    if (!args.has("kernel"))
        base.kernel = sim::SimKernel::Event;
    const auto policies = exp::policiesFromArgs(
        args, {"prema", "planaria", "moca"});
    const auto dispatchers =
        exp::dispatchersFromArgs(args, {"rr", "qos-aware"});
    const auto admissions = exp::admissionFromArgs(
        args,
        {"always", "queue-cap:depth=4", "slo-budget:rate=4,burst=8"});

    const int socs = static_cast<int>(args.getInt("socs", 4));
    const auto clients_list = parseIntList(
        "clients", args.getString("clients", "4,16,64"));
    const int base_clients =
        static_cast<int>(args.getInt("base-clients", 16));
    const int rpc = static_cast<int>(args.getInt("rpc", 24));
    const int outstanding =
        static_cast<int>(args.getInt("outstanding", 1));
    const double think = args.getDouble("think", 4.0);
    const double timeout_scale =
        args.getDouble("timeout-scale", 6.0);
    const int retries = static_cast<int>(args.getInt("retries", 3));
    const auto fail_rates = parseDoubleList(
        "fail-rates", args.getString("fail-rates", "0,100,400"));
    const double downtime = args.getDouble("downtime", 2e6);
    const auto inflight = serve::inflightPolicyFromName(
        args.getString("inflight", "requeue"));
    const bool autoscale = args.getBool("autoscale", false);
    const auto quantum = static_cast<Cycles>(
        args.getInt("control-quantum", 50'000));
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const exp::SweepOptions opts = exp::sweepOptionsFromArgs(args);
    const int cluster_jobs =
        static_cast<int>(args.getInt("cluster-jobs", 1));
    if (cluster_jobs < 1)
        fatal("--cluster-jobs %d: the fleet engine needs at least "
              "one worker", cluster_jobs);
    // timing=0 zeroes every wall-clock field so two runs that must
    // be value-identical (--cluster-jobs 1 vs 4 in CI) emit
    // byte-identical JSON.
    const bool timing = args.getBool("timing", true);
    const bool record_wall =
        exp::resolveJobs(opts.jobs) == 1 && timing;

    std::printf("== serve_loop: closed-loop serving "
                "(socs=%d rpc=%d outstanding=%d timeout-scale=%.1f "
                "inflight=%s seed=%llu jobs=%d cluster-jobs=%d) "
                "==\n\n",
                socs, rpc, outstanding, timeout_scale,
                serve::inflightPolicyName(inflight),
                static_cast<unsigned long long>(seed),
                exp::resolveJobs(opts.jobs), cluster_jobs);
    exp::printSocBanner(base);

    std::vector<Scenario> scenarios;
    for (int c : clients_list) {
        Scenario s;
        s.family = "clients";
        s.label = strprintf("clients=%d", c);
        s.clients = c;
        s.admission = admissions.front();
        scenarios.push_back(std::move(s));
    }
    for (const auto &adm : admissions) {
        Scenario s;
        s.family = "admission";
        s.label = adm;
        s.clients = base_clients;
        s.admission = adm;
        scenarios.push_back(std::move(s));
    }
    for (double rate : fail_rates) {
        Scenario s;
        s.family = "failures";
        s.label = strprintf("fail-rate=%g", rate);
        s.clients = base_clients;
        s.admission = admissions.front();
        s.failRate = rate;
        scenarios.push_back(std::move(s));
    }

    // Scenario-major, then dispatcher, then policy — the margin
    // tables below index into this layout.
    std::vector<Cell> cells;
    for (const auto &s : scenarios) {
        for (const auto &dispatcher : dispatchers) {
            for (const auto &policy : policies) {
                Cell cell;
                cell.family = s.family;
                cell.scenario = s.label;
                cell.dispatcher = dispatcher;
                cell.policy = policy;
                serve::ServeConfig sc;
                sc.soc = base;
                sc.numSocs = socs;
                sc.policy = policy;
                sc.dispatcher = dispatcher;
                sc.admission = s.admission;
                sc.dispatcherSeed = seed;
                sc.jobs = cluster_jobs;
                sc.controlQuantum = quantum;
                sc.clients.numClients = s.clients;
                sc.clients.maxOutstanding = outstanding;
                sc.clients.requestsPerClient = rpc;
                sc.clients.thinkFactor = think;
                sc.clients.timeoutScale = timeout_scale;
                sc.clients.maxRetries = retries;
                sc.clients.seed = seed;
                sc.failures.rate = s.failRate;
                sc.failures.meanDowntime = downtime;
                sc.failures.inflight = inflight;
                sc.failures.seed = seed + 6;
                sc.autoscaler.enabled = autoscale;
                sc.profile = record_wall;
                cell.cfg = sc;
                cells.push_back(std::move(cell));
            }
        }
    }

    // Telemetry export: one capture bag on the first cell whose
    // scenario injects failures (the interesting timeline), else
    // cell 0; written by that cell's coordinator alone.
    const std::string trace_out = args.getString("trace-out", "");
    obs::Capture capture;
    std::size_t capture_idx = cells.size();
    if (!trace_out.empty() && !cells.empty()) {
        capture_idx = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].cfg.failures.rate > 0.0) {
                capture_idx = i;
                break;
            }
        }
        cells[capture_idx].cfg.capture = &capture;
    }

    std::printf("running %zu serving cells...\n\n", cells.size());
    const WallTimer total_timer;
    exp::SweepRunner::runIndexed(
        cells.size(), opts.jobs, [&](std::size_t i) {
            Cell &cell = cells[i];
            const WallTimer cell_timer;
            cell.result = serve::runServe(cell.cfg);
            cell.wall = cell_timer.seconds();
            if (opts.verbose)
                std::printf("  [%zu/%zu] %s %s %s %s done "
                            "(%.1f s)\n",
                            i + 1, cells.size(),
                            cell.family.c_str(),
                            cell.scenario.c_str(),
                            cell.dispatcher.c_str(),
                            cell.policy.c_str(), cell.wall);
        });
    const double total_wall = total_timer.seconds();

    Table t({"family", "scenario", "dispatcher", "policy", "SLA",
             "goodput/s", "succ", "shed", "retry", "tmo", "p99n",
             "clat-p99 (Mcyc)", "upSoCs", "fails", "wall (s)"});
    for (const auto &cell : cells) {
        const auto &r = cell.result;
        t.row()
            .cell(cell.family)
            .cell(cell.scenario)
            .cell(cell.dispatcher)
            .cell(cell.policy)
            .cell(r.cluster.slaRate, 3)
            .cell(r.cluster.goodput, 0)
            .cell(r.successRate, 3)
            .cell(r.cluster.shedRate, 3)
            .cell(r.cluster.retryRate, 3)
            .cell(r.cluster.timeoutRate, 3)
            .cell(r.cluster.normLatency.p99, 2)
            .cell(r.clientLatency.p99 / 1e6, 2)
            .cell(r.meanUpSocs, 2)
            .cell(static_cast<long long>(r.failEvents))
            .cell(record_wall ? cell.wall : 0.0, 2);
    }
    t.print("closed-loop serving sweep (SLA/goodput count "
            "client-observed responses only; shed/retry/tmo are the "
            "control-loop outcome rates; clat-p99: client-observed "
            "latency incl. backoff)");

    // ---- reference-vs-baseline margins per scenario -----------------
    const std::string ref =
        [&] {
            for (const auto &p : policies)
                if (p == "moca")
                    return p;
            return policies.front();
        }();
    const std::size_t P = policies.size();
    const std::size_t D = dispatchers.size();
    auto cellAt = [&](std::size_t si, std::size_t di,
                      std::size_t pi) -> const Cell & {
        return cells[(si * D + di) * P + pi];
    };
    struct Margin
    {
        const Cell *refCell = nullptr;
        std::vector<const Cell *> others;
    };
    std::vector<Margin> margins;
    if (P > 1) {
        Table m({"family", "scenario", "dispatcher", ref + " SLA",
                 ref + " goodput/s", "best-other SLA",
                 "SLA margin", "goodput margin"});
        for (std::size_t si = 0; si < scenarios.size(); ++si) {
            for (std::size_t di = 0; di < D; ++di) {
                Margin mg;
                for (std::size_t pi = 0; pi < P; ++pi) {
                    const Cell &c = cellAt(si, di, pi);
                    if (c.policy == ref)
                        mg.refCell = &c;
                    else
                        mg.others.push_back(&c);
                }
                if (mg.refCell == nullptr)
                    continue;
                double best_sla = 0.0, best_goodput = 0.0;
                for (const Cell *o : mg.others) {
                    if (o->result.cluster.slaRate > best_sla)
                        best_sla = o->result.cluster.slaRate;
                    if (o->result.cluster.goodput > best_goodput)
                        best_goodput = o->result.cluster.goodput;
                }
                const auto &rr = mg.refCell->result.cluster;
                m.row()
                    .cell(mg.refCell->family)
                    .cell(mg.refCell->scenario)
                    .cell(mg.refCell->dispatcher)
                    .cell(rr.slaRate, 3)
                    .cell(rr.goodput, 0)
                    .cell(best_sla, 3)
                    .cell(rr.slaRate / std::max(best_sla, 1e-3), 2)
                    .cell(rr.goodput / std::max(best_goodput, 1e-3),
                          2);
                margins.push_back(std::move(mg));
            }
        }
        m.print(strprintf("%s vs best baseline per scenario (margin "
                          "= %s / best other)",
                          ref.c_str(), ref.c_str()));
    }
    std::printf("\ntotal wall: %.2f s\n", total_wall);

    if (record_wall) {
        obs::PhaseProfiler phases;
        for (const auto &cell : cells) {
            const auto &p = cell.result.cluster.phases;
            phases.add("shard-advance", p.shardAdvanceSec);
            phases.add("barrier-wait", p.barrierWaitSec);
            phases.add("coordinator", p.dispatchSec);
        }
        std::fputs(
            phases.render("serving phase profile (all cells)")
                .c_str(),
            stdout);
    }

    if (capture_idx < cells.size()) {
        const Cell &traced = cells[capture_idx];
        inform("trace-out: exporting cell %s %s %s %s",
               traced.family.c_str(), traced.scenario.c_str(),
               traced.dispatcher.c_str(), traced.policy.c_str());
        obs::ChromeTraceWriter writer;
        writer.addCapture(capture);
        writer.write(trace_out);
    }

    const std::string json = args.getString("json", "");
    if (!json.empty()) {
        std::FILE *f = std::fopen(json.c_str(), "w");
        if (f == nullptr)
            fatal("cannot write %s", json.c_str());
        std::fprintf(f, "{\n  \"bench\": \"serve_loop\",\n");
        std::fprintf(f,
                     "  \"socs\": %d, \"rpc\": %d, "
                     "\"outstanding\": %d,\n",
                     socs, rpc, outstanding);
        std::fprintf(f,
                     "  \"think_factor\": %.3f, "
                     "\"timeout_scale\": %.3f, \"retries\": %d,\n",
                     think, timeout_scale, retries);
        std::fprintf(f,
                     "  \"downtime\": %.1f, \"inflight\": \"%s\", "
                     "\"autoscale\": %d,\n",
                     downtime, serve::inflightPolicyName(inflight),
                     autoscale ? 1 : 0);
        std::fprintf(f,
                     "  \"control_quantum\": %llu, \"seed\": %llu, "
                     "\"kernel\": \"%s\",\n",
                     static_cast<unsigned long long>(quantum),
                     static_cast<unsigned long long>(seed),
                     sim::simKernelName(base.kernel));
        std::fprintf(f, "  \"jobs\": %d,\n",
                     exp::resolveJobs(opts.jobs));
        std::fprintf(f, "  \"cells\": [\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &cell = cells[i];
            const auto &r = cell.result;
            const auto &c = r.cluster;
            std::fprintf(
                f,
                "    {\"family\": \"%s\", \"scenario\": \"%s\", "
                "\"dispatcher\": \"%s\", \"policy\": \"%s\",\n"
                "     \"requests\": %llu, \"attempts\": %llu, "
                "\"responses\": %llu, \"give_ups\": %llu,\n"
                "     \"timeouts\": %llu, \"retries\": %llu, "
                "\"shed\": %llu, \"deferrals\": %llu, "
                "\"orphans\": %llu,\n"
                "     \"requeued\": %llu, \"lost_jobs\": %llu, "
                "\"fail_events\": %llu, \"recover_events\": %llu,\n"
                "     \"scale_ups\": %llu, \"scale_downs\": %llu, "
                "\"success_rate\": %.6f,\n"
                "     \"sla_rate\": %.6f, \"sla_rate_high\": %.6f, "
                "\"goodput\": %.4f,\n"
                "     \"shed_rate\": %.6f, \"retry_rate\": %.6f, "
                "\"timeout_rate\": %.6f,\n"
                "     \"norm_p50\": %.4f, \"norm_p99\": %.4f, "
                "\"client_p50\": %.1f, \"client_p99\": %.1f,\n"
                "     \"stp\": %.6f, \"makespan\": %llu, "
                "\"balance_cv\": %.4f, \"epochs\": %llu,\n"
                "     \"mean_up_socs\": %.4f, \"end_cycle\": %llu, "
                "\"wall_s\": %.6f}%s\n",
                cell.family.c_str(), cell.scenario.c_str(),
                cell.dispatcher.c_str(), cell.policy.c_str(),
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.attempts),
                static_cast<unsigned long long>(r.responses),
                static_cast<unsigned long long>(r.giveUps),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.deferrals),
                static_cast<unsigned long long>(r.orphans),
                static_cast<unsigned long long>(r.requeued),
                static_cast<unsigned long long>(r.lostJobs),
                static_cast<unsigned long long>(r.failEvents),
                static_cast<unsigned long long>(r.recoverEvents),
                static_cast<unsigned long long>(r.scaleUps),
                static_cast<unsigned long long>(r.scaleDowns),
                r.successRate, c.slaRate, c.slaRateHigh, c.goodput,
                c.shedRate, c.retryRate, c.timeoutRate,
                c.normLatency.p50, c.normLatency.p99,
                r.clientLatency.p50, r.clientLatency.p99, c.stp,
                static_cast<unsigned long long>(c.makespan),
                c.balanceCv,
                static_cast<unsigned long long>(c.epochs),
                r.meanUpSocs,
                static_cast<unsigned long long>(r.endCycle),
                record_wall ? cell.wall : 0.0,
                i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"margins\": [\n");
        for (std::size_t i = 0; i < margins.size(); ++i) {
            const Margin &mg = margins[i];
            const auto &rr = mg.refCell->result.cluster;
            std::fprintf(
                f,
                "    {\"family\": \"%s\", \"scenario\": \"%s\", "
                "\"dispatcher\": \"%s\", \"ref\": \"%s\",\n"
                "     \"ref_sla\": %.6f, \"ref_goodput\": %.4f, "
                "\"baselines\": [",
                mg.refCell->family.c_str(),
                mg.refCell->scenario.c_str(),
                mg.refCell->dispatcher.c_str(), ref.c_str(),
                rr.slaRate, rr.goodput);
            for (std::size_t o = 0; o < mg.others.size(); ++o) {
                const auto &oc = mg.others[o]->result.cluster;
                std::fprintf(
                    f,
                    "%s\n      {\"policy\": \"%s\", "
                    "\"sla_rate\": %.6f, \"goodput\": %.4f, "
                    "\"sla_ratio\": %.4f, "
                    "\"goodput_ratio\": %.4f}",
                    o > 0 ? "," : "",
                    mg.others[o]->policy.c_str(), oc.slaRate,
                    oc.goodput,
                    rr.slaRate / std::max(oc.slaRate, 1e-3),
                    rr.goodput / std::max(oc.goodput, 1e-3));
            }
            std::fprintf(f, "]}%s\n",
                         i + 1 < margins.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"total\": {\"wall_s\": %.6f}\n}\n",
                     timing ? total_wall : 0.0);
        std::fclose(f);
        std::printf("wrote %s\n", json.c_str());
    }
    return 0;
}
