/**
 * @file
 * Fluent experiment builder — the user-facing front end of the
 * experiment layer.  One `Experiment` describes a set of policies
 * replaying the identical job stream on one SoC configuration:
 *
 *     const auto res = exp::Experiment()
 *                          .soc(cfg)
 *                          .trace(tc)
 *                          .policies({"moca", "prema",
 *                                     "moca:tick=2048"})
 *                          .jobs(4)
 *                          .run();
 *     double sla = res["moca"].metrics.slaRate;
 *
 * Policies are named by registry spec strings (registry.h); results
 * come back keyed by exactly the spec strings given.  The stream is
 * generated once from soc + trace and shared by every policy; the
 * cells run on the parallel sweep engine, so `jobs(N)` comes for
 * free.  Fleets go through cluster::runCluster / serve::runServe.
 */

#ifndef MOCA_EXP_EXPERIMENT_H
#define MOCA_EXP_EXPERIMENT_H

#include <string>
#include <utility>
#include <vector>

#include "exp/sweep/sweep.h"

namespace moca::exp {

/** Results of an Experiment, keyed by policy spec string. */
class ExperimentResults
{
  public:
    ExperimentResults(std::vector<std::string> specs,
                      std::vector<ScenarioResult> results)
        : specs_(std::move(specs)), results_(std::move(results))
    {
    }

    /** Result of one policy spec; fatal when the spec was not run. */
    const ScenarioResult &operator[](const std::string &spec) const;

    bool has(const std::string &spec) const;

    std::size_t size() const { return results_.size(); }

    /** Results in the order the policies were given. */
    auto begin() const { return results_.begin(); }
    auto end() const { return results_.end(); }

  private:
    std::vector<std::string> specs_;
    std::vector<ScenarioResult> results_;
};

/** Fluent builder for one multi-policy experiment. */
class Experiment
{
  public:
    Experiment() = default;

    /** SoC configuration (default: Table II). */
    Experiment &soc(const sim::SocConfig &cfg);

    /** Trace-generation parameters (workload set, QoS, tasks, seed). */
    Experiment &trace(const workload::TraceConfig &tc);

    /** Replace the policy list (registry spec strings). */
    Experiment &policies(std::vector<std::string> specs);

    /** Append one policy spec. */
    Experiment &policy(std::string spec);

    /** Worker threads (0 = hardware concurrency; default 1). */
    Experiment &jobs(int n);

    /**
     * Validate every spec, run all policies on the identical job
     * stream, and return the results keyed by spec string.  Fatal on
     * unknown specs or an empty policy list.
     */
    ExperimentResults run() const;

  private:
    sim::SocConfig soc_;
    workload::TraceConfig trace_;
    std::vector<std::string> policies_;
    SweepOptions opts_;
};

} // namespace moca::exp

#endif // MOCA_EXP_EXPERIMENT_H
