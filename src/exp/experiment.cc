#include "exp/experiment.h"

#include "common/log.h"
#include "common/text.h"
#include "exp/registry.h"
#include "mem/memory_model.h"

namespace moca::exp {

const ScenarioResult &
ExperimentResults::operator[](const std::string &spec) const
{
    for (std::size_t i = 0; i < specs_.size(); ++i)
        if (specs_[i] == spec)
            return results_[i];
    fatal("experiment has no result for policy '%s'; ran: %s",
          spec.c_str(), joinNames(specs_).c_str());
}

bool
ExperimentResults::has(const std::string &spec) const
{
    for (const auto &s : specs_)
        if (s == spec)
            return true;
    return false;
}

Experiment &
Experiment::soc(const sim::SocConfig &cfg)
{
    soc_ = cfg;
    return *this;
}

Experiment &
Experiment::trace(const workload::TraceConfig &tc)
{
    trace_ = tc;
    return *this;
}

Experiment &
Experiment::policies(std::vector<std::string> specs)
{
    policies_ = std::move(specs);
    return *this;
}

Experiment &
Experiment::policy(std::string spec)
{
    policies_.push_back(std::move(spec));
    return *this;
}

Experiment &
Experiment::jobs(int n)
{
    opts_.jobs = n;
    return *this;
}

ExperimentResults
Experiment::run() const
{
    if (policies_.empty())
        fatal("experiment: no policies given (use .policy(\"moca\") "
              "or .policies({...}))");
    for (const auto &spec : policies_)
        PolicyRegistry::instance().validate(spec);
    mem::MemoryModelRegistry::instance().validate(soc_.memModel,
                                                  soc_);

    std::vector<SweepCell> grid;
    appendPolicyCells(grid, "experiment", policies_, trace_, soc_);
    return ExperimentResults(policies_, SweepRunner(opts_).run(grid));
}

} // namespace moca::exp
