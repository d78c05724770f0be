#include "cluster/cluster.h"

#include "cluster/fleet.h"
#include "common/log.h"
#include "common/walltime.h"

namespace moca::cluster {

ClusterConfig
ClusterConfig::homogeneous(int n, const sim::SocConfig &soc)
{
    if (n < 1)
        fatal("cluster needs at least one SoC (got %d)", n);
    ClusterConfig cfg;
    cfg.socs.assign(static_cast<std::size_t>(n), soc);
    return cfg;
}

ClusterResult
runCluster(const ClusterConfig &cfg,
           const std::vector<ClusterTask> &tasks)
{
    for (std::size_t i = 1; i < tasks.size(); ++i)
        if (tasks[i].arrival < tasks[i - 1].arrival)
            fatal("cluster task stream must be sorted by arrival "
                  "(task %d at %llu after task %d at %llu)",
                  tasks[i].id,
                  static_cast<unsigned long long>(tasks[i].arrival),
                  tasks[i - 1].id,
                  static_cast<unsigned long long>(
                      tasks[i - 1].arrival));

    // The fleet core (cluster/fleet.h) advances the fleet between
    // dispatch points on the conservative-PDES engine: SoCs share
    // nothing until the next arrival, so each epoch ends at an
    // arrival and hands a quiescent fleet back to this loop.
    Fleet fleet(cfg);
    const std::size_t n = fleet.size();
    std::vector<SocLoad> loads(n);

    WallTimer dispatch_timer;
    double dispatch_sec = 0.0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        const ClusterTask &task = tasks[t];
        fleet.advance(task.arrival);
        // Completed jobs only retire their work from the dispatcher's
        // outstanding-MACs feedback signal.
        fleet.harvest([](std::size_t, int, const sim::JobResult &) {});
        if (cfg.profile)
            dispatch_timer.restart();
        for (std::size_t i = 0; i < n; ++i)
            loads[i] = fleet.load(i);
        fleet.inject(fleet.place(task, loads), task,
                     static_cast<int>(t));
        if (cfg.profile)
            dispatch_sec += dispatch_timer.restart();
    }
    fleet.advance(sim::kNoHorizon); // Drain the fleet.

    ClusterResult res;
    fleet.aggregate(res, dispatch_sec);
    res.numTasks = tasks.size();
    CompletionTally tally;
    for (std::size_t i = 0; i < n; ++i)
        for (const sim::JobResult &jr : fleet.slot(i).live().results())
            tally.add(jr, fleet.slot(i).cfg);
    if (tally.count() != tasks.size())
        panic("cluster lost tasks: %zu placed, %zu completed",
              tasks.size(), tally.count());
    tally.fill(res);
    return res;
}

} // namespace moca::cluster
