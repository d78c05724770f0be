#include "exp/sweep/sinks.h"

#include "common/json.h"
#include "common/log.h"

namespace moca::exp {

namespace {

/** The per-cell record schema: field name + whether JSON emits it
 *  unquoted.  Typing is by field semantics, not value shape, so the
 *  schema is stable: a label that happens to look like "8" still
 *  serializes as a string.  Keep in sync with sweepRecordValues(). */
struct SweepField
{
    const char *name;
    bool numeric;
};

const SweepField kSweepFields[] = {
    {"index", true},
    {"label", false},
    {"policy", false},
    {"workload_set", false},
    {"qos", false},
    {"arrivals", false},
    {"tasks", true},
    {"seed", true},
    {"load_factor", true},
    {"qos_scale", true},
    {"sla_rate", true},
    {"sla_low", true},
    {"sla_mid", true},
    {"sla_high", true},
    {"stp", true},
    {"fairness", true},
    {"mean_norm_latency", true},
    {"worst_norm_latency", true},
    {"num_jobs", true},
    {"makespan", true},
    {"goodput", true},
    {"dram_busy", true},
    {"migrations", true},
    {"preemptions", true},
    {"throttle_reconfigs", true},
    {"mem", false},
    {"row_hits", true},
    {"row_misses", true},
    {"bank_bytes_cv", true},
    {"l2_conflict_bytes", true},
};

} // namespace

const std::vector<std::string> &
sweepRecordFields()
{
    static const std::vector<std::string> fields = [] {
        std::vector<std::string> out;
        for (const auto &f : kSweepFields)
            out.push_back(f.name);
        return out;
    }();
    return fields;
}

std::vector<std::string>
sweepRecordValues(std::size_t index, const SweepCell &cell,
                  const ScenarioResult &r)
{
    const auto &t = r.trace;
    return {
        strprintf("%zu", index),
        cell.label,
        r.policy,
        workload::workloadSetName(t.set),
        workload::qosLevelName(t.qos),
        workload::arrivalPatternName(t.arrivals),
        strprintf("%d", t.numTasks),
        strprintf("%llu", static_cast<unsigned long long>(t.seed)),
        strprintf("%.6g", t.loadFactor),
        strprintf("%.6g", t.qosScale),
        strprintf("%.6f", r.metrics.slaRate),
        strprintf("%.6f", r.metrics.slaRateLow),
        strprintf("%.6f", r.metrics.slaRateMid),
        strprintf("%.6f", r.metrics.slaRateHigh),
        strprintf("%.6f", r.metrics.stp),
        strprintf("%.6f", r.metrics.fairness),
        strprintf("%.6f", r.metrics.meanNormLatency),
        strprintf("%.6f", r.metrics.worstNormLatency),
        strprintf("%d", r.metrics.numJobs),
        strprintf("%llu", static_cast<unsigned long long>(r.makespan)),
        strprintf("%.6f", r.makespan > 0
                              ? r.metrics.slaRate * r.metrics.numJobs *
                                    1e9 / static_cast<double>(r.makespan)
                              : 0.0),
        strprintf("%.6f", r.dramBusyFraction),
        strprintf("%d", r.totalMigrations),
        strprintf("%d", r.totalPreemptions),
        strprintf("%d", r.totalThrottleReconfigs),
        cell.soc.memModel,
        strprintf("%llu", static_cast<unsigned long long>(
                              r.memTraffic.dramRowHits)),
        strprintf("%llu", static_cast<unsigned long long>(
                              r.memTraffic.dramRowMisses)),
        strprintf("%.6f", r.memTraffic.bankBytesCv()),
        strprintf("%.0f", r.memTraffic.l2ConflictLostBytes),
    };
}

// ---- TableSink -------------------------------------------------------

TableSink::TableSink(std::string title)
    : title_(std::move(title)),
      table_({"Cell", "Policy", "SLA", "p-Low", "p-Mid", "p-High",
              "STP", "Fairness", "Makespan (Mcyc)", "DRAM busy"})
{
}

void
TableSink::onResult(std::size_t, const SweepCell &cell,
                    const ScenarioResult &r)
{
    table_.row()
        .cell(cell.label)
        .cell(r.policy)
        .cell(r.metrics.slaRate, 3)
        .cell(r.metrics.slaRateLow, 3)
        .cell(r.metrics.slaRateMid, 3)
        .cell(r.metrics.slaRateHigh, 3)
        .cell(r.metrics.stp, 2)
        .cell(r.metrics.fairness, 4)
        .cell(static_cast<double>(r.makespan) / 1e6, 1)
        .cell(r.dramBusyFraction, 3);
}

void
TableSink::finish()
{
    table_.print(title_);
}

// ---- CsvSink ---------------------------------------------------------

CsvSink::CsvSink(std::string path)
    : path_(std::move(path)), table_(sweepRecordFields())
{
    claimOutputFile(path_);
}

void
CsvSink::onResult(std::size_t index, const SweepCell &cell,
                  const ScenarioResult &r)
{
    table_.row();
    for (const auto &value : sweepRecordValues(index, cell, r))
        table_.cell(value);
}

std::string
CsvSink::text() const
{
    return table_.csv();
}

void
CsvSink::finish()
{
    if (!path_.empty())
        writeTextFile(path_, table_.csv());
}

// ---- JsonSink --------------------------------------------------------

JsonSink::JsonSink(std::string path) : path_(std::move(path))
{
    claimOutputFile(path_);
}

void
JsonSink::onResult(std::size_t index, const SweepCell &cell,
                   const ScenarioResult &r)
{
    const auto values = sweepRecordValues(index, cell, r);
    JsonFields record;
    for (std::size_t f = 0; f < values.size(); ++f) {
        if (kSweepFields[f].numeric)
            record.add(kSweepFields[f].name, values[f]);
        else
            record.str(kSweepFields[f].name, values[f]);
    }
    records_.push_back(record.object());
}

std::string
JsonSink::text() const
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i)
        out += "  " + records_[i] +
            (i + 1 < records_.size() ? ",\n" : "\n");
    return out + "]\n";
}

void
JsonSink::finish()
{
    if (!path_.empty())
        writeTextFile(path_, text());
}

} // namespace moca::exp
