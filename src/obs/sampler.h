/**
 * @file
 * Sim-time sampling of a telemetry Registry into an in-memory
 * timeseries, plus CSV/JSON flushers (the CSV path reuses the
 * common/table machinery every other sink is built on).
 *
 * Samples land on the fixed grid k * every (k = 1, 2, ...) in
 * *simulated* cycles, stamped at the grid point even when the kernel
 * stepped past it: state is piecewise-constant between steps, so the
 * value at the grid point is the value after the step that crossed
 * it.  Cadence therefore depends only on `every` and the simulated
 * span — not on the kernel (quantum vs event) step pattern.
 */

#ifndef MOCA_OBS_SAMPLER_H
#define MOCA_OBS_SAMPLER_H

#include <string>
#include <vector>

#include "common/units.h"
#include "obs/telemetry.h"

namespace moca::obs {

/** A sampled instrument matrix: one row per grid point. */
struct Timeseries
{
    std::vector<std::string> columns; ///< Instrument column names.

    struct Row
    {
        Cycles at = 0; ///< Grid point the row is stamped at.
        std::vector<double> values; ///< Aligned with columns.
    };

    std::vector<Row> rows;
};

/**
 * Snapshots a Registry at every crossed grid point.  The owner calls
 * tick(now) after each simulation step (having refreshed its gauges
 * first); the sampler emits one row per grid point in
 * (previous now, now].
 */
class Sampler
{
  public:
    /** `every` must be nonzero (fatal otherwise). */
    Sampler(const Registry &reg, Cycles every);

    /** The next grid point a tick() would sample at. */
    Cycles pending() const { return next_; }

    Cycles every() const { return every_; }

    /** Sample all grid points up to and including `now`. */
    void tick(Cycles now);

    const Timeseries &series() const { return series_; }

  private:
    const Registry &reg_;
    Cycles every_;
    Cycles next_;
    Timeseries series_;
};

/** Render a timeseries as CSV (via common/table, like every sink). */
std::string timeseriesCsv(const Timeseries &ts);

/** Render a timeseries as a JSON object {columns, rows}. */
std::string timeseriesJson(const Timeseries &ts);

/**
 * Write a timeseries to `path`: JSON when the path ends in ".json",
 * CSV otherwise.  Fatal on I/O failure.
 */
void writeTimeseries(const Timeseries &ts, const std::string &path);

} // namespace moca::obs

#endif // MOCA_OBS_SAMPLER_H
