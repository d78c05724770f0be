/**
 * @file
 * Pluggable result sinks for the sweep engine: an aligned console
 * table (on top of common/table), a CSV writer, and a JSON writer.
 * All three emit the same per-cell record — the scenario identity
 * (label, policy, trace parameters) plus the paper's metrics — so a
 * figure sweep can stream to the console and to machine-readable
 * files in one run.
 */

#ifndef MOCA_EXP_SWEEP_SINKS_H
#define MOCA_EXP_SWEEP_SINKS_H

#include <string>
#include <vector>

#include "common/table.h"
#include "exp/sweep/sweep.h"

namespace moca::exp {

/** Column names of the per-cell record (CSV header / JSON keys). */
const std::vector<std::string> &sweepRecordFields();

/** One cell's record as strings, aligned with sweepRecordFields(). */
std::vector<std::string> sweepRecordValues(std::size_t index,
                                           const SweepCell &cell,
                                           const ScenarioResult &r);

/**
 * Console sink: accumulates a compact metrics table and prints it
 * (with an optional title) when the sweep finishes.
 */
class TableSink : public ResultSink
{
  public:
    explicit TableSink(std::string title = "");

    void onResult(std::size_t index, const SweepCell &cell,
                  const ScenarioResult &result) override;
    void finish() override;

    const Table &table() const { return table_; }

  private:
    std::string title_;
    Table table_;
};

/** CSV sink: streams one record per cell, writes the file on finish.
 *  A non-empty path is created at construction; fatal if it cannot
 *  be written. */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::string path);

    void onResult(std::size_t index, const SweepCell &cell,
                  const ScenarioResult &result) override;
    void finish() override;

    /** The CSV text (also written to the path on finish). */
    std::string text() const;

  private:
    std::string path_;
    Table table_;
};

/** JSON sink: an array of per-cell objects, written on finish.
 *  Same path contract as CsvSink. */
class JsonSink : public ResultSink
{
  public:
    explicit JsonSink(std::string path);

    void onResult(std::size_t index, const SweepCell &cell,
                  const ScenarioResult &result) override;
    void finish() override;

    /** The JSON text (also written to the path on finish). */
    std::string text() const;

  private:
    std::string path_;
    std::vector<std::vector<std::string>> records_;
};

} // namespace moca::exp

#endif // MOCA_EXP_SWEEP_SINKS_H
