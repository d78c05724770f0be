/**
 * @file
 * The benchmark's workloads.  Each one builds a fixed input from a
 * seed (setup), replays it through the library's public entry points
 * (a pass), checks the simulated outputs, and hashes them into a
 * digest.  A traced pass names the `timed-*` registry twins
 * (tracing.h) in place of the real specs and turns on the fleet's
 * wall-clock phase profile; its outputs must hash to the same digest.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dnn/model_zoo.h"
#include "sim/config.h"

namespace perfbench {

/** Ordered name/value pairs (insertion order is print order). */
using Values = std::vector<std::pair<std::string, double>>;

/** One pass over a workload's fixed input. */
struct PassResult
{
    std::uint64_t digest = 0;  ///< Hash of every simulated output.
    std::uint64_t failed = 0;  ///< Operations the output check rejects.
    double seconds = 0.0;      ///< Host time of the pass.
    /** Kernel steps the program itself reports (sum over SoCs). */
    std::uint64_t simSteps = 0;
    /** Host time spent stepping Socs: summed runTrace calls, or the
     *  fleet's shard-advance phase (traced passes only). */
    double socSeconds = 0.0;
    /** Host time of each (scenario, policy) cell (paper-grid). */
    std::vector<double> cellSeconds;
    /** Workload-specific per-layer values (their times need the
     *  profile of a traced pass). */
    Values layer;
    /** Simulated results for the fidelity print-out (`out.*`). */
    Values out;
};

/** Host time of one setup, split by phase. */
struct SetupTimes
{
    double total = 0.0;
    double oracle = 0.0; ///< Isolated-latency oracle calibration.
    double synth = 0.0;  ///< Trace or task-stream synthesis.
};

/** Input length: the measured size, or a tiny one for the self test. */
enum class Scale
{
    Full,
    Tiny,
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Workload parameters, for the provenance record. */
    virtual std::vector<std::pair<std::string, std::string>>
    params() const = 0;

    /** Operations in one pass: input tasks, or clients x requests. */
    virtual std::uint64_t operations() const = 0;

    /** The configuration every SoC of the workload runs. */
    const moca::sim::SocConfig &soc() const { return soc_; }

    /**
     * Build the inputs for `seed` from a cold oracle cache: calibrate
     * the isolated-latency oracle for the workload's models, then
     * synthesize the trace or task stream.
     */
    SetupTimes setup(std::uint64_t seed);

    /** Calibrate the oracle for the traced SoC configuration, so
     *  traced passes simulate only the workload itself. */
    void warmTracedOracle() const;

    /** Run one pass over the inputs of the last setup(). */
    virtual PassResult run(bool traced) const = 0;

  protected:
    explicit Workload(moca::sim::SocConfig soc) : soc_(std::move(soc)) {}

    /** Models whose isolated latencies the workload needs. */
    virtual std::vector<moca::dnn::ModelId> models() const = 0;

    /** Generate the inputs (the oracle is already calibrated). */
    virtual void synthesize(std::uint64_t seed) = 0;

    /** soc() with its memory model replaced by the timed twin. */
    moca::sim::SocConfig tracedSoc() const;

    std::uint64_t seed_ = 0;

  private:
    void warmOracle(const moca::sim::SocConfig &cfg) const;

    moca::sim::SocConfig soc_;
};

/** Names of every workload, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Build a workload by name; null when the name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       Scale scale);

/** FNV-1a over every SocConfig field (provenance fingerprint). */
std::uint64_t socFingerprint(const moca::sim::SocConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
