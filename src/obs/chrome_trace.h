/**
 * @file
 * Chrome trace_event JSON exporter: unifies per-SoC job activity,
 * PDES epoch/stall spans, serve front-end events, and sampled
 * counters on one timeline loadable in chrome://tracing or Perfetto.
 *
 * Layout: pid 0 is the coordinator (cluster epochs + serve
 * front-end), pid i+1 is SoC i, tid is the job id within a SoC
 * (tid 0 on the coordinator).  Timestamps are microseconds at the
 * 1 GHz simulated clock (cycle / 1000).
 */

#ifndef MOCA_OBS_CHROME_TRACE_H
#define MOCA_OBS_CHROME_TRACE_H

#include <string>
#include <vector>

#include "common/units.h"
#include "obs/capture.h"
#include "obs/sampler.h"
#include "sim/trace.h"

namespace moca::obs {

/** Accumulates trace_event records; render()/write() emit the JSON. */
class ChromeTraceWriter
{
  public:
    /** Name a process row ("SoC 3", "coordinator"). */
    void processName(int pid, const std::string &name);

    /** Complete ("X") span [begin, end] in cycles. */
    void span(int pid, int tid, const std::string &name, Cycles begin,
              Cycles end);

    /** Instant ("i") event at `at` cycles. */
    void instant(int pid, int tid, const std::string &name, Cycles at);

    /** Counter ("C") sample at `at` cycles. */
    void counter(int pid, const std::string &name, Cycles at,
                 double value);

    /**
     * Expand raw SoC trace events: start/resume..pause/complete pairs
     * become per-job spans, everything else instants.  Events go to
     * pid socId + 1; open spans are closed at the last event cycle.
     */
    void addSocEvents(const std::vector<sim::TraceEvent> &events);

    /** One counter track per column, on `pid`, prefixed `prefix`. */
    void addTimeseries(int pid, const std::string &prefix,
                       const Timeseries &ts);

    /** Everything a cluster/serve run captured (all three layers). */
    void addCapture(const Capture &capture);

    std::size_t numEvents() const { return events_.size(); }

    /** The {"traceEvents": [...]} JSON document. */
    std::string render() const;

    /** Write render() to `path`; fatal on I/O failure. */
    void write(const std::string &path) const;

  private:
    struct Event
    {
        char ph; ///< 'X', 'i', 'C', or 'M' (metadata).
        int pid = 0;
        int tid = 0;
        std::string name;
        Cycles ts = 0;
        Cycles dur = 0;     ///< 'X' only.
        double value = 0.0; ///< 'C' only.
    };

    std::vector<Event> events_;
};

} // namespace moca::obs

#endif // MOCA_OBS_CHROME_TRACE_H
