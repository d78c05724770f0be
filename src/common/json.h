/**
 * @file
 * The one output path for every bench artifact: a JSON string
 * escape, an ordered single-line object renderer, the bench `--json`
 * document layout, and the fatal-on-failure file writer that every
 * CSV, JSON, trace and timeseries file goes through.
 */

#ifndef MOCA_COMMON_JSON_H
#define MOCA_COMMON_JSON_H

#include <string>
#include <utility>
#include <vector>

namespace moca {

/** Escape `s` for a JSON string literal: quotes, backslashes, and
 *  every control character (\n, \t, else \u00XX). */
std::string jsonEscape(const std::string &s);

/**
 * Ordered (key, literal) fields of one JSON object.  Values are
 * formatted when added, so each bench keeps its own precisions.
 */
class JsonFields
{
  public:
    /** A pre-formatted literal: number, true/false, object, array. */
    JsonFields &add(const std::string &key, std::string literal);

    /** A printf-formatted literal: num("sla", "%.6f", x). */
    JsonFields &num(const std::string &key, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

    /** An unsigned count, printed "%llu". */
    JsonFields &count(const std::string &key, unsigned long long n);

    /** A quoted, escaped string. */
    JsonFields &str(const std::string &key, const std::string &value);

    /** {"k": v, "k2": v2} on one line. */
    std::string object() const;

    const std::vector<std::pair<std::string, std::string>> &
    fields() const
    {
        return fields_;
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * A bench's `--json` document, one record per line:
 *
 *     {
 *       "bench": "<bench>",
 *       "<header key>": <value>,          (one per line)
 *       "cells": [
 *         {<record>},
 *         ...
 *       ],
 *       "<section>": [ ... ],             (e.g. "margins")
 *       "total": {<total fields>}
 *     }
 */
struct BenchJson
{
    std::string bench;
    JsonFields header;
    std::vector<std::string> cells; ///< JsonFields::object() records.
    /** Named record lists rendered after "cells", in order. */
    std::vector<std::pair<std::string, std::vector<std::string>>>
        sections;
    JsonFields total;

    std::string render() const;

    /** Write render() to `path` and print "wrote <path>". */
    void write(const std::string &path) const;
};

/** Write `text` to `path`; fatal, naming the path, when the open,
 *  the write or the close fails. */
void writeTextFile(const std::string &path, const std::string &text);

/** Create (truncate) an output file up front, so an unwritable path
 *  fails before any work runs.  No-op for an empty path. */
void claimOutputFile(const std::string &path);

} // namespace moca

#endif // MOCA_COMMON_JSON_H
