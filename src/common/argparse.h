/**
 * @file
 * Minimal key=value argument parsing for the benchmark and example
 * binaries, e.g. `fig5_sla tasks=300 seed=7 load=0.9`.
 */

#ifndef MOCA_COMMON_ARGPARSE_H
#define MOCA_COMMON_ARGPARSE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace moca {

/**
 * Parse a typed value out of a free-standing string (shared by ArgMap
 * and the policy-spec parameter surface).  `what` names the setting in
 * the fatal() message on malformed input.
 */
std::int64_t parseIntValue(const std::string &what,
                           const std::string &value);
double parseDoubleValue(const std::string &what,
                        const std::string &value);
bool parseBoolValue(const std::string &what, const std::string &value);

/**
 * Parse a comma-separated list ("1,4,64") with parseIntValue /
 * parseDoubleValue per token; fatal when `text` is empty ("socs needs
 * at least one value") or a token is malformed.
 */
std::vector<int> parseIntList(const std::string &what,
                              const std::string &text);
std::vector<double> parseDoubleList(const std::string &what,
                                    const std::string &text);

/** Parsed key=value command-line overrides with typed lookups. */
class ArgMap
{
  public:
    ArgMap() = default;

    /**
     * Parse argv entries of the form key=value; entries without '='
     * are treated as boolean flags set to "1".
     */
    ArgMap(int argc, char **argv);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    const std::map<std::string, std::string> &entries() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::string> values_;
};

} // namespace moca

#endif // MOCA_COMMON_ARGPARSE_H
