#include "common/argparse.h"

#include <cctype>
#include <cstdlib>

#include "common/log.h"
#include "common/text.h"

namespace moca {

namespace {

/** Whether a token can be the value of a preceding dashed option:
 *  anything not shaped like an option itself.  "-1.5" and "-.5" are
 *  values (negative numbers); "--jobs" and "-v" are options.  A bare
 *  key=value token is its own argument — except when a ':' precedes
 *  the first '=', which marks a policy spec ("moca:tick=2048"). */
bool
isOptionValue(const std::string &token)
{
    if (token.empty())
        return false;
    if (token[0] != '-') {
        const auto eq = token.find('=');
        return eq == std::string::npos ||
            token.find(':') < eq;
    }
    return token.size() > 1 &&
        (std::isdigit(static_cast<unsigned char>(token[1])) ||
         token[1] == '.');
}

/** Split `text` on commas; fatal when it is empty. */
std::vector<std::string>
listTokens(const std::string &what, const std::string &text)
{
    if (text.empty())
        fatal("%s needs at least one value", what.c_str());
    return splitCommaList(text);
}

} // namespace

std::int64_t
parseIntValue(const std::string &what, const std::string &value)
{
    char *end = nullptr;
    const long long v = std::strtoll(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0')
        fatal("%s=%s is not an integer", what.c_str(), value.c_str());
    return v;
}

double
parseDoubleValue(const std::string &what, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("%s=%s is not a number", what.c_str(), value.c_str());
    return v;
}

bool
parseBoolValue(const std::string &what, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes" ||
        value == "on")
        return true;
    if (value == "0" || value == "false" || value == "no" ||
        value == "off")
        return false;
    fatal("%s=%s is not a boolean", what.c_str(), value.c_str());
}

std::vector<int>
parseIntList(const std::string &what, const std::string &text)
{
    std::vector<int> values;
    for (const auto &tok : listTokens(what, text))
        values.push_back(static_cast<int>(parseIntValue(what, tok)));
    return values;
}

std::vector<double>
parseDoubleList(const std::string &what, const std::string &text)
{
    std::vector<double> values;
    for (const auto &tok : listTokens(what, text))
        values.push_back(parseDoubleValue(what, tok));
    return values;
}

ArgMap::ArgMap(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];

        // GNU-style spellings normalize onto the key=value map:
        // `--jobs 4`, `--jobs=4`, and `jobs=4` are equivalent.
        bool dashed = false;
        while (!arg.empty() && arg[0] == '-') {
            arg.erase(0, 1);
            dashed = true;
        }

        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (dashed && i + 1 < argc &&
                   isOptionValue(argv[i + 1])) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "1";
        }
    }
}

bool
ArgMap::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
ArgMap::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::int64_t
ArgMap::getInt(const std::string &key, std::int64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    return parseIntValue("argument " + key, it->second);
}

double
ArgMap::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    return parseDoubleValue("argument " + key, it->second);
}

bool
ArgMap::getBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    return parseBoolValue("argument " + key, it->second);
}

} // namespace moca
