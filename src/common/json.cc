#include "common/json.h"

#include <cstdarg>
#include <cstdio>

#include "common/log.h"

namespace moca {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

JsonFields &
JsonFields::add(const std::string &key, std::string literal)
{
    fields_.emplace_back(key, std::move(literal));
    return *this;
}

JsonFields &
JsonFields::num(const std::string &key, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string literal = vstrprintf(fmt, ap);
    va_end(ap);
    return add(key, std::move(literal));
}

JsonFields &
JsonFields::count(const std::string &key, unsigned long long n)
{
    return add(key, strprintf("%llu", n));
}

JsonFields &
JsonFields::str(const std::string &key, const std::string &value)
{
    return add(key, "\"" + jsonEscape(value) + "\"");
}

std::string
JsonFields::object() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "\"" + jsonEscape(fields_[i].first) + "\": " +
            fields_[i].second;
    }
    return out + "}";
}

std::string
BenchJson::render() const
{
    std::string out = "{\n  \"bench\": \"" + jsonEscape(bench) + "\",\n";
    for (const auto &[key, literal] : header.fields())
        out += "  \"" + jsonEscape(key) + "\": " + literal + ",\n";
    auto list = [&out](const std::string &name,
                       const std::vector<std::string> &records) {
        out += "  \"" + jsonEscape(name) + "\": [\n";
        for (std::size_t i = 0; i < records.size(); ++i)
            out += "    " + records[i] +
                (i + 1 < records.size() ? ",\n" : "\n");
        out += "  ],\n";
    };
    list("cells", cells);
    for (const auto &[name, records] : sections)
        list(name, records);
    out += "  \"total\": " + total.object() + "\n}\n";
    return out;
}

void
BenchJson::write(const std::string &path) const
{
    writeTextFile(path, render());
    std::printf("wrote %s\n", path.c_str());
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write %s", path.c_str());
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !written)
        fatal("cannot write %s", path.c_str());
}

void
claimOutputFile(const std::string &path)
{
    if (!path.empty())
        writeTextFile(path, "");
}

} // namespace moca
