#include "common/table.h"

#include <cstdio>

#include "common/json.h"
#include "common/log.h"
#include "common/stats.h"

namespace moca {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::cell(const std::string &value)
{
    if (rows_.empty())
        row();
    rows_.back().push_back(value);
    return *this;
}

Table &
Table::cell(double value, int precision)
{
    return cell(fmtDouble(value, precision));
}

Table &
Table::cell(long long value)
{
    return cell(strprintf("%lld", value));
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &r : rows_) {
        for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());
    }

    auto render_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t c = 0; c < widths.size(); ++c) {
            std::string v = c < cells.size() ? cells[c] : "";
            v.resize(widths[c], ' ');
            line += v;
            if (c + 1 < widths.size())
                line += "  ";
        }
        // Trim trailing padding.
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = render_row(headers_);
    std::size_t rule_len = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        rule_len += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out += std::string(rule_len, '-') + "\n";
    for (const auto &r : rows_)
        out += render_row(r);
    return out;
}

std::string
Table::csv() const
{
    auto escape = [](const std::string &s) {
        if (s.find_first_of(",\"\n") == std::string::npos)
            return s;
        std::string quoted = "\"";
        for (char ch : s) {
            if (ch == '"')
                quoted += "\"\"";
            else
                quoted += ch;
        }
        quoted += "\"";
        return quoted;
    };
    auto emit_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            line += escape(cells[c]);
            if (c + 1 < cells.size())
                line += ",";
        }
        return line + "\n";
    };
    std::string out = emit_row(headers_);
    for (const auto &r : rows_)
        out += emit_row(r);
    return out;
}

void
Table::print(const std::string &title) const
{
    if (!title.empty())
        std::printf("\n== %s ==\n", title.c_str());
    std::fputs(render().c_str(), stdout);
    std::fflush(stdout);
}

void
Table::writeCsv(const std::string &path) const
{
    writeTextFile(path, csv());
}

} // namespace moca
