#include "util/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace sbn {

TextTable::TextTable(std::string title) : title_(std::move(title)) {}

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    sbn_assert(header_.empty() || row.size() == header_.size(),
               "row width ", row.size(), " != header width ",
               header_.size());
    rows_.push_back(std::move(row));
}

void
TextTable::addNumericRow(const std::string &label,
                         const std::vector<double> &values, int precision)
{
    std::vector<std::string> row;
    row.reserve(values.size() + 1);
    row.push_back(label);
    for (double v : values)
        row.push_back(formatFixed(v, precision));
    addRow(std::move(row));
}

std::string
TextTable::formatFixed(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string> &row) {
        if (row.size() > widths.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    if (!header_.empty())
        widen(header_);
    for (const auto &row : rows_)
        widen(row);

    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;

    auto rule = [&] { os << std::string(total, '-') << '\n'; };
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i)
            os << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
        os << '\n';
    };

    if (!title_.empty())
        os << title_ << '\n';
    rule();
    if (!header_.empty()) {
        emit(header_);
        rule();
    }
    for (const auto &row : rows_)
        emit(row);
    rule();
}

} // namespace sbn
