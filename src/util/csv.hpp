// Lightweight table/CSV emission used by benchmarks and examples to print
// paper-style tables (Table I/II/III) and figure series (Fig. 4).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace powergear::util {

/// A rectangular text table with a header row. Renders either as aligned
/// ASCII (for terminals) or CSV (for downstream plotting).
class Table {
public:
    explicit Table(std::vector<std::string> header);

    /// Append one row; the cell count must match the header width.
    void add_row(std::vector<std::string> row);

    /// Convenience: format a double with fixed precision.
    static std::string num(double v, int precision = 2);

    std::size_t num_rows() const { return rows_.size(); }
    const std::vector<std::string>& header() const { return header_; }
    const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

    /// Aligned, boxed ASCII rendering.
    std::string to_ascii() const;

    /// RFC-4180-ish CSV (quotes cells containing separators).
    std::string to_csv() const;

    /// Write CSV to a file path; returns false on I/O failure.
    bool save_csv(const std::string& path) const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const Table& t);

} // namespace powergear::util
