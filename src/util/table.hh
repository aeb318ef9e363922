/**
 * @file
 * Plain-text table formatting used by the benchmark harnesses and the
 * example programs to print paper-style tables (aligned columns,
 * configurable float precision, optional CSV output).
 */

#ifndef SBN_UTIL_TABLE_HH
#define SBN_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace sbn {

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   TextTable t("EBW, n=8");
 *   t.setHeader({"m", "r=2", "r=4"});
 *   t.addRow({"4", "1.998", "2.867"});
 *   t.print(std::cout);
 * @endcode
 */
class TextTable
{
  public:
    explicit TextTable(std::string title = "");

    /** Set the header row (column count is taken from it). */
    void setHeader(std::vector<std::string> header);

    /** Append a pre-formatted row. Width must match the header. */
    void addRow(std::vector<std::string> row);

    /**
     * Append a row with a string label followed by numeric cells
     * formatted to @p precision digits after the decimal point.
     */
    void addNumericRow(const std::string &label,
                       const std::vector<double> &values,
                       int precision = 3);

    /** Render the table to a stream. */
    void print(std::ostream &os) const;

    /** Format a double to fixed precision. */
    static std::string formatFixed(double value, int precision = 3);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace sbn

#endif // SBN_UTIL_TABLE_HH
