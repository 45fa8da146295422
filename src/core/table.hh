/**
 * @file
 * Plain-text table formatting: the CLI's reports, and the paper
 * generator (bench/paper), whose tables EXPERIMENTS.md carries as
 * markdown.
 */

#ifndef CEDAR_CORE_TABLE_HH
#define CEDAR_CORE_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace cedar::core
{

/** A simple right-aligned text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; missing cells render empty. */
    void addRow(std::vector<std::string> cells);

    /** Render with column separators and a header rule. */
    void print(std::ostream &os) const;

    /** Fixed-precision helper for numeric cells. */
    static std::string num(double v, int precision = 2);

    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace cedar::core

#endif // CEDAR_CORE_TABLE_HH
