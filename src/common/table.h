// Fixed-width text table rendering for benchmark output.
//
// Every bench binary prints the rows/series of the corresponding paper figure
// or table through this printer so outputs are uniform and diffable.

#ifndef SRC_COMMON_TABLE_H_
#define SRC_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace sarathi {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  static std::string Num(double value, int precision = 3);
  static std::string Int(int64_t value);

  // Renders with a separator line under the header and right-padded cells.
  std::string ToString() const;

  // Renders to stdout.
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sarathi

#endif  // SRC_COMMON_TABLE_H_
