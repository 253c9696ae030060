// Clean-fixture: a per-row ValueToString loop outside src/audit/ and
// src/metrics/ (here a previewer in src/data/) is not a hot-path finding.
#include <cstddef>
#include <string>
#include <vector>

namespace fairlaw_fixture {

struct Column {
  std::string ValueToString(size_t row) const;
  size_t size() const;
};

std::vector<std::string> Preview(const Column& column) {
  std::vector<std::string> cells;
  for (size_t row = 0; row < column.size(); ++row) {
    cells.push_back(column.ValueToString(row));
  }
  return cells;
}

}  // namespace fairlaw_fixture
