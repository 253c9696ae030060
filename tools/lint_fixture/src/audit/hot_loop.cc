// Deliberate hot-path violations for the fairlaw_lint self-test: a
// std::vector<bool> declaration, a per-row string compare and a per-row
// ValueToString render inside loops. The final compare and render carry
// their escape hatches and must NOT be reported — the live-tree lint run
// would catch a false positive there.
#include <cstddef>
#include <string>
#include <vector>

namespace fairlaw {

size_t CountMatchesTheSlowWay(const std::vector<std::string>& groups,
                              const std::string& wanted) {
  std::vector<bool> mask(groups.size(), false);  // violation: hot-path
  size_t count = 0;
  for (size_t row = 0; row < groups.size(); ++row) {
    if (groups[row] == wanted) {  // violation: hot-path string compare
      mask[row] = true;
      ++count;
    }
  }
  size_t suppressed = 0;
  for (size_t row = 0; row < groups.size(); ++row) {
    // lint: allow-string-compare
    if (groups[row] == wanted) ++suppressed;
  }
  return count + suppressed;
}

struct Column {
  std::string ValueToString(size_t row) const;
  size_t size() const;
};

std::vector<std::string> RenderEveryRow(const Column& column) {
  std::vector<std::string> keys(column.size());
  for (size_t row = 0; row < column.size(); ++row) {
    keys[row] = column.ValueToString(row);  // violation: per-row render
  }
  for (size_t row = 0; row < column.size(); ++row) {
    // lint: allow-per-row-render
    keys[row] = column.ValueToString(row);
  }
  return keys;
}

}  // namespace fairlaw
