// Clean-fixture for the hot-path per-row render check: ValueToString
// outside any loop, and its name inside a loop only as string-literal
// text, are both fine in an audit tree.
#include <cstddef>
#include <string>
#include <vector>

namespace fairlaw_fixture {

struct Column {
  std::string ValueToString(size_t row) const;
  size_t size() const;
};

std::string FirstKey(const Column& column) { return column.ValueToString(0); }

std::vector<std::string> Labels(size_t n) {
  std::vector<std::string> labels;
  for (size_t i = 0; i < n; ++i) labels.push_back("ValueToString(i)");
  return labels;
}

}  // namespace fairlaw_fixture
