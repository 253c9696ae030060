#include "tools/analysis/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "base/json_writer.h"

namespace fairlaw::analysis {

namespace fs = std::filesystem;

void Reporter::Report(std::string_view pass, const std::string& file,
                      const std::vector<Comment>& comments, size_t line,
                      std::string rule, std::string message,
                      size_t anchor_line) {
  const std::string marker = std::string(pass) + ": allow-" + rule;
  if (HasMarkerOnOrAbove(comments, marker, line) ||
      (anchor_line != 0 &&
       HasMarkerOnOrAbove(comments, marker, anchor_line))) {
    ++suppressed_;
    return;
  }
  findings_.push_back(Finding{file, line, std::move(rule), std::move(message)});
}

void Reporter::ReportAlways(std::string file, size_t line, std::string rule,
                            std::string message) {
  findings_.push_back(
      Finding{std::move(file), line, std::move(rule), std::move(message)});
}

const std::vector<Finding>& Reporter::Sorted() {
  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings_;
}

std::string Reporter::Json() const {
  std::ostringstream out;
  out << "{\"tool\":\"" << tool_ << "\",\"schema_version\":1,\"findings\":[";
  bool first = true;
  for (const Finding& finding : findings_) {
    if (!first) out << ',';
    first = false;
    out << "{\"file\":\"" << JsonEscape(finding.file)
        << "\",\"line\":" << finding.line << ",\"rule\":\"" << finding.rule
        << "\",\"message\":\"" << JsonEscape(finding.message) << "\"}";
  }
  out << "],\"count\":" << findings_.size()
      << ",\"suppressed\":" << suppressed_ << "}";
  return out.str();
}

void Reporter::PrintFindings(bool verbose) const {
  for (const Finding& finding : findings_) {
    std::fprintf(stderr, "%s:%zu: %s: %s\n", finding.file.c_str(),
                 finding.line, finding.rule.c_str(), finding.message.c_str());
  }
  if (verbose || !findings_.empty()) {
    std::fprintf(stderr, "%s: %zu finding(s), %zu suppressed\n", tool_.c_str(),
                 findings_.size(), suppressed_);
  }
}

bool Reporter::WriteArtifact(const std::string& path) const {
  return WriteTextFile(tool_, path, Json() + "\n");
}

bool Reporter::SelfTestMatches(std::string_view spec) const {
  std::set<std::string> expected;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    expected.insert(std::string(rest.substr(0, comma)));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  std::set<std::string> fired;
  for (const Finding& finding : findings_) fired.insert(finding.rule);
  if (fired == expected) return true;
  std::fprintf(stderr,
               "%s: self-test mismatch: expected %zu rule(s), got %zu\n",
               tool_.c_str(), expected.size(), fired.size());
  for (const std::string& rule : expected) {
    if (fired.count(rule) == 0) {
      std::fprintf(stderr, "  missing: %s\n", rule.c_str());
    }
  }
  for (const std::string& rule : fired) {
    if (expected.count(rule) == 0) {
      std::fprintf(stderr, "  unexpected: %s\n", rule.c_str());
    }
  }
  return false;
}

std::vector<fs::path> CollectSources(const fs::path& root,
                                     std::span<const std::string_view> tops) {
  std::vector<fs::path> files;
  for (const std::string_view top : tops) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir)) continue;
    for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
      if (it->is_directory() &&
          it->path().filename().string().ends_with("_fixture")) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFileToString(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool WriteTextFile(const std::string& tool, const std::string& path,
                   std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", tool.c_str(),
                 path.c_str());
    return false;
  }
  return true;
}

std::string RelativeTo(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(path, root, ec);
  return ec ? path.generic_string() : rel.generic_string();
}

}  // namespace fairlaw::analysis
