// fairlaw_calib — a fixed reference workload that times the host.
//
//   fairlaw_calib --reps=3
//
// Prints the nanoseconds each rep took, one per line. A rep does the
// kinds of work the binaries under test spend their time on, none of it
// through fairlaw code: it tokenizes and parses 16 MB of CSV-like text
// (about two thirds of the time), faults in 12 MB of fresh memory, and
// pushes 32 MB through a pipe. The runner divides the products' wall
// times by this figure, measured in the same run, so that a host that
// runs faster or slower for a while moves both and the ratio stays put.
// The work is fixed: it must not change when fairlaw does.
#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

constexpr size_t kTextBytes = size_t{16} << 20;
constexpr size_t kFreshBytes = size_t{12} << 20;
constexpr size_t kPipeChunk = size_t{32} << 10;
constexpr int kPipeRounds = 1024;

/// Deterministic CSV-like rows: "id,score,group\n" with varying widths.
std::string MakeText() {
  std::string text;
  text.reserve(kTextBytes + 64);
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  char field[32];
  while (text.size() < kTextBytes) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t r = state >> 17;
    const int n = std::snprintf(field, sizeof(field), "%llu,0.%04llu,g%llu\n",
                                static_cast<unsigned long long>(r % 1000003),
                                static_cast<unsigned long long>(r % 10000),
                                static_cast<unsigned long long>(r % 7));
    text.append(field, static_cast<size_t>(n));
  }
  return text;
}

/// Splits fields, parses the digits of each and hashes the rest.
uint64_t ParseText(const std::string& text) {
  std::vector<uint32_t> table(4096, 0);
  uint64_t sum = 0;
  uint64_t value = 0;
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    if (c == ',' || c == '\n') {
      sum += value;
      ++table[hash & 4095];
      value = 0;
      hash = 1469598103934665603ULL;
    } else if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<uint64_t>(c - '0');
    } else {
      hash = (hash ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
  }
  for (const uint32_t count : table) sum += count;
  return sum;
}

/// Maps fresh anonymous memory and writes one byte per page.
uint64_t TouchFreshMemory() {
  void* block = mmap(nullptr, kFreshBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) {
    std::perror("mmap");
    std::exit(1);
  }
  auto* bytes = static_cast<volatile unsigned char*>(block);
  const long page = sysconf(_SC_PAGESIZE);
  for (size_t i = 0; i < kFreshBytes; i += static_cast<size_t>(page)) {
    bytes[i] = static_cast<unsigned char>(i);
  }
  const uint64_t sum = bytes[kFreshBytes / 2];
  munmap(block, kFreshBytes);
  return sum;
}

/// Writes and reads back fixed chunks through one pipe.
uint64_t PumpPipe(std::vector<char>* chunk) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  uint64_t moved = 0;
  for (int round = 0; round < kPipeRounds; ++round) {
    (*chunk)[0] = static_cast<char>(round);
    size_t done = 0;
    while (done < kPipeChunk) {
      const ssize_t n = write(fds[1], chunk->data() + done, kPipeChunk - done);
      if (n <= 0) std::exit(1);
      done += static_cast<size_t>(n);
    }
    done = 0;
    while (done < kPipeChunk) {
      const ssize_t n = read(fds[0], chunk->data() + done, kPipeChunk - done);
      if (n <= 0) std::exit(1);
      done += static_cast<size_t>(n);
    }
    moved += static_cast<uint8_t>((*chunk)[0]);
  }
  close(fds[0]);
  close(fds[1]);
  return moved;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else {
      std::fprintf(stderr, "usage: fairlaw_calib [--reps=N]\n");
      return 1;
    }
  }
  if (reps < 1) reps = 1;
  const std::string text = MakeText();
  std::vector<char> chunk(kPipeChunk, 'x');
  volatile uint64_t sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    sink = sink + ParseText(text) + TouchFreshMemory() + PumpPipe(&chunk);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    std::printf("%lld\n",
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
  }
  return 0;
}
