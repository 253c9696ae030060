// fairlaw_peak_rss — runs a command and reports the command's own peak RSS.
//
//   fairlaw_peak_rss <report-file> <program> [args...]
//
// Forks and execs <program> with this process's stdin, stdout and
// stderr, waits for it, writes its ru_maxrss (kB) to <report-file> and
// exits with its exit code, or 128 + the signal that killed it.
//
// ru_maxrss of a process the runner spawns directly is no use: exec
// carries the spawning process's high-water mark over, and the runner
// holds whole inputs in memory. This process is small, so the command
// forked from it starts from a high-water mark below its own.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: fairlaw_peak_rss <report-file> <program> "
                         "[args...]\n");
    return 125;
  }
  const pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 125;
  }
  if (child == 0) {
    execvp(argv[2], argv + 2);
    std::perror("exec");
    _exit(127);
  }
  // Only the command may hold the pipes: the reader sees EOF when the
  // command closes its stdout, and the command sees EOF on stdin.
  close(STDIN_FILENO);
  close(STDOUT_FILENO);
  int status = 0;
  struct rusage usage {};
  while (wait4(child, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("wait4");
      return 125;
    }
  }
  FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr) {
    std::perror("report file");
    return 125;
  }
  std::fprintf(report, "%ld\n", usage.ru_maxrss);
  std::fclose(report);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
