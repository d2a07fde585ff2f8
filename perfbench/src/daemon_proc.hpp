// The ftlcoordd daemon as a child process: spawn with ephemeral ports,
// probe it over its own protocol and /metrics endpoint, read its /proc
// counters, and tear it down with SIGINT then SIGKILL.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ftlcoordd/protocol.hpp"

namespace perfbench {

struct DaemonProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint16_t metrics_port = 0;
  int stdout_fd = -1;  // read end of the daemon's stdout pipe
};

/// Parses the two ports from ftlcoordd's startup line ("... on
/// 127.0.0.1:<port>, /metrics on 127.0.0.1:<metrics port> ..."). nullopt
/// when either is missing.
[[nodiscard]] std::optional<std::pair<std::uint16_t, std::uint16_t>>
parse_startup_ports(const std::string& line);

/// Starts `binary args...` (which must include --port 0 --metrics-port 0)
/// and waits up to `timeout_ms` for its startup line. The child is killed
/// if this process dies. nullopt (child reaped) on failure.
[[nodiscard]] std::optional<DaemonProc> spawn_daemon(
    const std::string& binary, const std::vector<std::string>& args,
    int timeout_ms);

/// SIGINT, then SIGKILL after `grace_ms`; always reaps the child. True when
/// the daemon exited on SIGINT within the grace period.
bool stop_daemon(DaemonProc& d, int grace_ms);

/// One kStats round trip on a fresh connection; nullopt when the daemon
/// did not answer within `timeout_ms` or the reply did not decode.
[[nodiscard]] std::optional<ftl::coordd::StatsReply> fetch_stats(
    std::uint16_t port, int timeout_ms);

/// GET `path` from the metrics port (HTTP/1.0); the body, or nullopt on
/// timeout, error, or a non-200 status.
[[nodiscard]] std::optional<std::string> http_get(std::uint16_t port,
                                                  const std::string& path,
                                                  int timeout_ms);

/// Prometheus text exposition -> {"name{labels}": value} (comments and
/// malformed lines skipped).
[[nodiscard]] std::map<std::string, double> parse_prometheus(
    const std::string& text);

struct ProcSample {
  double cpu_s = 0.0;       // user + system, all threads (incl. exited)
  double peak_rss_mb = 0.0;  // VmHWM
  long threads = 0;
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary, live threads
};
/// Reads /proc/<pid>/{stat,status,task/*/status}. Zeros when unreadable.
[[nodiscard]] ProcSample sample_proc(pid_t pid);

}  // namespace perfbench
