#include "daemon_proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "ftlcoordd/net.hpp"

namespace perfbench {

namespace coordd = ftl::coordd;

namespace {

using Clock = std::chrono::steady_clock;

void set_io_timeouts(int fd, int timeout_ms) {
  timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  return rc > 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of a "Key:   123 kB" line in a /proc status file, or 0.
std::uint64_t status_field(const std::string& text, const std::string& key) {
  const std::string tag = key + ":";
  for (std::size_t pos = text.find(tag); pos != std::string::npos;
       pos = text.find(tag, pos + 1)) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtoull(text.c_str() + pos + tag.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

std::optional<std::pair<std::uint16_t, std::uint16_t>> parse_startup_ports(
    const std::string& line) {
  static const std::string kHost = "127.0.0.1:";
  std::uint16_t ports[2] = {0, 0};
  std::size_t pos = 0;
  for (std::uint16_t& port : ports) {
    pos = line.find(kHost, pos);
    if (pos == std::string::npos) return std::nullopt;
    pos += kHost.size();
    char* end = nullptr;
    const unsigned long v = std::strtoul(line.c_str() + pos, &end, 10);
    if (end == line.c_str() + pos || v == 0 || v > 65535) return std::nullopt;
    port = static_cast<std::uint16_t>(v);
  }
  return std::make_pair(ports[0], ports[1]);
}

std::optional<DaemonProc> spawn_daemon(const std::string& binary,
                                       const std::vector<std::string>& args,
                                       int timeout_ms) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return std::nullopt;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  DaemonProc d;
  d.pid = pid;
  d.stdout_fd = pipe_fds[0];
  std::string line;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0 || !wait_readable(d.stdout_fd, static_cast<int>(left))) break;
    char buf[512];
    const ssize_t got = ::read(d.stdout_fd, buf, sizeof buf);
    if (got <= 0) break;
    line.append(buf, static_cast<std::size_t>(got));
  }
  const auto ports = parse_startup_ports(line);
  if (!ports) {
    stop_daemon(d, 0);
    return std::nullopt;
  }
  d.port = ports->first;
  d.metrics_port = ports->second;
  return d;
}

bool stop_daemon(DaemonProc& d, int grace_ms) {
  if (d.pid <= 0) return true;
  bool clean = false;
  if (grace_ms > 0 && ::kill(d.pid, SIGINT) == 0) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
    while (Clock::now() < deadline) {
      int status = 0;
      if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
        clean = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (!clean) {
    ::kill(d.pid, SIGKILL);
    int status = 0;
    while (::waitpid(d.pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (d.stdout_fd >= 0) ::close(d.stdout_fd);
  d.stdout_fd = -1;
  d.pid = -1;
  return clean;
}

std::optional<coordd::StatsReply> fetch_stats(std::uint16_t port,
                                              int timeout_ms) {
  const int fd = coordd::connect_tcp("127.0.0.1", port);
  if (fd < 0) return std::nullopt;
  set_io_timeouts(fd, timeout_ms);
  std::optional<coordd::StatsReply> out;
  std::vector<std::uint8_t> payload;
  if (coordd::write_frame(fd, coordd::encode_stats_request()) &&
      wait_readable(fd, timeout_ms) && coordd::read_frame(fd, payload)) {
    out = coordd::decode_stats_response(payload);
  }
  coordd::close_fd(fd);
  return out;
}

std::optional<std::string> http_get(std::uint16_t port, const std::string& path,
                                    int timeout_ms) {
  const int fd = coordd::connect_tcp("127.0.0.1", port);
  if (fd < 0) return std::nullopt;
  set_io_timeouts(fd, timeout_ms);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::string resp;
  if (coordd::write_full(fd, req.data(), req.size())) {
    char buf[65536];
    while (wait_readable(fd, timeout_ms)) {
      const ssize_t got = ::read(fd, buf, sizeof buf);
      if (got <= 0) break;
      resp.append(buf, static_cast<std::size_t>(got));
    }
  }
  coordd::close_fd(fd);
  const std::size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    return std::nullopt;
  }
  return resp.substr(body + 4);
}

std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + sp + 1, &end);
    if (end == line.c_str() + sp + 1) continue;
    out[line.substr(0, sp)] = v;
  }
  return out;
}

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = read_file(base + "/stat");
  const std::size_t rp = stat.rfind(')');
  if (rp != std::string::npos) {
    std::istringstream fields(stat.substr(rp + 2));
    std::string tok;
    unsigned long long utime = 0, stime = 0;
    for (int i = 0; i < 13 && fields >> tok; ++i) {
      if (i == 11) utime = std::strtoull(tok.c_str(), nullptr, 10);
      if (i == 12) stime = std::strtoull(tok.c_str(), nullptr, 10);
    }
    s.cpu_s = static_cast<double>(utime + stime) /
              static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  const std::string status = read_file(base + "/status");
  s.peak_rss_mb = static_cast<double>(status_field(status, "VmHWM")) / 1024.0;
  s.threads = static_cast<long>(status_field(status, "Threads"));
  if (DIR* dir = ::opendir((base + "/task").c_str())) {
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      const std::string t =
          read_file(base + "/task/" + e->d_name + "/status");
      s.ctx_switches += status_field(t, "voluntary_ctxt_switches") +
                        status_field(t, "nonvoluntary_ctxt_switches");
    }
    ::closedir(dir);
  }
  return s;
}

}  // namespace perfbench
