#include "ctl/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/log.h"
#include "ctl/prometheus.h"

namespace sora::ctl {

namespace {

/// Largest request (line + headers) a connection may send.
constexpr std::size_t kMaxRequestBytes = 64 * 1024;

/// Read until the header terminator (plus any body bytes that rode along)
/// or the peer closes; bounded by `cap` and a short poll timeout so a
/// stalled client cannot wedge the accept loop.
bool read_request(int fd, std::size_t cap, std::string* out) {
  char buf[4096];
  while (out->size() < cap) {
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, /*timeout_ms=*/2000);
    if (pr <= 0) return !out->empty();
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) return false;
    if (n == 0) break;
    out->append(buf, static_cast<std::size_t>(n));
    if (out->find("\r\n\r\n") != std::string::npos) break;
  }
  return !out->empty();
}

void write_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t query_count(const HttpRequest& request, const char* key,
                        std::size_t fallback, std::size_t cap) {
  const auto it = request.query.find(key);
  if (it == request.query.end()) return fallback;
  const long v = std::strtol(it->second.c_str(), nullptr, 10);
  if (v <= 0) return fallback;
  return std::min<std::size_t>(static_cast<std::size_t>(v), cap);
}

}  // namespace

CtlServer::CtlServer(ServerOptions options, SnapshotBoard& board,
                     CommandQueue& queue)
    : options_(options), board_(board), queue_(queue) {}

CtlServer::~CtlServer() { stop(); }

bool CtlServer::start() {
  if (running()) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    SORA_WARN << "ctl: socket() failed: " << std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    // EADDRINUSE is the normal outcome for all-but-one experiment of a
    // parallel sweep sharing one SORA_CTL_PORT: whoever bound first serves.
    if (errno == EADDRINUSE) {
      SORA_INFO << "ctl: 127.0.0.1:" << options_.port
                << " already serving (another experiment bound it first)";
    } else {
      SORA_WARN << "ctl: cannot listen on 127.0.0.1:" << options_.port << " ("
                << std::strerror(errno) << "); introspection server disabled";
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_fds_) != 0) {
    SORA_WARN << "ctl: pipe() failed: " << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { accept_loop(); });
  SORA_INFO << "ctl: introspection server on http://127.0.0.1:" << port_
            << " (/metrics /statusz /logz /decisions /causalz /ctl)";
  return true;
}

void CtlServer::stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  // Self-pipe wakes poll() even with no inbound connection.
  const char byte = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
}

void CtlServer::accept_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int pr = ::poll(fds, 2, /*timeout_ms=*/500);
    if (pr <= 0) continue;
    if (fds[1].revents != 0) break;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

void CtlServer::handle_connection(int fd) {
  std::string raw;
  if (!read_request(fd, kMaxRequestBytes, &raw)) return;
  HttpRequest request;
  std::string response;
  if (!parse_http_request(raw, &request)) {
    response = make_http_response(400, "text/plain", "malformed request\n");
  } else {
    response = route(request);
  }
  write_all(fd, response);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

void CtlServer::publish_causal(std::string json) {
  const std::lock_guard<std::mutex> lock(causal_mu_);
  causal_json_ = std::move(json);
}

std::string CtlServer::causal_json() const {
  const std::lock_guard<std::mutex> lock(causal_mu_);
  return causal_json_;
}

std::string CtlServer::route(const HttpRequest& request) {
  if (request.path == "/healthz") {
    return make_http_response(200, "text/plain", "ok\n");
  }

  if (request.path == "/ctl") {
    std::string command;
    const auto it = request.query.find("cmd");
    if (it != request.query.end()) command = it->second;
    if (command.empty()) command = request.body;
    // Trim trailing newline from POSTed command lines.
    while (!command.empty() &&
           (command.back() == '\n' || command.back() == '\r')) {
      command.pop_back();
    }
    if (command.empty()) {
      return make_http_response(400, "text/plain",
                                "usage: /ctl?cmd=<command> or POST body\n");
    }
    queue_.push(command);
    status_demand_.store(true, std::memory_order_release);
    return make_http_response(202, "text/plain",
                              "queued (applies at next safepoint)\n");
  }

  if (request.method != "GET") {
    return make_http_response(405, "text/plain", "GET only\n");
  }

  if (request.path == "/statusz") {
    status_demand_.store(true, std::memory_order_release);
    const StatusSnapshot& snap = board_.read();
    return make_http_response(200, "application/json", snap.to_json() + "\n");
  }

  if (request.path == "/metrics") {
    metrics_demand_.store(true, std::memory_order_release);
    status_demand_.store(true, std::memory_order_release);
    const StatusSnapshot& snap = board_.read();
    if (!snap.has_metrics) {
      // First scrape after the demand bit flips: the safepoint has not
      // published a metrics-bearing snapshot yet. 200 with a comment keeps
      // Prometheus scrapers happy; the next scrape sees real series.
      return make_http_response(
          200, "text/plain; version=0.0.4",
          "# metrics snapshot pending (first scrape warms it up)\n");
    }
    return make_http_response(200, "text/plain; version=0.0.4",
                              to_prometheus(snap.metrics));
  }

  if (request.path == "/causalz") {
    std::string body = causal_json();
    if (body.empty()) body = "{\"profiles\":[]}";
    return make_http_response(200, "application/json", body + "\n");
  }

  if (request.path == "/logz") {
    const std::size_t n = query_count(request, "n", 100, log_ring_capacity());
    const std::vector<std::string> lines = log_ring_recent(n);
    std::string body;
    for (const std::string& line : lines) {
      body += line;
      body += '\n';
    }
    return make_http_response(200, "text/plain", body);
  }

  if (request.path == "/decisions") {
    status_demand_.store(true, std::memory_order_release);
    const std::size_t tail = query_count(request, "tail", 32, 100000);
    const StatusSnapshot& snap = board_.read();
    std::string body;
    const std::size_t count = std::min(tail, snap.decision_tail.size());
    for (std::size_t i = snap.decision_tail.size() - count;
         i < snap.decision_tail.size(); ++i) {
      body += snap.decision_tail[i];
      body += '\n';
    }
    return make_http_response(200, "application/x-ndjson", body);
  }

  return make_http_response(404, "text/plain", "unknown endpoint\n");
}

}  // namespace sora::ctl
