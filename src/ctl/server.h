// The embedded introspection server: plain TCP, HTTP/1.0, one thread.
//
// Binds 127.0.0.1:<port> (port 0 = kernel-assigned, reported by port())
// and serves one request per connection from a single accept loop — no
// worker pool, which is exactly what makes the SnapshotBoard's single-reader
// contract hold. The server owns no simulation state: reads come from the
// board (written by the sim thread at safepoints), writes go into the
// command queue (drained by the sim thread at safepoints). The only shared
// flags are two demand bits the safepoint uses to decide whether assembling
// a fresh snapshot is worth anything.
//
// Endpoints:
//   GET /metrics            Prometheus text exposition of the registry
//   GET /statusz            live JSON: sim time, services, admission, knees
//   GET /logz?n=N           last N retained SORA_LOG lines (plain text)
//   GET /decisions?tail=N   decision-log tail as JSONL
//   GET /causalz            latest causal what-if profile as JSON
//   GET|POST /ctl?cmd=...   enqueue a control command (applied at the next
//                           safepoint; POST body is the command line)
//   GET /healthz            liveness probe
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "ctl/command.h"
#include "ctl/http.h"
#include "ctl/snapshot.h"

namespace sora::ctl {

struct ServerOptions {
  int port = 8080;  ///< 0 = ephemeral (bound port via CtlServer::port())
};

class CtlServer {
 public:
  CtlServer(ServerOptions options, SnapshotBoard& board, CommandQueue& queue);
  ~CtlServer();

  CtlServer(const CtlServer&) = delete;
  CtlServer& operator=(const CtlServer&) = delete;

  /// Bind + listen + spawn the accept thread. Returns false (with a log
  /// line) when the port is unavailable; the ctl plane stays functional
  /// without a server, so a failed bind never aborts an experiment.
  bool start();
  /// Stop accepting, join the thread. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (differs from options.port when it was 0).
  int port() const { return port_; }

  /// True when a /statusz, /decisions or /ctl request arrived since the
  /// last consume; the safepoint publishes a fresh snapshot only on demand,
  /// so an idle server costs the sim thread nothing.
  bool consume_status_demand() {
    return status_demand_.exchange(false, std::memory_order_acq_rel);
  }
  /// Same, for /metrics (tracked separately: the full registry snapshot
  /// with its sketch percentile queries is the expensive part).
  bool consume_metrics_demand() {
    return metrics_demand_.exchange(false, std::memory_order_acq_rel);
  }

  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Publish (replace) the causal-profile JSON served at /causalz. Unlike
  /// the snapshot board, this is not safepoint data: the causal profiler
  /// publishes once per profiling round from the main thread, after its
  /// counterfactual fan completes, so a plain mutex-guarded string is the
  /// right tool. Thread-safe.
  void publish_causal(std::string json);
  /// Current /causalz body ("" when nothing published yet).
  std::string causal_json() const;

 private:
  void accept_loop();
  void handle_connection(int fd);
  std::string route(const HttpRequest& request);

  ServerOptions options_;
  SnapshotBoard& board_;
  CommandQueue& queue_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: unblocks poll() on stop()
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> status_demand_{false};
  std::atomic<bool> metrics_demand_{false};
  std::atomic<std::uint64_t> requests_served_{0};

  mutable std::mutex causal_mu_;
  std::string causal_json_;
};

}  // namespace sora::ctl
