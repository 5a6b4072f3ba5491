// The ctl plane: glue between a running experiment and the CtlServer.
//
// One CtlPlane owns the SnapshotBoard, the CommandQueue and (optionally)
// the embedded server, and installs a periodic *safepoint* event into the
// simulator. The safepoint is the only place runtime commands touch
// simulation state:
//
//   sim thread                         server thread
//   ----------                         -------------
//   ... events ...                     /ctl  -> queue.push(cmd)
//   safepoint:                         /statusz -> demand bit + board.read()
//     drain queue, apply commands
//     (each application appends a controller="ctl" decision record
//      carrying the verbatim command text)
//     publish snapshot iff demanded
//   ... events ...
//
// Because commands apply only at safepoints, an applied command is fully
// determined by (safepoint sim time, command text) — which the decision log
// records. Re-running the experiment with set_script(commands_from_log(log))
// re-applies the identical text at the identical safepoints and reproduces
// the run byte-for-byte, even though the original commands arrived over TCP
// at arbitrary wall times.
//
// Overhead: with no client connected, a safepoint is one empty try_lock
// drain and two relaxed atomic reads — snapshots are assembled only while a
// demand bit set by an actual request is pending, so the hot path stays
// within the <1% events/sec budget even with a 10 Hz dashboard attached.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "ctl/command.h"
#include "ctl/server.h"
#include "ctl/snapshot.h"
#include "sim/simulator.h"

namespace sora {
class Application;
class FaultInjector;
class LatencyRecorder;
class SoraFramework;
namespace obs {
class DecisionLog;
class SloMonitor;
}  // namespace obs
}  // namespace sora

namespace sora::ctl {

struct CtlOptions {
  /// TCP port for the embedded server (0 = kernel-assigned; query
  /// server().port()). Ignored when start_server is false.
  int port = 8080;
  /// false = headless plane: safepoints, scripts and replay still work, but
  /// no socket is opened (replay runs and parity tests use this).
  bool start_server = true;
};

class CtlPlane {
 public:
  /// Everything the safepoint reads (snapshot assembly) or steers (command
  /// application). app/sim are required; the rest may be null/empty.
  struct Hooks {
    Simulator* sim = nullptr;
    Application* app = nullptr;
    LatencyRecorder* recorder = nullptr;
    obs::DecisionLog* decision_log = nullptr;
    obs::SloMonitor* slo_monitor = nullptr;
    FaultInjector* fault_injector = nullptr;
    std::vector<SoraFramework*> frameworks;
  };

  CtlPlane(CtlOptions options, Hooks hooks);
  ~CtlPlane();

  CtlPlane(const CtlPlane&) = delete;
  CtlPlane& operator=(const CtlPlane&) = delete;

  /// Schedule the safepoint tick and (per options) start the server. A
  /// failed bind logs a warning and leaves the plane headless; it never
  /// fails the experiment. Call once, before the run.
  void start();
  /// Stop the server and cancel the tick. Idempotent; also runs at
  /// destruction.
  void stop();

  /// Replay script: apply each command at the first safepoint whose sim
  /// time reaches command.at (commands must be sorted by at — which
  /// commands_from_log output is). Replaces any previous script.
  void set_script(std::vector<TimedCommand> script);

  /// Extract the replay script from a recorded run's decision log: every
  /// controller=="ctl" applied command, in order.
  static std::vector<TimedCommand> commands_from_log(
      const obs::DecisionLog& log);

  /// Assemble and publish a snapshot now, regardless of demand (end-of-run
  /// final state; tests).
  void publish_now(bool with_metrics);

  /// Forward a causal-profile JSON document to the server's /causalz
  /// endpoint. No-op on a headless plane. Thread-safe (the server side
  /// guards the string); normally called from the main thread after a
  /// profiling round.
  void publish_causal(const std::string& json) {
    if (server_ != nullptr) server_->publish_causal(json);
  }

  // -- introspection ----------------------------------------------------------

  CtlServer* server() { return server_.get(); }
  SnapshotBoard& board() { return board_; }
  CommandQueue& queue() { return queue_; }
  std::uint64_t safepoints() const { return safepoints_; }
  std::uint64_t commands_applied() const { return commands_applied_; }
  std::uint64_t commands_rejected() const { return commands_rejected_; }
  bool paused() const { return paused_; }

  /// One safepoint, immediately (tests; normally driven by the periodic
  /// event).
  void safepoint();

 private:
  /// Apply one command line at the current sim time; records the outcome.
  void apply_command(const std::string& text);
  void record(const std::string& command, const std::string& target,
              const char* action, std::string reason);
  StatusSnapshot assemble(bool with_metrics);
  /// Drain + apply live commands, then script commands due by now.
  void apply_pending();
  /// Publish iff a demand bit is pending (or `force`).
  void publish_on_demand(bool force);

  CtlOptions options_;
  Hooks hooks_;

  SnapshotBoard board_;
  CommandQueue queue_;
  std::unique_ptr<CtlServer> server_;
  EventHandle tick_;

  std::vector<TimedCommand> script_;
  std::size_t script_next_ = 0;

  bool started_ = false;
  bool paused_ = false;
  std::uint64_t safepoints_ = 0;
  std::uint64_t commands_applied_ = 0;
  std::uint64_t commands_rejected_ = 0;

  // Wall-clock sampling for the events/sec figure in /statusz.
  std::uint64_t rate_events_base_ = 0;
  std::uint64_t rate_wall_ns_base_ = 0;
  double last_events_per_sec_ = 0.0;
};

}  // namespace sora::ctl
