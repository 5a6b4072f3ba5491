// End-to-end tests for the ctl plane's embedded server: HTTP plumbing,
// snapshot board consistency, and a live experiment probed over loopback
// while frozen at a safepoint with a `pause` command.
#include "ctl/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "common/log.h"
#include "ctl/http.h"
#include "ctl/json_value.h"
#include "ctl/plane.h"
#include "harness/experiment.h"
#include "obs/decision_log.h"
#include "test_util.h"

namespace sora::ctl {
namespace {

// -- HTTP plumbing ------------------------------------------------------------

TEST(HttpParsing, RequestLineQueryAndBody) {
  HttpRequest req;
  ASSERT_TRUE(parse_http_request(
      "GET /decisions?tail=5&x=a%20b+c HTTP/1.0\r\n"
      "Host: localhost\r\n\r\n",
      &req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/decisions");
  EXPECT_EQ(req.query.at("tail"), "5");
  EXPECT_EQ(req.query.at("x"), "a b c");

  ASSERT_TRUE(parse_http_request(
      "POST /ctl HTTP/1.0\r\nContent-Length: 12\r\n\r\nloglevel info", &req));
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/ctl");
  EXPECT_FALSE(req.body.empty());
}

TEST(HttpParsing, RejectsGarbage) {
  HttpRequest req;
  EXPECT_FALSE(parse_http_request("", &req));
  EXPECT_FALSE(parse_http_request("not http at all", &req));
}

TEST(HttpParsing, ResponseCarriesContentLength) {
  const std::string resp = make_http_response(200, "text/plain", "hello\n");
  EXPECT_NE(resp.find("200"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 6"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\nhello\n"), std::string::npos);
}

// -- snapshot board -----------------------------------------------------------

TEST(SnapshotBoardTest, ReadBeforeFirstPublishIsSeqZero) {
  SnapshotBoard board;
  EXPECT_EQ(board.read().seq, 0u);
}

TEST(SnapshotBoardTest, PublishStampsMonotonicSeq) {
  SnapshotBoard board;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    StatusSnapshot s;
    s.injected = i * 10;
    board.publish(std::move(s));
    const StatusSnapshot& got = board.read();
    EXPECT_EQ(got.seq, i);
    EXPECT_EQ(got.injected, i * 10);
  }
  EXPECT_EQ(board.published(), 5u);
}

// SPSC stress: one writer publishing correlated fields, one reader checking
// every observed snapshot is internally consistent (never a torn mix of two
// publishes) and that seq never goes backwards.
TEST(SnapshotBoardTest, ConcurrentReaderNeverSeesTornSnapshots) {
  SnapshotBoard board;
  constexpr std::uint64_t kPublishes = 20000;
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= kPublishes; ++i) {
      StatusSnapshot s;
      s.injected = i;
      s.completed = i * 3;
      s.log_level = std::to_string(i);
      board.publish(std::move(s));
    }
  });
  std::uint64_t last_seq = 0;
  std::uint64_t reads = 0;
  while (last_seq < kPublishes) {
    const StatusSnapshot& s = board.read();
    ASSERT_GE(s.seq, last_seq) << "seq went backwards";
    last_seq = s.seq;
    if (s.seq == 0) continue;
    ASSERT_EQ(s.completed, s.injected * 3) << "torn snapshot at seq " << s.seq;
    ASSERT_EQ(s.log_level, std::to_string(s.injected))
        << "torn snapshot at seq " << s.seq;
    ++reads;
  }
  writer.join();
  EXPECT_GT(reads, 0u);
}

// -- command queue ------------------------------------------------------------

TEST(CommandQueueTest, DrainPreservesArrivalOrder) {
  CommandQueue q;
  EXPECT_TRUE(q.empty());
  q.push("first");
  q.push("second");
  const auto drained = q.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], "first");
  EXPECT_EQ(drained[1], "second");
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.drain().empty());
}

TEST(CommandQueueTest, TokenizerSplitsOnWhitespace) {
  const auto tok = tokenize_command("  fault  crash cart\t5 ");
  ASSERT_EQ(tok.size(), 4u);
  EXPECT_EQ(tok[0], "fault");
  EXPECT_EQ(tok[3], "5");
  EXPECT_TRUE(tokenize_command("   ").empty());
}

// -- live end-to-end ----------------------------------------------------------

/// GET /statusz and parse it; retries until `pred` holds or ~5 s elapse.
JsonValue poll_statusz_until(int port,
                             const std::function<bool(const JsonValue&)>& pred) {
  JsonValue doc;
  for (int i = 0; i < 250; ++i) {
    std::string body;
    if (http_get("127.0.0.1", port, "/statusz", &body) &&
        parse_json(body, &doc) && pred(doc)) {
      return doc;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return doc;
}

TEST(CtlEndpoints, LiveExperimentServesAndAppliesCommands) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kInfo);

  ExperimentConfig cfg;
  cfg.duration = sec(30);
  cfg.sla = msec(100);
  cfg.seed = 7;
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.closed_loop(10, msec(100));

  CtlOptions copt;
  copt.port = 0;  // ephemeral: tests never collide
  exp.enable_ctl(copt);
  exp.start_all();
  CtlPlane* plane = exp.ctl_plane();
  ASSERT_NE(plane, nullptr);
  ASSERT_NE(plane->server(), nullptr);
  ASSERT_TRUE(plane->server()->running());
  const int port = plane->server()->port();
  ASSERT_GT(port, 0);

  // Freeze the sim at the very first safepoint so the probes below see a
  // stable world regardless of host speed.
  plane->queue().push("pause");
  std::thread sim_thread([&] { exp.run(); });

  const JsonValue paused = poll_statusz_until(
      port, [](const JsonValue& d) { return d["paused"].as_bool(); });
  ASSERT_TRUE(paused["paused"].as_bool()) << "sim never paused";
  EXPECT_GT(paused["sim_time_sec"].as_number(), 0.0);
  EXPECT_LT(paused["sim_time_sec"].as_number(), 30.0);
  ASSERT_EQ(paused["services"].as_array().size(), 3u);
  EXPECT_EQ(paused["services"].as_array()[0]["name"].as_string(), "front");
  EXPECT_EQ(paused["log_level"].as_string(), "info");

  // /healthz
  std::string body;
  int status = 0;
  ASSERT_TRUE(http_get("127.0.0.1", port, "/healthz", &body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  // Unknown endpoints 404 without killing the server.
  EXPECT_FALSE(http_get("127.0.0.1", port, "/nope", &body, &status));
  EXPECT_EQ(status, 404);

  // /metrics warms up on demand, then serves a real exposition.
  std::string metrics;
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(http_get("127.0.0.1", port, "/metrics", &metrics));
    if (metrics.find("# TYPE ") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(metrics.find("# TYPE "), std::string::npos)
      << "metrics never warmed up";

  // /logz retains the applied-command line (level was raised to info).
  ASSERT_TRUE(http_get("127.0.0.1", port, "/logz?n=200", &body));
  EXPECT_NE(body.find("ctl: applied 'pause'"), std::string::npos);

  // /decisions carries the ctl record with the verbatim command text.
  ASSERT_TRUE(http_get("127.0.0.1", port, "/decisions?tail=100", &body));
  EXPECT_NE(body.find("\"controller\":\"ctl\""), std::string::npos);
  EXPECT_NE(body.find("\"command\":\"pause\""), std::string::npos);

  // A /ctl write applies while paused (the pause loop keeps draining).
  ASSERT_TRUE(http_get("127.0.0.1", port, "/ctl?cmd=loglevel%20debug", &body,
                       &status));
  EXPECT_EQ(status, 202);
  for (int i = 0; i < 250 && log_level() != LogLevel::kDebug; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kInfo);

  // A bogus command is rejected and counted, not applied.
  ASSERT_TRUE(http_get("127.0.0.1", port, "/ctl?cmd=frobnicate", &body));
  poll_statusz_until(port, [](const JsonValue& d) {
    return d["commands_rejected"].as_number() >= 1.0;
  });

  // Resume and let the run finish.
  ASSERT_TRUE(http_get("127.0.0.1", port, "/ctl?cmd=resume", &body, &status));
  EXPECT_EQ(status, 202);
  sim_thread.join();

  // Final state was force-published at end of run.
  ASSERT_TRUE(http_get("127.0.0.1", port, "/statusz", &body));
  JsonValue fin;
  ASSERT_TRUE(parse_json(body, &fin));
  EXPECT_FALSE(fin["paused"].as_bool());
  EXPECT_GE(fin["sim_time_sec"].as_number(), 30.0);
  EXPECT_GT(fin["completed"].as_number(), 0.0);

  EXPECT_GE(plane->commands_applied(), 3u);  // pause, loglevel, resume
  EXPECT_GE(plane->commands_rejected(), 1u);
  EXPECT_GT(plane->server()->requests_served(), 5u);

  // Every applied ctl record carries its command text (the replay script).
  std::size_t ctl_records = 0;
  for (const auto* rec : exp.decision_log().by_controller("ctl")) {
    EXPECT_FALSE(rec->command.empty());
    ++ctl_records;
  }
  EXPECT_GE(ctl_records, 4u);

  set_log_level(old_level);
}

// Two servers on one port: the second bind fails softly (the documented
// parallel-sweep behavior — first binder wins, the rest stay headless).
TEST(CtlEndpoints, SecondBindOnSamePortFailsSoftly) {
  SnapshotBoard board1, board2;
  CommandQueue q1, q2;
  CtlServer first(ServerOptions{0}, board1, q1);
  ASSERT_TRUE(first.start());
  ASSERT_GT(first.port(), 0);
  CtlServer second(ServerOptions{first.port()}, board2, q2);
  EXPECT_FALSE(second.start());
  EXPECT_FALSE(second.running());
  // The first server still works.
  std::string body;
  EXPECT_TRUE(http_get("127.0.0.1", first.port(), "/healthz", &body));
  EXPECT_EQ(body, "ok\n");
  first.stop();
  EXPECT_FALSE(first.running());
}

}  // namespace
}  // namespace sora::ctl
